"""Filling multicurve pairs from tree normal forms of surfaces.

An infinite-type surface is encoded as a rooted subtree of the binary tree
(its space of ends), with genus introduced by a surgery that replaces tree
vertices by triangles.  From the surgered graph the generator reads off the
data that determines the truncated surface up to homeomorphism: the genus
(independent cycles), the puncture leaves, and the truncated ends.  It then
assembles a filling pair with the contract of the curve recipe:

  - every complementary face is a polygon or once-punctured polygon with at
    most max(8, m) sides (observed sizes stay in {2, 4, 6, 8}),
  - the face holding the marked point p has exactly 2m sides,
  - any two curves from opposite families meet at most twice,
  - the configuration graph has bounded valence.

The marked chamber comes from a chain of m+1 linked curves in taxicab
position (consecutive curves meeting twice): its outer face is a 2m-gon and
it carries m+2 two-sided faces, each of which must hold a puncture (an
empty bigon would contradict minimal position).  Genus is added by splicing
in four-square blocks whose faces are all 4-gons; a splice re-targets two
parallel gluing arrows and merges the flanking faces pairwise, so spliced
bigons are absorbed into 4- and 6-gons.  The assembly is held as its
side-gluing table alone: every block is a template glued in by one path,
a splice swaps four entries of the table, and the faces are read off the
table after each splice, so one complex is built per output.  Nothing
adds faces for extra punctures: each face holds at most one, so a
surface with more punctures than faces raises RecipeError
(build_multicurves((0, 5), 1): only 4 faces for 5 punctures).

One such genus arm absorbs at most two bigons.  When arms alone leave more
bigons than punctures, the general chain is assembled again with a second
move, the handle splice: it swaps two gluings of the assembly itself, which
adds one handle and no squares and merges the faces flanking both gluings,
up to four bigons at once.  While bigons outnumber punctures, a handle
splice takes the place of the next arm whenever it eats more bigons than
the best arm port.  Each one is chosen under the contract: genus up by
exactly one, marked chamber untouched, other faces within FACE_BOUND sides,
opposite curves meeting at most twice; the search reads the configuration
graph, not a complex, of a swap that would win.  Outputs that arms alone
realize are unchanged.  For genus <= 5, at most 8 punctures and m <= 10, handle splices
add 51 finite (g, n, m), among them (3, 2, 6) and (3, 4, 8), plus loch-ness
and ladder truncations at m = 6 and 7.  The reachable set has no closed
form; a combination outside it raises RecipeError.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .graphs import BipartiteConfigGraph, _components
from .surfaces import (_END_CORNER, RectangleComplex, _aligned_walks, _corner_chains,
                       _glue_axis, build_surface, configuration, mark_faces)

FACE_BOUND = 8
_MAX_FLANK = 4  # largest face beside a splice port


class RecipeError(ValueError):
    """Requested surface/weight combination is not realizable here."""


class TreeError(ValueError):
    """An EndTreeSpec that breaks a rule of trees.

    record and vertex name what is at fault: "vertex" or a mark
    ("puncture", "genus-mark", "frontier") and its vertex, so a parser can
    point at the record that named it.
    """

    def __init__(self, message: str, record: str, vertex):
        super().__init__(message)
        self.record = record
        self.vertex = vertex


# ---------------------------------------------------------------------------
# tree normal forms


@dataclass(frozen=True)  # not a NamedTuple: its cached_property needs a __dict__
class EndTreeSpec:
    """Rooted tree encoding of a surface: parent links, puncture leaves,
    genus-surgery marks, and frontier vertices where a truncation stopped."""

    root: object
    parents: tuple  # ((child, parent), ...) sorted
    punctures: frozenset
    genus_marks: frozenset
    frontier: frozenset
    family: str = "finite"

    @staticmethod
    def make(root, parents, punctures=(), genus_marks=(), frontier=(),
             family="finite") -> "EndTreeSpec":
        parents = dict(parents)
        spec = EndTreeSpec(root=root, parents=tuple(sorted(parents.items(), key=repr)),
                           punctures=frozenset(punctures),
                           genus_marks=frozenset(genus_marks),
                           frontier=frozenset(frontier), family=family)
        spec._validate()
        return spec

    def parent_map(self) -> dict:
        return dict(self.parents)

    @cached_property
    def _children(self) -> dict:
        """Each vertex's children, sorted by repr; read only once _validate
        has walked every parent to the root, so every parent is a vertex."""
        out = {self.root: []} | {c: [] for c, _ in self.parents}
        for c, p in self.parents:
            out[p].append(c)
        return {v: tuple(sorted(ch, key=repr)) for v, ch in out.items()}

    def vertices(self) -> set:
        return set(self._children)

    def children(self) -> dict:
        return {v: list(ch) for v, ch in self._children.items()}

    def degree(self, v) -> int:
        return len(self._children[v]) + (0 if v == self.root else 1)

    def leaves(self) -> set:
        return {v for v, ch in self._children.items() if not ch and v != self.root}

    def _validate(self):
        links = {self.root: []}  # each parent link, entered from both ends
        for k, (c, p) in enumerate(self.parents):
            if c == self.root:
                raise TreeError("root cannot have a parent", "vertex", self.root)
            links.setdefault(c, []).append((k, p))
            links.setdefault(p, []).append((k, c))
        rooted = set(_components(links)[0])
        for c, _ in self.parents:
            if c not in rooted:
                raise TreeError(f"vertex {c} is not connected to the root", "vertex", c)
        if self.degree(self.root) > 2:
            raise TreeError("root degree must be at most 2", "vertex", self.root)
        leaves = self.leaves()
        # marks in repr order, so the mark reported does not depend on str hashing
        for v in sorted(self.punctures, key=repr):
            if v not in leaves:
                raise TreeError(f"puncture mark {v} is not a leaf", "puncture", v)
        for v in sorted(self.genus_marks, key=repr):
            if v in leaves:
                raise TreeError(f"genus mark {v} sits on a leaf", "genus-mark", v)
        vertices = self.vertices()
        for v in sorted(self.frontier, key=repr):
            if v not in vertices:
                raise TreeError(f"frontier vertex {v} not in the tree", "frontier", v)
        bare = leaves - self.punctures - self.frontier
        if bare:
            bare = sorted(bare, key=repr)
            raise TreeError(f"leaves {bare} are neither punctures nor frontier", "vertex", bare[0])

    def _shadowing(self) -> set:
        """Non-root degree-2 vertices (one child) with a descendant that has
        two or more children.  One bottom-up pass: walk up from each
        branching vertex until an ancestor already found."""
        pm, ch = self.parent_map(), self._children
        above = set()  # vertices with a branching strict descendant
        for w, kids in ch.items():
            if len(kids) < 2:
                continue
            while w in pm and pm[w] not in above:
                w = pm[w]
                above.add(w)
        return {v for v in above if v != self.root and len(ch[v]) == 1}

    def is_simple(self) -> bool:
        """Every descendant of a non-root degree-2 vertex has degree 2 or is a leaf."""
        return not self._shadowing()


def induced_subtree(addresses, depth: int) -> EndTreeSpec:
    """Union of the root rays through a prefix-coded end set.

    addresses: entries "ray:<bits>" (the single end <bits>000...) or
    "cone:<bits>" (every end through <bits>); bare strings mean ray.
    Vertices are bit-string prefixes, the root is "".  All materialized
    leaves at the truncation depth are frontier vertices.
    """
    if not addresses:
        raise ValueError("end set must be nonempty")
    rays, cones = set(), set()
    for a in addresses:
        kind, _, bits = a.partition(":") if ":" in a else ("ray", "", a)
        if kind not in ("ray", "cone"):
            raise ValueError(f"address {a!r} is neither a ray nor a cone")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"address {a!r} is not binary")
        (rays if kind == "ray" else cones).add(bits)
    verts = {""}
    for bits in rays:
        ray = (bits + "0" * depth)[:max(depth, len(bits))]
        for k in range(1, len(ray) + 1):
            verts.add(ray[:k])
    for bits in cones:
        for k in range(1, len(bits) + 1):
            verts.add(bits[:k])
        frontier_layer = [bits]
        while frontier_layer:
            w = frontier_layer.pop()
            if len(w) >= max(depth, len(bits)):
                continue
            for b in "01":
                verts.add(w + b)
                frontier_layer.append(w + b)
    parents = {v: v[:-1] for v in verts if v}
    leaves = verts - {v[:-1] for v in verts} - {""}
    return EndTreeSpec.make("", parents, frontier=leaves)


def simplify_tree(t: EndTreeSpec) -> EndTreeSpec:
    """Contract maximal chains of degree-2 vertices that shadow a branching.

    Afterwards every descendant of a non-root degree-2 vertex has degree 2,
    so the tree is simple; the end space at the materialized depth is kept.
    """
    pm = t.parent_map()
    removable = t._shadowing() - t.punctures - t.frontier - t.genus_marks
    new_parents = {}
    for v in t.vertices():
        if v == t.root or v in removable:
            continue
        p = pm[v]
        while p in removable:
            p = pm[p]
        new_parents[v] = p
    return EndTreeSpec.make(t.root, new_parents, punctures=t.punctures,
                            genus_marks=t.genus_marks & set(new_parents) | (t.genus_marks & {t.root}),
                            frontier=t.frontier, family=t.family)


class SurgeredGraph(NamedTuple):
    """A tree after genus surgery, kept as what the recipe reads of it: the
    puncture and frontier marks (as reprs) and the number of triangles."""

    punctures: frozenset
    frontier: frozenset
    triangles: int

    def genus(self) -> int:
        return self.triangles


def surgery(t: EndTreeSpec, marks=None) -> SurgeredGraph:
    """Replace each marked vertex by a triangle (one handle apiece).

    A degree-3 vertex loses its two descendant edges and gains the triangle
    v, v'_*, v''_* re-routing them; a degree-2 vertex splits its descendant
    edge through the triangle.  Either way the graph gains two vertices and
    three edges, so each triangle adds exactly one independent cycle to the
    tree and the genus is the number of triangles; only that count is kept.
    Leaves cannot be marked.
    """
    # marks in repr order, so the mark reported does not depend on str hashing
    marks = sorted(t.genus_marks if marks is None else frozenset(marks), key=repr)
    leaves = t.leaves()
    ch = t._children
    for v in marks:
        if v in leaves:
            raise ValueError(f"genus mark {v} is a leaf")
        if v not in ch:
            raise ValueError(f"genus mark {v} not in the tree")
    for v in marks:
        if len(ch[v]) not in (1, 2):
            raise ValueError(f"marked vertex {v} has {len(ch[v])} descendants; "
                             "only degree 2 and 3 are supported")
    return SurgeredGraph(punctures=frozenset(repr(v) for v in t.punctures),
                         frontier=frozenset(repr(v) for v in t.frontier),
                         triangles=len(marks))


def loch_ness_tree(genus: int) -> EndTreeSpec:
    """Truncated one-ended infinite-genus surface: a ray with every interior
    vertex marked for surgery."""
    if genus < 1:
        raise ValueError("need genus >= 1")
    verts = list(range(genus + 1))
    parents = {v: v - 1 for v in verts[1:]}
    return EndTreeSpec.make(0, parents, genus_marks=set(verts[:-1]),
                            frontier={verts[-1]}, family="loch-ness")


def ladder_tree(genus: int) -> EndTreeSpec:
    """Truncated two-ended infinite-genus surface (the ladder)."""
    if genus < 1:
        raise ValueError("need genus >= 1")
    left = [f"l{k}" for k in range(1, genus // 2 + 2)]
    right = [f"r{k}" for k in range(1, (genus + 1) // 2 + 2)]
    parents = {}
    prev = 0
    for v in right:
        parents[v] = prev
        prev = v
    prev = 0
    for v in left:
        parents[v] = prev
        prev = v
    marks = set(right[:-1]) | set(left[:-1]) | {0}
    marks = set(list(sorted(marks, key=repr))[:genus])
    return EndTreeSpec.make(0, parents, genus_marks=marks,
                            frontier={left[-1], right[-1]}, family="ladder")


# ---------------------------------------------------------------------------
# square-complex assembly


# A block template in local square ids 0, 1, ...: the successor of each
# square along sigma_h and sigma_v, and the flipped arrows (square, "E"/"N").
_Block = namedtuple("_Block", "sigma_h sigma_v flips", defaults=((),))


def _chainlink(r: int) -> _Block:
    """Chain of r linked taxicab loops.

    Odd-position curves run horizontally, even vertically; consecutive
    curves j, j+1 meet twice, in squares 2j-2 (u) and 2j-1 (d).  Curve ends
    make U-turns (flips); a trailing even curve crosses its neighbour on one
    column and closes without flips.
    """
    if r < 2:
        raise ValueError("chain needs at least 2 curves")
    h, v, flips = {}, {}, []
    for j in range(1, r + 1):
        pairs = [k for k in (j - 1, j) if 0 < k < r]  # neighbours j-1, j+1
        loop = [2 * k - 2 for k in pairs] + [2 * k - 1 for k in reversed(pairs)]
        tgt, ax = (h, "E") if j % 2 else (v, "N")
        tgt.update(zip(loop, loop[1:] + loop[:1]))
        if len(loop) == 4:  # a middle curve turns once beside each neighbour
            flips += [(q, ax) for q in loop[j % 2::2]]
        elif j % 2:  # an end curve, unless a trailing even one
            flips += [(q, ax) for q in loop]
    return _Block(tuple(h[q] for q in sorted(h)), tuple(v[q] for q in sorted(v)), tuple(flips))


# Four squares, faces all 4-gons, genus one, no flips (the interleaved
# sigma_v adds the handle).  Terminal arm block: enters at square 0.
_GENUS = _Block((1, 0, 3, 2), (2, 3, 1, 0))
# Six squares, faces {2,2,2,2,8,8}, genus one.  A through block: it enters
# on the N side of square 0 and leaves on the E side of square 5 (E and N
# swapped when transposed); both arrows are bigon-flanked and sit on
# different curves, so chained blocks keep every curve's valence bounded.
_FF4 = _Block((1, 0, 3, 5, 2, 4), (1, 3, 0, 2, 5, 4), ((0, "E"), (1, "E"), (4, "N"), (5, "N")))
_TRANSPOSE = {"E": "N", "N": "E"}

# Marked-chamber blocks other than the chain: name -> (block, genus g0,
# standalone).  Standalone blocks have no spliceable port clear of the
# marked chamber, so arms cannot grow their genus.
_P_BLOCKS = {
    # faces {4,4}, genus 1
    "torus": (_Block((1, 0), (1, 0)), 1, True),
    # open 3-chain, one flipped end: faces {2,2,6,6}, genus 1
    "fs3": (_Block((1, 0, 3, 2), (1, 3, 0, 2), ((0, "E"), (1, "E"))), 1, False),
    # faces {8,8}, genus 2
    "double-handle": (_Block((1, 0, 3, 2), (1, 3, 0, 2)), 2, True),
    # faces {2,2,2,4,10}, genus 1: a weight-5 chamber with three punctured
    # bigons (frozen from an exhaustive search); it has bigon-flanked
    # gluings clear of the chamber, so arms attach
    "penta5": (_Block((0, 2, 3, 4, 1), (1, 2, 0, 4, 3), ((1, "E"), (3, "E"))), 1, False),
}


class _Assembly:
    """Square complex under construction, held as its side-gluing table
    (square, side) -> (square, side, reversed) over squares 0..squares-1.

    Blocks are glued in from their templates and a splice swaps four table
    entries; surfaces.configuration reads the ribbon and graph off the table.
    """

    def __init__(self):
        self.gluings = {}
        self.squares = 0

    def add(self, block: _Block, transposed: bool = False) -> int:
        """Glue in a relabelled copy of block, with sigma_h and sigma_v and
        the letters E and N swapped if transposed; returns its first id."""
        first = self.squares
        self.squares += len(block.sigma_h)
        h, v = ({first + k: first + t for k, t in enumerate(sigma)}
                for sigma in (block.sigma_h, block.sigma_v))
        flips = {(first + k, _TRANSPOSE[ax] if transposed else ax) for k, ax in block.flips}
        if transposed:
            h, v = v, h
        for mapping, axis in ((h, "h"), (v, "v")):
            self.gluings.update(_glue_axis(mapping, flips, axis))
        return first

    def splice(self, port1, port2) -> dict:
        """Swap the partners of two side-gluings of the same kind (both
        vertical or both horizontal sides); returns the replaced entries.

        Working at the gluing level keeps the surgery local: exactly the
        faces flanking the two gluings merge pairwise, everything else,
        including flipped arrows elsewhere in the cylinders, is untouched.
        """
        kinds = {"E": "h", "W": "h", "N": "v", "S": "v"}
        if kinds[port1[1]] != kinds[port2[1]]:
            raise RecipeError("splice needs two gluings of the same kind")
        gl = self.gluings
        a, b = port1, gl[port1][:2]
        c, d = port2, gl[port2][:2]
        if len({a, b, c, d}) != 4:
            raise RecipeError("splice needs two disjoint gluings")
        old = {x: gl[x] for x in (a, b, c, d)}
        for x, y in ((a, d), (c, b)):
            rev = x[1] == y[1]  # same side letter: half-translation
            gl[x] = (y[0], y[1], rev)
            gl[y] = (x[0], x[1], rev)
        return old

    def faces(self) -> "_Faces":
        """The face census read off the table: the corner chains, numbered
        as build() numbers its corner cycles (ascending by first quarter)."""
        quarters = [chain for chain, _ in _corner_chains(range(self.squares), self.gluings)]
        face_of = {q: idx for idx, chain in enumerate(quarters) for q in chain}
        return _Faces([len(chain) for chain in quarters], face_of, quarters)

    def build(self) -> RectangleComplex:
        ribbon, graph = configuration(range(self.squares), self.gluings)
        return build_surface(graph, ribbon)


# An assembly's faces: sizes[i] and quarters[i] of face i, and the face
# index of every quarter (square, corner).
_Faces = namedtuple("_Faces", "sizes face_of quarters")


def _flanking(asm: _Assembly, face_of: dict) -> dict:
    """One key per gluing, the side an aligned curve walk leaves it by (the
    side build() keys it by first) -> (face at lo end, face at hi end)."""
    return {(e, side): (face_of[(e, _END_CORNER[(side, "lo")])],
                        face_of[(e, _END_CORNER[(side, "hi")])])
            for walk in _aligned_walks(range(asm.squares), asm.gluings) for e, side in walk}


def _bigons(sizes, marked: int) -> int:
    """Two-sided faces other than the marked chamber."""
    return sum(1 for idx, k in enumerate(sizes) if k == 2 and idx != marked)


def _find_port(sizes, fl: dict, marked: int) -> tuple:
    """Best arrow for a splice, given the assembly's face sizes, flanks
    (_flanking) and marked face: flanked by two distinct faces of size at
    most _MAX_FLANK, neither the marked chamber; ports eating more bigon
    faces are preferred, then smaller flanks.  Returns (arrow, eaten) or None."""
    best = None
    for arrow in sorted(fl):
        lo, hi = fl[arrow]
        if lo == hi or marked in (lo, hi):
            continue
        if sizes[lo] > _MAX_FLANK or sizes[hi] > _MAX_FLANK:
            continue
        eaten = (sizes[lo] == 2) + (sizes[hi] == 2)
        key = (-eaten, sizes[lo] + sizes[hi], arrow)
        if best is None or key < best:
            best = key
    return (best[2], -best[0]) if best else None


def _find_handle(asm: _Assembly, sizes, fl: dict, marked: int, marked_token) -> tuple:
    """Best self-splice: two gluings of the assembly swapped against each
    other, adding one handle and no squares.  Legal when it raises the genus
    by exactly one, leaves the marked chamber alone, keeps every other face
    within FACE_BOUND and every pair of opposite curves meeting at most
    twice.  Prefers the move eating the most bigon faces, then the one whose
    largest face is smallest.  sizes, fl and marked describe the assembly
    as it stands; marked_token lies in the marked face.  Each swap's face
    conditions and key are read off the swapped table, and only a swap
    that would become the new best has its configuration graph read, for
    connectivity, even-flip cylinders and pair meetings.  Keys end in the
    two arrows, so the winner does not depend on the order of the search.
    Returns (port pair, bigons eaten) or None."""
    bigons = _bigons(sizes, marked)
    arrows = [a for a in sorted(fl) if marked not in fl[a]]
    best = None
    for k, a in enumerate(arrows):
        for b in arrows[k + 1:]:
            if (a[1] in ("E", "W")) != (b[1] in ("E", "W")):
                continue
            old = asm.splice(a, b)
            try:
                szs, face_of, _ = asm.faces()
                # chi = faces - squares drops by two exactly when the genus rises by one
                if len(szs) != len(sizes) - 2:
                    continue
                new_marked = face_of[marked_token]
                rest = [k2 for idx, k2 in enumerate(szs) if idx != new_marked]
                if szs[new_marked] != sizes[marked] or max(rest) > FACE_BOUND:
                    continue
                key = (-(bigons - rest.count(2)), max(rest), a, b)
                if best is not None and key > best:
                    continue
                try:
                    _, graph = configuration(range(asm.squares), asm.gluings)
                except ValueError:  # the swap cut the surface in two or made an odd cylinder
                    continue
                if max(_pair_meetings(graph).values()) > 2:
                    continue
                best = key
            finally:
                asm.gluings.update(old)
    return ((best[2], best[3]), -best[0]) if best else None


def _pair_meetings(graph: BipartiteConfigGraph) -> dict:
    """(i, j) -> number of points where curves i and j meet."""
    counts = {}
    for _, i, j in graph.edges:
        counts[(i, j)] = counts.get((i, j), 0) + 1
    return counts


def _marked_face_index(quarters) -> int:
    """The p-chamber of a lone p-block: its largest face, the lowest index
    on ties."""
    return max(range(len(quarters)), key=lambda idx: (len(quarters[idx]), -idx))


class CurveRecipeOutput(NamedTuple):
    """A filling pair as its assembled complex, whose corner cycles carry
    the puncture and marked flags; end_faces holds the indices of the
    punctured faces that stand for truncated ends, and report the passing
    verify_recipe check of the complex at weight m."""

    complex: RectangleComplex
    m: int
    genus: int
    end_faces: frozenset
    report: RecipeReport


def build_multicurves(source, m: int) -> CurveRecipeOutput:
    """Assemble a filling pair realizing a surface with weight-m marked point.

    source: a SurgeredGraph, an EndTreeSpec (surgered automatically), or a
    plain (genus, punctures) pair for finite-type surfaces.  Frontier ends
    of truncations are carried as end-flagged punctured faces.
    """
    if m < 1:
        raise RecipeError("weight m must be at least 1")
    ends = 0
    if isinstance(source, EndTreeSpec):
        source = surgery(source)
    if isinstance(source, SurgeredGraph):
        genus = source.genus()
        punctures = len(source.punctures)
        ends = len(source.frontier)
    else:
        genus, punctures = source
    n_total = punctures + ends
    if n_total < m + 2 - 4 * genus:
        raise RecipeError(f"weight {m} on genus {genus} needs at least "
                          f"{m + 2 - 4 * genus} punctures (angle excess count)")
    last_error = None
    for variant in _p_block_variants(m):
        try:
            return _attempt(variant, genus, n_total, ends, m)
        except RecipeError as exc:
            last_error = exc
    raise RecipeError(f"no supported assembly for genus {genus}, {n_total} "
                      f"punctures/ends, weight {m}: {last_error}")


def _attempt(variant: str, genus: int, n: int, ends: int, m: int) -> CurveRecipeOutput:
    """One variant end to end: assemble, distribute flags, verify, package."""
    try:
        sizes, marked_idx, complex_ = _assemble_variant(variant, genus, n, m)
    except RecipeError:
        # the general chain tries again with handle splices; outputs that
        # arms alone realize stay as they are
        if variant != "chainlink":
            raise
        sizes, marked_idx, complex_ = _assemble_variant(variant, genus, n, m, absorb=True)
    # every unmarked bigon must hold a puncture (minimal position); leftover
    # punctures go to the largest faces; if slots run out, p doubles as a
    # marked puncture
    order = sorted((idx for idx in range(len(sizes)) if idx != marked_idx),
                   key=lambda idx: (sizes[idx] != 2, -sizes[idx], idx))
    bigons = [idx for idx in order if sizes[idx] == 2]
    flagged = bigons + [idx for idx in order if sizes[idx] != 2][: n - len(bigons)]
    # _assemble_variant refused n > len(sizes), so at most one slot is short
    if len(flagged) < n:
        flagged.append(marked_idx)
    # truncated ends sit on the largest flagged faces away from p
    end_pool = sorted((idx for idx in flagged if idx != marked_idx),
                      key=lambda idx: (-sizes[idx], idx))
    if len(end_pool) < ends:
        raise RecipeError(f"{variant}: not enough faces for {ends} ends")
    complex_ = mark_faces(complex_, flagged, marked_idx)
    report = verify_recipe(complex_, m)
    if not report.passes:
        raise RecipeError(f"{variant}: verification failed: {report.failures}")
    return CurveRecipeOutput(complex=complex_, m=m, genus=genus,
                             end_faces=frozenset(end_pool[:ends]), report=report)


def _p_block_variants(m: int):
    """Alternative marked-chamber blocks, tried in order.  Standalone blocks
    (no spliceable port clear of the marked chamber) realize low-puncture
    cases the general chain cannot reach."""
    variants = []
    if m == 2:
        variants.append("torus")
    if m == 3:
        variants.append("fs3")
    if m == 4:
        variants.append("double-handle")
    if m == 5:
        variants.append("penta5")
    variants.append("chainlink")
    return variants


def _assemble_variant(name: str, genus: int, n: int, m: int, absorb: bool = False):
    """Assemble one marked-chamber block and grow it to the requested genus.
    absorb also lets handle splices (_find_handle) add genus while bigon
    faces outnumber punctures."""
    asm = _Assembly()
    if name == "chainlink":
        block, g0, standalone = _chainlink(m + 1), 0, False
    else:
        block, g0, standalone = _P_BLOCKS[name]
    asm.add(block)
    if genus < g0:
        raise RecipeError(f"{name} block carries genus {g0} > requested {genus}")
    if standalone and genus > g0:
        raise RecipeError(f"{name} block has no splice ports to grow genus")

    faces = asm.faces()  # re-read after every arm and handle splice
    marked_token = faces.quarters[_marked_face_index(faces.quarters)][0]

    genus_needed = genus - g0
    while genus_needed > 0:
        fl = _flanking(asm, faces.face_of)
        marked = faces.face_of[marked_token]
        found = _find_port(faces.sizes, fl, marked)
        excess = _bigons(faces.sizes, marked) - n
        # a handle splice takes the place of the next arm when it eats more
        # bigons than the best arm port can (an arm eats at most two)
        if absorb and excess > 0:
            handle = _find_handle(asm, faces.sizes, fl, marked, marked_token)
            if handle is not None and handle[1] > (found[1] if found else 0):
                asm.splice(*handle[0])
                faces = asm.faces()
                genus_needed -= 1
                continue
        if found is None:
            raise RecipeError(f"{name}: no legal splice port for a genus arm")
        port, eaten = found
        if excess > 0 and eaten == 0:
            raise RecipeError(f"{name}: bigon faces outnumber punctures and "
                              "no port can absorb more")
        # while bigons still exceed punctures, spend genus one arm at a
        # time on absorbing ports; afterwards one long arm of through
        # blocks takes the rest
        length = 1 if excess > 0 else genus_needed
        for _ in range(length - 1):
            horizontal = port[1] in ("E", "W")
            q = asm.add(_FF4, transposed=horizontal)
            asm.splice(port, (q, "E" if horizontal else "N"))
            port = (q + 5, "N" if horizontal else "E")
            genus_needed -= 1
        asm.splice(port, (asm.add(_GENUS), "E" if port[1] in ("E", "W") else "N"))
        faces = asm.faces()
        genus_needed -= 1

    sizes = faces.sizes
    marked_idx = faces.face_of[marked_token]
    bigons = _bigons(sizes, marked_idx)
    if bigons > n:
        raise RecipeError(f"{name}: {bigons} bigon faces exceed {n} punctures")
    if n > len(sizes):  # every face can hold one puncture, p's included
        raise RecipeError(f"{name}: only {len(sizes)} faces for {n} punctures")
    chi = len(sizes) - asm.squares  # V - E + F = faces - 2 squares + squares
    if chi != 2 - 2 * genus:
        raise RecipeError(f"{name}: assembled genus {(2 - chi) // 2} != {genus}")
    return sizes, marked_idx, asm.build()


# ---------------------------------------------------------------------------
# verification


class RecipeReport(NamedTuple):
    passes: bool
    failures: tuple
    face_census: tuple
    valence: int
    max_pair_intersections: int


def verify_recipe(m: RectangleComplex, weight: int) -> RecipeReport:
    """Check the curve-recipe contract at this weight on a complex whose
    corner cycles carry the puncture and marked flags."""
    failures = []
    bound = max(FACE_BOUND, weight)
    for c in m.corner_cycles:
        if c.marked:
            if c.k != 2 * weight:
                failures.append(f"marked face {c.index} has {c.k} sides, "
                                f"expected {2 * weight}")
        elif c.k > bound:
            failures.append(f"face {c.index} has {c.k} > {bound} sides")
        if c.k == 2 and not (c.puncture or c.marked):
            failures.append(f"bigon face {c.index} is empty (not minimal position)")
    # pairwise intersections <= 2
    pair_counts = _pair_meetings(m.graph)
    worst = max(pair_counts.values()) if pair_counts else 0
    if worst > 2:
        bad = max(pair_counts, key=pair_counts.get)
        failures.append(f"curves {bad} intersect {worst} > 2 times")
    # finite valence is structural; record the bound
    valence = max(m.graph.degree(v) for v in m.graph.vertices())
    for v in sorted(_inessential_curves(m)):
        failures.append(f"curve {v} bounds a disc or once-punctured disc")
    return RecipeReport(passes=not failures, failures=tuple(failures),
                        face_census=tuple(sorted(c.k for c in m.corner_cycles)),
                        valence=valence, max_pair_intersections=worst)


def curve_is_essential(m: RectangleComplex, vertex: int) -> bool:
    """False iff the vertex's core curve bounds a disc or once-punctured disc."""
    return vertex not in _inessential_curves(m)


def _inessential_curves(m: RectangleComplex) -> set:
    """Vertices whose core bounds a disc or once-punctured disc (marked
    points count as punctures), from one cut along all cores of a family.
    The cut halves each rectangle; glued halves form slabs with chi = halves
    - glued half-sides + corner cycles, a cycle counting in its first
    corner's slab since no cone point lies on a core.  A core separates iff
    it is a bridge of the graph of halves, gluings and cores; a side's chi is
    then its slabs' sum, as gluing along a circle adds nothing to chi (along
    a window's open core it subtracts one).

    The halves on one side of a core are glued to each other along its
    cylinder into a strip, of chi 0 around a closed core and 1 along an
    open one, so the bridge search runs on strips: the sides of core i are
    slots 2i and 2i + 1, and slot 2i holds the N (for vertical cores E)
    half of each chart-aligned rectangle of the cylinder.  Link i joins
    slots ends[2i] and ends[2i + 1]: links 0..len(cores)-1 are the cores,
    so core i joins its two sides, and the rest are the other family's
    gluings, read off its layouts.  Dart h runs along link h >> 1 to
    ends[h], so adj[x] lists the darts leaving x."""
    out = set()
    for k, layouts, other in ((0, m.h_layouts, m.v_layouts), (1, m.v_layouts, m.h_layouts)):
        cores = list(layouts.values())
        n = 2 * len(cores)
        strip = {}  # edge -> the slot of its N (E) half; its other half's is strip ^ 1
        ends, chi, holes = list(range(n)), [], [0] * n
        for c, lay in enumerate(cores):
            for e, o in zip(lay.edges, lay.orients):
                strip[e] = 2 * c + (o < 0)
            chi += (0, 0) if lay.closed else (0, 1)  # open: 1 each, less 1 for the arc joining them
        for lay in other.values():  # a step leaves e by half o < 0, lands on f's half p > 0
            seq, orients = lay.edges, lay.orients
            after = seq[1:] + seq[:1] if lay.closed else seq[1:]
            for e, o, f, p in zip(seq, orients, after, orients[1:] + orients[:1]):
                x = strip[e] ^ (o < 0)
                ends += (x, strip[f] ^ (p > 0))
                chi[x] -= 1
        for c in m.corner_cycles:
            e, corner = c.corners[0]
            x = strip[e] ^ (corner[k] in "SW")
            chi[x] += 1
            holes[x] += c.puncture or c.marked
        adj = [[] for _ in range(n)]
        for h, x in enumerate(ends):
            adj[x].append(h ^ 1)
        total = (sum(chi), sum(holes))
        rank, via, order, stack = [-1] * n, [-1] * n, [], [-1]
        while stack:  # depth first: every link off the tree joins x to an ancestor
            h = stack.pop()
            x = ends[h] if h >= 0 else 0  # dart -1 enters the root, slot 0
            if rank[x] < 0:
                rank[x], via[x] = len(order), h
                order.append(x)
                stack += adj[x]
        low = rank[:]
        for x in reversed(order[1:]):  # descendants first; the root has no tree link
            i = via[x] >> 1
            lo = low[x]
            for d in adj[x]:
                if d >> 1 != i and rank[ends[d]] < lo:
                    lo = rank[ends[d]]
            p = ends[via[x] ^ 1]
            if lo == rank[x] and i < len(cores):  # core i is a bridge
                lay = cores[i]
                sides = [[chi[x], holes[x]], [total[0] - chi[x], total[1] - holes[x]]]
                sides[x != 2 * i][0] += not lay.closed  # the core is cut, not glued
                if any(c == 1 and h <= 1 for c, h in sides):
                    out.add(lay.vertex)
            if lo < low[p]:
                low[p] = lo
            chi[p] += chi[x]
            holes[p] += holes[x]
    return out
