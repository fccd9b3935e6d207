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
a splice swaps four entries of the table, and the successor maps are read
off the table only when the complex is built.  Nothing adds faces for extra
punctures: each face holds at most one, so a surface with more punctures
than faces raises RecipeError (build_multicurves((0, 5), 1): only 4 faces
for 5 punctures).

One such genus arm absorbs at most two bigons.  When arms alone leave more
bigons than punctures, the general chain is assembled again with a second
move, the handle splice: it swaps two gluings of the assembly itself, which
adds one handle and no squares and merges the faces flanking both gluings,
up to four bigons at once.  While bigons outnumber punctures, a handle
splice takes the place of the next arm whenever it eats more bigons than
the best arm port.  Each one is chosen under the contract: genus up by
exactly one, marked chamber untouched, other faces within FACE_BOUND sides,
opposite curves meeting at most twice.  Outputs that arms alone realize are
unchanged.  For genus <= 5, at most 8 punctures and m <= 10, handle splices
add 51 finite (g, n, m), among them (3, 2, 6) and (3, 4, 8), plus loch-ness
and ladder truncations at m = 6 and 7.  The reachable set has no closed
form; a combination outside it raises RecipeError.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass

from .graphs import BipartiteConfigGraph
from .surfaces import (_END_CORNER, OPPOSITE, RectangleComplex, _components, _config_graph,
                       _glue_axis, build_surface, euler_characteristic, mark_faces,
                       ribbon_from_gluings)

FACE_BOUND = 8


class RecipeError(ValueError):
    """Requested surface/weight combination is not realizable here."""


# ---------------------------------------------------------------------------
# tree normal forms


@dataclass(frozen=True)
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

    def vertices(self) -> set:
        return {self.root} | set(self.parent_map())

    def children(self) -> dict:
        out = {v: [] for v in self.vertices()}
        for c, p in self.parents:
            out[p].append(c)
        return {v: sorted(ch, key=repr) for v, ch in out.items()}

    def degree(self, v) -> int:
        ch = self.children()
        return len(ch[v]) + (0 if v == self.root else 1)

    def leaves(self) -> set:
        ch = self.children()
        return {v for v in self.vertices() if v != self.root and not ch[v]}

    def _validate(self):
        pm = self.parent_map()
        if self.root in pm:
            raise ValueError("root cannot have a parent")
        for c, p in pm.items():
            cur, seen = p, {c}
            while cur != self.root:
                if cur in seen or cur not in pm:
                    raise ValueError(f"vertex {c} is not connected to the root")
                seen.add(cur)
                cur = pm[cur]
        if self.degree(self.root) > 2:
            raise ValueError("root degree must be at most 2")
        leaves = self.leaves()
        for v in self.punctures:
            if v not in leaves:
                raise ValueError(f"puncture mark {v} is not a leaf")
        for v in self.genus_marks:
            if v in leaves:
                raise ValueError(f"genus mark {v} sits on a leaf")
        for v in self.frontier:
            if v not in self.vertices():
                raise ValueError(f"frontier vertex {v} not in the tree")
        bare = leaves - self.punctures - self.frontier
        if bare:
            raise ValueError(f"leaves {sorted(bare, key=repr)} are neither "
                             "punctures nor frontier")

    def _shadowing(self) -> set:
        """Non-root degree-2 vertices (one child) with a descendant that has
        two or more children.  One bottom-up pass: walk up from each
        branching vertex until an ancestor already found."""
        pm = self.parent_map()
        kids = Counter(pm.values())
        above = set()  # vertices with a branching strict descendant
        for w, k in kids.items():
            if k < 2:
                continue
            while w in pm and pm[w] not in above:
                w = pm[w]
                above.add(w)
        return {v for v in above if v != self.root and kids[v] == 1}

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
    kids = {v: 0 for v in verts}
    for v in verts:
        if v:
            kids[v[:-1]] += 1
    leaves = {v for v in verts if v and kids[v] == 0}
    return EndTreeSpec.make("", parents, frontier=leaves, family="induced")


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


@dataclass(frozen=True)
class SurgeredGraph:
    """Plain graph after genus surgery: adjacency plus bookkeeping marks."""

    edges: tuple  # sorted pairs
    punctures: frozenset
    frontier: frozenset
    triangles: int

    def vertices(self) -> set:
        return {v for e in self.edges for v in e}

    def genus(self) -> int:
        v = len(self.vertices())
        return len(self.edges) - v + 1 if v else 0


def surgery(t: EndTreeSpec, marks=None) -> SurgeredGraph:
    """Replace each marked vertex by a triangle (one handle apiece).

    A degree-3 vertex loses its two descendant edges and gains the triangle
    v, v'_*, v''_* re-routing them; a degree-2 vertex splits its descendant
    edge through the triangle.  Leaves cannot be marked.
    """
    marks = t.genus_marks if marks is None else frozenset(marks)
    leaves = t.leaves()
    for v in marks:
        if v in leaves:
            raise ValueError(f"genus mark {v} is a leaf")
        if v not in t.vertices():
            raise ValueError(f"genus mark {v} not in the tree")
    edges = set()
    pm = t.parent_map()
    for c, p in pm.items():
        edges.add(tuple(sorted((repr(c), repr(p)))))
    triangles = 0
    ch = t.children()
    for v in sorted(marks, key=repr):
        kids = sorted(ch[v], key=repr)
        va, vb = f"{v!r}*a", f"{v!r}*b"
        if len(kids) == 2:
            c1, c2 = kids
            edges.discard(tuple(sorted((repr(v), repr(c1)))))
            edges.discard(tuple(sorted((repr(v), repr(c2)))))
            edges |= {tuple(sorted(e)) for e in
                      ((repr(v), va), (repr(v), vb), (va, repr(c1)),
                       (vb, repr(c2)), (va, vb))}
        elif len(kids) == 1:
            c1 = kids[0]
            edges.discard(tuple(sorted((repr(v), repr(c1)))))
            edges |= {tuple(sorted(e)) for e in
                      ((repr(v), va), (repr(v), vb), (va, repr(c1)), (va, vb))}
        else:
            raise ValueError(f"marked vertex {v} has {len(kids)} descendants; "
                             "only degree 2 and 3 are supported")
        triangles += 1
    return SurgeredGraph(edges=tuple(sorted(edges)),
                         punctures=frozenset(repr(v) for v in t.punctures),
                         frontier=frozenset(repr(v) for v in t.frontier),
                         triangles=triangles)


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
    entries; the successor maps are read off the table once, by build.
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
            self.gluings.update(_glue_axis(_components(mapping, mapping), mapping, flips, axis)[0])
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

    def build(self) -> RectangleComplex:
        squares = range(self.squares)
        ribbon = ribbon_from_gluings(squares, self.gluings)
        return build_surface(_config_graph(ribbon.h_map(), ribbon.v_map(), squares), ribbon)


def _flanking(m: RectangleComplex) -> dict:
    """One key (edge, side) per gluing -> (face at lo end, face at hi end)."""
    out = {}
    seen = set()
    for (e, side), (e2, side2, _) in m.gluings.items():
        pair = frozenset(((e, side), (e2, side2)))
        if pair in seen:
            continue
        seen.add(pair)
        lo = m.corner_index[(e, _END_CORNER[(side, "lo")])]
        hi = m.corner_index[(e, _END_CORNER[(side, "hi")])]
        out[(e, side)] = (lo, hi)
    return out


def _face_sizes(m: RectangleComplex) -> dict:
    return {c.index: c.k for c in m.corner_cycles}


def _bigons(sizes: dict, marked: int) -> int:
    """Two-sided faces other than the marked chamber."""
    return sum(1 for idx, k in sizes.items() if k == 2 and idx != marked)


def _find_port(m: RectangleComplex, marked_token, max_flank: int) -> tuple:
    """Best arrow for a splice in the built assembly m: flanked by two
    distinct faces of size at most max_flank, neither the marked chamber;
    ports eating more bigon faces are preferred, then smaller flanks.
    Returns (arrow, bigons eaten) or None."""
    fl = _flanking(m)
    sizes = _face_sizes(m)
    marked = _cycle_index_of(m, marked_token)
    best = None
    for arrow in sorted(fl):
        lo, hi = fl[arrow]
        if lo == hi or marked in (lo, hi):
            continue
        if sizes[lo] > max_flank or sizes[hi] > max_flank:
            continue
        eaten = (sizes[lo] == 2) + (sizes[hi] == 2)
        key = (-eaten, sizes[lo] + sizes[hi], arrow)
        if best is None or key < best:
            best = key
    return (best[2], -best[0]) if best else None


def _find_handle(asm: _Assembly, m: RectangleComplex, marked_token) -> tuple:
    """Best self-splice: two gluings of the assembly swapped against each
    other, adding one handle and no squares.  Legal when it raises the genus
    by exactly one, leaves the marked chamber alone, keeps every other face
    within FACE_BOUND and every pair of opposite curves meeting at most
    twice.  Prefers the move eating the most bigon faces, then the one whose
    largest face is smallest.  m is the assembly as built.  Returns (port
    pair, bigons eaten) or None."""
    fl = _flanking(m)
    sizes = _face_sizes(m)
    marked = _cycle_index_of(m, marked_token)
    chi = euler_characteristic(m)
    bigons = _bigons(sizes, marked)
    arrows = [a for a in sorted(fl) if marked not in fl[a]]
    best = None
    for k, a in enumerate(arrows):
        for b in arrows[k + 1:]:
            if (a[1] in ("E", "W")) != (b[1] in ("E", "W")):
                continue
            old = asm.splice(a, b)
            try:
                mm = asm.build()
            except ValueError:  # the swap cut the surface in two
                continue
            finally:
                asm.gluings.update(old)
            szs = _face_sizes(mm)
            if euler_characteristic(mm) != chi - 2:
                continue
            new_marked = _cycle_index_of(mm, marked_token)
            rest = [k2 for idx, k2 in szs.items() if idx != new_marked]
            if szs[new_marked] != sizes[marked] or max(rest) > FACE_BOUND:
                continue
            if max(_pair_meetings(mm.graph).values()) > 2:
                continue
            eaten = bigons - rest.count(2)
            key = (-eaten, max(rest), a, b)
            if best is None or key < best:
                best = key
    return ((best[2], best[3]), -best[0]) if best else None


def _pair_meetings(graph: BipartiteConfigGraph) -> dict:
    """(i, j) -> number of points where curves i and j meet."""
    counts = {}
    for _, i, j in graph.edges:
        counts[(i, j)] = counts.get((i, j), 0) + 1
    return counts


def _cycle_index_of(m: RectangleComplex, token) -> int:
    if token not in m.corner_index:
        raise RecipeError(f"corner {token} lost during assembly")
    return m.corner_index[token]


def _marked_face_index(m: RectangleComplex, p_squares) -> int:
    """The p-chamber: the largest face whose corners live on the p-block."""
    cands = [c for c in m.corner_cycles
             if all(e in p_squares for e, _ in c.corners)]
    if not cands:
        cands = list(m.corner_cycles)
    return max(cands, key=lambda c: (c.k, -c.index)).index


@dataclass(frozen=True)
class CurveRecipeOutput:
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
    order = sorted((idx for idx in sizes if idx != marked_idx),
                   key=lambda idx: (sizes[idx] != 2, -sizes[idx], idx))
    bigons = [idx for idx in order if sizes[idx] == 2]
    flagged = bigons + [idx for idx in order if sizes[idx] != 2][: n - len(bigons)]
    if len(flagged) < n:
        if len(flagged) == n - 1:
            flagged.append(marked_idx)
        else:
            raise RecipeError(f"{variant}: not enough faces for {n} punctures")
    # truncated ends sit on the largest flagged faces away from p
    end_pool = sorted((idx for idx in flagged if idx != marked_idx),
                      key=lambda idx: (-sizes[idx], idx))
    if len(end_pool) < ends:
        raise RecipeError(f"{variant}: not enough faces for {ends} ends")
    cycles = complex_.corner_cycles
    complex_ = mark_faces(complex_, [cycles[i].corners[0] for i in flagged],
                          cycles[marked_idx].corners[0])
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
    elif name in _P_BLOCKS:
        block, g0, standalone = _P_BLOCKS[name]
    else:
        raise RecipeError(f"unknown block {name}")
    asm.add(block)
    p_squares = range(asm.squares)
    if genus < g0:
        raise RecipeError(f"{name} block carries genus {g0} > requested {genus}")
    if standalone and genus > g0:
        raise RecipeError(f"{name} block has no splice ports to grow genus")

    complex_ = asm.build()  # rebuilt after every arm and handle splice
    marked_token = complex_.corner_cycles[_marked_face_index(complex_, p_squares)].corners[0]

    genus_needed = genus - g0
    while genus_needed > 0:
        found = _find_port(complex_, marked_token, max_flank=4)
        excess = _bigons(_face_sizes(complex_), _cycle_index_of(complex_, marked_token)) - n
        # a handle splice takes the place of the next arm when it eats more
        # bigons than the best arm port can (an arm eats at most two)
        if absorb and excess > 0:
            handle = _find_handle(asm, complex_, marked_token)
            if handle is not None and handle[1] > (found[1] if found else 0):
                asm.splice(*handle[0])
                complex_ = asm.build()
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
        complex_ = asm.build()
        genus_needed -= 1

    sizes = _face_sizes(complex_)
    if any(k > max(FACE_BOUND, 2 * m) for k in sizes.values()):
        raise RecipeError(f"{name}: face bound exceeded: {sorted(sizes.values())}")
    marked_idx = _cycle_index_of(complex_, marked_token)
    if sizes[marked_idx] != 2 * m:
        raise RecipeError(f"{name}: marked chamber has {sizes[marked_idx]} "
                          f"sides, wanted {2 * m}")
    bigons = _bigons(sizes, marked_idx)
    if bigons > n:
        raise RecipeError(f"{name}: {bigons} bigon faces exceed {n} punctures")
    if n > len(sizes):  # every face can hold one puncture, p's included
        raise RecipeError(f"{name}: only {len(sizes)} faces for {n} punctures")
    chi = euler_characteristic(complex_)
    if chi != 2 - 2 * genus:
        raise RecipeError(f"{name}: assembled genus {(2 - chi) // 2} != {genus}")
    return sizes, marked_idx, complex_


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class RecipeReport:
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
    a window's open core it subtracts one)."""
    out = set()
    for k, cut, layouts in ((0, ("N", "S"), m.h_layouts), (1, ("E", "W"), m.v_layouts)):
        adj = {(e, c): [] for e in m.edges for c in cut}  # halves, named by a side
        chi, holes = dict.fromkeys(adj, 1), dict.fromkeys(adj, 0)
        links = [((lay.edges[0], cut[0]), (lay.edges[0], cut[1]), v)  # cores
                 for v, lay in layouts.items()]
        for (e, s), (e2, s2, rev) in m.gluings.items():  # like or crossed halves
            if (e, s) < (e2, s2):
                links += [((e, s), (e2, s2), None)] if s in cut else [
                    ((e, c), (e2, OPPOSITE[c] if rev else c), None) for c in cut]
        for i, (a, b, v) in enumerate(links):
            chi[a] -= v is None or not layouts[v].closed  # a gluing, or an open core
            adj[a].append((b, i))
            adj[b].append((a, i))
        for c in m.corner_cycles:
            x = (c.corners[0][0], c.corners[0][1][k])
            chi[x] += 1
            holes[x] += c.puncture or c.marked
        total = (sum(chi.values()), sum(holes.values()))
        rank, tree, stack = {}, {}, [(next(iter(adj)), None, None)]
        while stack:  # depth first: every link off the tree joins x to an ancestor
            x, p, i = stack.pop()
            if x not in rank:
                rank[x], tree[x] = len(rank), (p, i)
                stack += [(y, x, j) for y, j in adj[x]]
        low = dict(rank)
        for x in list(rank)[:0:-1]:  # descendants first; the root has no tree link
            p, i = tree[x]
            low[x] = min([low[x]] + [rank[y] for y, j in adj[x] if j != i])
            a, _, v = links[i]
            if low[x] == rank[x] and v is not None:  # core v is a bridge
                sides = [[chi[x], holes[x]], [total[0] - chi[x], total[1] - holes[x]]]
                sides[a != x][0] += not layouts[v].closed  # v is cut, not glued
                if any(c == 1 and h <= 1 for c, h in sides):
                    out.add(v)
            low[p] = min(low[p], low[x])
            chi[p] += chi[x]
            holes[p] += holes[x]
    return out
