"""Rectangle complexes: flat surfaces glued from one rectangle per edge.

Each edge e of a configuration graph carries a rectangle whose width is the
value of the vertex function at the J-endpoint and whose height is the value
at the I-endpoint.  Ribbon data prescribes, for every curve, the cyclic
order in which its rectangles are crossed; flip flags mark where the gluing
is the half-translation z -> -z + c instead of a translation.

Sizes match by construction: every rectangle of the cylinder over curve v
has the value at v as its transverse side, so the cylinder has one
transverse size all along it, and two sides glued along it have the same
length.  Nothing is compared with a tolerance.

Internally the ribbon permutations are unrolled into an explicit side-gluing
table.  Walking a sigma_h cycle keeps a chart orientation: a flipped arrow
lands in a rectangle whose chart is rotated by pi relative to the cylinder,
so the gluing pairs same-letter sides (E-E, W-W) and reflects the transverse
coordinate, while unflipped arrows pair opposite sides (E-W) by translation.
A cycle with an odd number of flips would force a fixed point of z -> -z + c
in the cylinder interior and is rejected.

Cone points are corner cycles: the quarter-neighbourhoods of rectangle
corners, chained counterclockwise through the gluings.  A cycle of k
quarters is a cone point of angle k*pi/2.  Gluings missing from a window
truncation leave frontier sides; corner chains touching them are reported
as truncated instead of closed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

from .graphs import BipartiteConfigGraph, HarmonicAssignment

SIDES = ("E", "W", "N", "S")
OPPOSITE = {"E": "W", "W": "E", "N": "S", "S": "N"}
CORNERS = ("SW", "SE", "NE", "NW")
OPPOSITE_CORNER = {"SW": "NE", "NE": "SW", "SE": "NW", "NW": "SE"}

# side + end -> corner at that end (lo = small coordinate along the side)
_END_CORNER = {
    ("E", "lo"): "SE", ("E", "hi"): "NE",
    ("W", "lo"): "SW", ("W", "hi"): "NW",
    ("N", "lo"): "NW", ("N", "hi"): "NE",
    ("S", "lo"): "SW", ("S", "hi"): "SE",
}
# counterclockwise walk around a vertex: a quarter is left along one side,
# at one end of it
_CCW_EXIT = {"SW": ("W", "lo"), "SE": ("S", "hi"), "NE": ("E", "hi"), "NW": ("N", "lo")}
# (corner, side landed on, reversed) -> corner of the quarter the walk lands in
_CCW_LAND = {(c, side2, rev): _END_CORNER[(side2, {"lo": "hi", "hi": "lo"}[end] if rev else end)]
             for c, (_, end) in _CCW_EXIT.items() for side2 in SIDES for rev in (False, True)}


class RibbonError(ValueError):
    """Ribbon data inconsistent with the graph or with flat geometry.

    record and edge, when set, name the successor map ("sigma_h" or
    "sigma_v") and the first edge of its component at fault, so a parser
    can point at the record that named that edge.
    """

    def __init__(self, message: str, record: str | None = None, edge: int | None = None):
        super().__init__(message)
        self.record = record
        self.edge = edge


@dataclass(frozen=True)
class RibbonData:
    """Successor maps for the horizontal and vertical cylinder traversals.

    sigma_h maps an edge to the next rectangle eastward inside its
    horizontal cylinder, sigma_v northward inside its vertical one.  Both
    may be partial on window truncations (missing arrows leave frontier
    sides).  flips holds arrows that reverse chart orientation, keyed by
    (source edge, "E") for horizontal and (source edge, "N") for vertical.
    """

    sigma_h: tuple  # ((edge, successor), ...) sorted
    sigma_v: tuple
    flips: frozenset

    @staticmethod
    def make(sigma_h, sigma_v, flips=()) -> "RibbonData":
        sh = tuple(sorted((int(a), int(b)) for a, b in dict(sigma_h).items()))
        sv = tuple(sorted((int(a), int(b)) for a, b in dict(sigma_v).items()))
        fl = frozenset((int(e), str(s)) for e, s in flips)
        for e, s in fl:
            if s not in ("E", "N"):
                raise RibbonError(f"flip side must be E or N, got {s!r}")
        for name, entries in (("sigma_h", sh), ("sigma_v", sv)):
            targets = [b for _, b in entries]
            if len(set(targets)) != len(targets):
                raise RibbonError(f"{name} is not injective")
        return RibbonData(sh, sv, fl)

    def h_map(self) -> dict:
        return dict(self.sigma_h)

    def v_map(self) -> dict:
        return dict(self.sigma_v)


@dataclass(frozen=True)
class CornerCycle:
    """A cone point: the cyclic chain of rectangle quarters around it."""

    index: int
    corners: tuple  # ((edge, corner), ...) in ccw order
    truncated: bool = False
    puncture: bool = False
    marked: bool = False

    @property
    def k(self) -> int:
        return len(self.corners)

    def angle(self) -> float:
        return self.k * math.pi / 2


@dataclass(frozen=True)
class CylinderLayout:
    """Unrolled coordinates of one cylinder: rectangles, orientations, offsets."""

    vertex: int
    edges: tuple
    orients: tuple  # +1 chart-aligned, -1 chart rotated by pi
    offsets: tuple  # start of each rectangle along the cylinder
    length: object  # total length along the cylinder (circumference if closed)
    transverse: object  # common transverse dimension (height for horizontal)
    closed: bool


@dataclass(frozen=True)
class Cylinder:
    direction: str  # "horizontal" | "vertical"
    vertex: int
    edges: tuple
    circumference: object
    height: object
    truncated: bool

    @property
    def modulus(self):
        return self.height / self.circumference


@dataclass(frozen=True)
class RectangleComplex:
    """Immutable flat surface assembled from rectangles."""

    graph: BipartiteConfigGraph
    ribbon: RibbonData
    lam: object
    width: dict
    height: dict
    gluings: dict  # (edge, side) -> (edge, side, reversed); symmetric
    frontier: frozenset
    corner_cycles: tuple
    h_layouts: dict
    v_layouts: dict
    harmonic: HarmonicAssignment = None
    # (edge, corner) -> index of the corner cycle holding that quarter
    corner_index: dict = field(default=None, compare=False, repr=False)

    @property
    def edges(self) -> tuple:
        return tuple(e for e, _, _ in self.graph.edges)


def _components(mapping: dict, universe) -> list:
    """Cycle/path decomposition of a partial injective map.

    Returns (sequence, closed) pairs covering all of universe, paths first;
    paths start at elements without a preimage, cycles at their first
    element.  universe is walked in the order given, and every caller
    passes it ascending, so each cycle is anchored at its minimum.
    """
    targets = set(mapping.values())
    seen = set()
    comps = []
    for start in universe:  # path starts
        if start in targets:
            continue
        seq = [start]
        seen.add(start)
        cur = start
        while cur in mapping:
            cur = mapping[cur]
            if cur in seen:
                raise RibbonError(f"successor map re-enters {cur} from a path")
            seq.append(cur)
            seen.add(cur)
        comps.append((seq, False))
    for start in universe:  # remaining: cycles
        if start in seen:
            continue
        seq = [start]
        seen.add(start)
        cur = mapping.get(start)
        while cur is not None and cur != start:
            if cur in seen:
                raise RibbonError(f"successor map re-enters {cur} from a cycle")
            seq.append(cur)
            seen.add(cur)
            cur = mapping.get(cur)
        if cur != start:
            raise RibbonError(f"component starting at {start} neither closes nor ends")
        comps.append((seq, True))
    return comps


def _config_graph(sigma_h: dict, sigma_v: dict, edges,
                  valence_bound=None) -> BipartiteConfigGraph:
    """Configuration graph read off two successor maps: one I-vertex (even
    id) per sigma_h component, one J-vertex (odd id) per sigma_v component,
    one graph edge per entry of edges.  valence_bound defaults to the
    largest degree."""
    ends = {e: [None, None] for e in edges}
    for side, mapping in enumerate((sigma_h, sigma_v)):
        for k, (seq, _) in enumerate(_components(mapping, edges)):
            for e in seq:
                ends[e][side] = 2 * k + side
    if valence_bound is None:
        valence_bound = max(Counter(v for ij in ends.values() for v in ij).values())
    return BipartiteConfigGraph.make({i for i, _ in ends.values()}, {j for _, j in ends.values()},
                                     ends, valence_bound)


def _glue_axis(comps, mapping, flips, axis) -> tuple:
    """Side gluings of one axis's arrows, walked component by component.

    The walk keeps a chart orientation, +1 chart-aligned or -1 rotated by
    pi: an arrow leaves through east (north for axis "v") and lands on west
    (south) in the aligned chart, and a flipped arrow turns the orientation
    over, pairing same-letter sides.  Returns the gluings and, per
    component, its orientations and the one the walk ends with (+1 again
    exactly when a cycle has an even number of flips).
    """
    src_side, tgt_side = ("E", "W") if axis == "h" else ("N", "S")
    gluings = {}
    walks = []
    for seq, _ in comps:
        o = 1
        orients = []
        for e in seq:
            orients.append(o)
            if e in mapping:
                nxt = mapping[e]
                flip = (e, src_side) in flips
                o2 = -o if flip else o
                side_a = src_side if o == 1 else tgt_side
                side_b = tgt_side if o2 == 1 else src_side
                gluings[(e, side_a)] = (nxt, side_b, flip)
                gluings[(nxt, side_b)] = (e, side_a, flip)
                o = o2
        walks.append((orients, o))
    return gluings, walks


def _unroll_axis(edges, mapping, flips, fiber_of, size, values, axis):
    """Walk one axis of the ribbon; returns (gluings, frontier, layouts).

    axis "h": arrows leave through intrinsic east, land on intrinsic west,
    size holds the widths along the cylinder.  axis "v": north/south,
    heights.  Every edge the ribbon names must be one of edges.

    Each component lies in the fibre over one curve v, so each of its
    rectangles has values[v] as its other side: that is the cylinder's
    transverse size, and the sides glued along it match.
    """
    src_side = "E" if axis == "h" else "N"
    record = f"sigma_{axis}"
    # the components partition edges; with one fiber per component and one
    # component per fiber, each component covers its fiber exactly
    by_vertex = {}
    for seq, closed in _components(mapping, edges):
        verts = {fiber_of(e) for e in seq}
        if len(verts) != 1:
            raise RibbonError(f"{record} component {seq} mixes fibers {sorted(verts)}",
                              record, seq[0])
        v = verts.pop()
        if v in by_vertex:
            raise RibbonError(f"vertex {v} split across several {record} components",
                              record, seq[0])
        by_vertex[v] = (seq, closed)

    vertices = sorted(by_vertex)
    comps = [by_vertex[v] for v in vertices]
    gluings, walks = _glue_axis(comps, mapping, flips, axis)
    frontier = set()
    layouts = {}
    for v, (seq, closed), (orients, o) in zip(vertices, comps, walks):
        offsets = []
        pos = 0
        for e in seq:
            offsets.append(pos)
            pos = pos + size[e]
        if closed and o != 1:
            raise RibbonError(f"{record} cycle at vertex {v} has an odd number of flips",
                              record, seq[0])
        if not closed:  # a path starts chart-aligned
            frontier.add((seq[0], OPPOSITE[src_side]))
            frontier.add((seq[-1], src_side if o == 1 else OPPOSITE[src_side]))
        layouts[v] = CylinderLayout(vertex=v, edges=tuple(seq), orients=tuple(orients),
                                    offsets=tuple(offsets), length=pos,
                                    transverse=values[v], closed=closed)
    return gluings, frontier, layouts


def _corner_chains(edges, gluings):
    """Counterclockwise corner chains as (quarters, closed), in ascending
    order of their first quarter; a chain that reaches an unglued (frontier)
    side is open.  edges must be ascending."""
    succ = {}
    for e in edges:
        for c, (side, _) in _CCW_EXIT.items():
            if (e, side) in gluings:
                e2, side2, rev = gluings[(e, side)]
                succ[(e, c)] = (e2, _CCW_LAND[(c, side2, rev)])
    corners = sorted(CORNERS)
    return sorted(_components(succ, [(e, c) for e in edges for c in corners]),
                  key=lambda item: item[0][0])


def ribbon_from_gluings(edges, gluings) -> RibbonData:
    """Reconstruct successor maps and flip flags from a side-gluing table.

    Inverse of the cycle walk in build_surface, for complete complexes.  A
    walk state (edge, side it leaves by) crosses that gluing and leaves the
    next rectangle by the far side.  Each curve gives two state cycles, one
    per direction; the one anchored at (its minimal edge, E or N) is the
    chart-aligned walk, and a same-letter gluing (E-E, W-W, ...) on it
    records a flip on the outgoing arrow.  Side letters are kept, so gluing
    the returned ribbon again (as _glue_axis does) gives back the same table.
    """
    sides = sorted(SIDES)
    states = [(e, side) for e in sorted(edges) for side in sides]
    succ = {}
    for state in states:
        if state not in gluings:
            raise ValueError("ribbon reconstruction needs every side glued")
        e2, side2, _ = gluings[state]
        succ[state] = (e2, OPPOSITE[side2])
    sigma = {"E": {}, "N": {}}  # keyed by the side an aligned walk leaves by
    flips = set()
    for seq, _ in _components(succ, states):
        axis = seq[0][1]
        if axis not in sigma:  # a curve walked backwards
            continue
        for e, side in seq:
            if e in sigma[axis]:  # turned back at a side glued to itself
                raise RibbonError(f"one curve crosses edge {e} twice")
            e2, side2, _ = gluings[(e, side)]
            sigma[axis][e] = e2
            if side2 == side:
                flips.add((e, axis))
    return RibbonData.make(sigma["E"], sigma["N"], flips)


def build_surface(graph: BipartiteConfigGraph, ribbon: RibbonData,
                  harmonic: HarmonicAssignment = None, *, values=None) -> RectangleComplex:
    """Assemble the rectangle complex over a graph with ribbon data.

    Rectangle e gets width values[j] and height values[i] for its endpoints
    (i, j); values defaults to the harmonic assignment, or to all-1 squares
    when neither is given (combinatorial census builds).  No corner cycle
    is punctured or marked; mark_faces sets those flags on the result.
    """
    if values is None:
        values = harmonic.values if harmonic is not None else {v: 1 for v in graph.vertices()}
    for v in graph.vertices():
        if v not in values:
            raise ValueError(f"no value for vertex {v}")
        if not values[v] > 0:
            raise ValueError(f"value at vertex {v} must be positive")
    emap = graph.edge_map()
    edges = sorted(emap)
    width = {e: values[emap[e][1]] for e in edges}
    height = {e: values[emap[e][0]] for e in edges}
    for name, named in (("sigma_h", {e for arrow in ribbon.sigma_h for e in arrow}),
                        ("sigma_v", {e for arrow in ribbon.sigma_v for e in arrow}),
                        ("flips", {e for e, _ in ribbon.flips})):
        unknown = named - emap.keys()
        if unknown:
            raise RibbonError(f"{name} names edges {sorted(unknown)} that are not in the graph")
    gl_h, fr_h, lay_h = _unroll_axis(
        edges, ribbon.h_map(), ribbon.flips, lambda e: emap[e][0], width, values, "h")
    gl_v, fr_v, lay_v = _unroll_axis(
        edges, ribbon.v_map(), ribbon.flips, lambda e: emap[e][1], height, values, "v")
    gluings = {**gl_h, **gl_v}
    frontier = frozenset(fr_h | fr_v)

    chains = _corner_chains(edges, gluings)
    cycles = []
    corner_index = {}
    for idx, (chain, closed) in enumerate(chains):
        cycles.append(CornerCycle(index=idx, corners=tuple(chain), truncated=not closed))
        corner_index.update(dict.fromkeys(chain, idx))

    lam = harmonic.lam if harmonic is not None else None
    return RectangleComplex(graph=graph, ribbon=ribbon, lam=lam,
                            width=width, height=height, gluings=gluings,
                            frontier=frontier, corner_cycles=tuple(cycles),
                            h_layouts=lay_h, v_layouts=lay_v, harmonic=harmonic,
                            corner_index=corner_index)


def mark_faces(m: RectangleComplex, punctures=(), marked=None) -> RectangleComplex:
    """m with exactly these corner cycles punctured and marked.

    punctures and marked select cycles by any (edge, corner) token they
    contain; every other cycle loses both flags.
    """
    def resolve(token):
        token = tuple(token)
        if token not in m.corner_index:
            raise ValueError(f"no corner cycle contains {token}")
        return m.corner_index[token]

    punctured = {resolve(token) for token in punctures}
    marked = None if marked is None else resolve(marked)
    return replace(m, corner_cycles=tuple(
        replace(c, puncture=c.index in punctured, marked=c.index == marked)
        for c in m.corner_cycles))


def cylinders(m: RectangleComplex, direction: str) -> list:
    """Maximal cylinders in one direction, one per curve of that family."""
    if direction not in ("horizontal", "vertical"):
        raise ValueError(f"direction must be horizontal or vertical, got {direction!r}")
    layouts = m.h_layouts if direction == "horizontal" else m.v_layouts
    out = []
    for v in sorted(layouts):
        lay = layouts[v]
        out.append(Cylinder(direction=direction, vertex=v, edges=lay.edges,
                            circumference=lay.length, height=lay.transverse,
                            truncated=not lay.closed))
    return out


def cone_points(m: RectangleComplex) -> list:
    """(cycle, angle, puncture flag, dual valence k) per cone point; the
    angle is k*pi/2 radians for a cycle of k quarters."""
    return [(c, c.angle(), c.puncture, c.k) for c in m.corner_cycles]


def euler_characteristic(m: RectangleComplex) -> int:
    """V - E + F of the cell structure; complete complexes only."""
    if m.frontier:
        raise ValueError("Euler characteristic of a window truncation is undefined")
    return len(m.corner_cycles) - len(m.edges)


def is_translation(m: RectangleComplex) -> bool:
    """True iff chart rotations can remove every orientation-reversing gluing."""
    edges = m.edges
    color = {}
    for start in edges:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            e = stack.pop()
            for side in SIDES:
                if (e, side) not in m.gluings:
                    continue
                e2, _, rev = m.gluings[(e, side)]
                want = color[e] ^ int(rev)
                if e2 not in color:
                    color[e2] = want
                    stack.append(e2)
                elif color[e2] != want:
                    return False
    return True


def orientation_double_cover(m: RectangleComplex) -> RectangleComplex:
    """Translation-surface double cover of a genuinely half-translation complex.

    Sheet 1 of every rectangle carries the pi-rotated chart, so each lifted
    gluing is a translation.  Cone points of angle n*pi lift to two copies
    for n even and to a single cone of angle 2*n*pi for n odd.
    """
    if is_translation(m):
        raise ValueError("complex is already a translation surface; the "
                         "orientation double cover would be two disjoint copies")
    if m.frontier:
        raise ValueError("double cover of a window truncation is not supported")
    base_edges = list(m.edges)
    cover_id = {(e, s): 2 * k + s for k, e in enumerate(base_edges) for s in (0, 1)}

    lifted = {}
    for (e, side), (e2, side2, rev) in m.gluings.items():
        for s in (0, 1):
            s2 = s ^ int(rev)
            side_a = side if s == 0 else OPPOSITE[side]
            side_b = side2 if s2 == 0 else OPPOSITE[side2]
            lifted[(cover_id[(e, s)], side_a)] = (cover_id[(e2, s2)], side_b, False)

    cover_edges = sorted(cover_id.values())
    ribbon = ribbon_from_gluings(cover_edges, lifted)
    graph = _config_graph(ribbon.h_map(), ribbon.v_map(), cover_edges, m.graph.valence_bound)
    back = {ce: es for es, ce in cover_id.items()}
    values = {}
    for ce, (i, j) in graph.edge_map().items():
        e, _ = back[ce]
        values[i] = m.height[e]
        values[j] = m.width[e]
    harmonic = None
    if m.harmonic is not None:
        harmonic = HarmonicAssignment(lam=m.lam, values=values)

    # project corner marks: sheet-1 corners sit at the rotated position
    punctures = []
    marked = None
    for cyc in m.corner_cycles:
        if not (cyc.puncture or cyc.marked):
            continue
        e0, c0 = cyc.corners[0]
        for s in (0, 1):
            c_lift = c0 if s == 0 else OPPOSITE_CORNER[c0]
            token = (cover_id[(e0, s)], c_lift)
            if cyc.puncture:
                punctures.append(token)
            if cyc.marked:
                marked = token if marked is None else marked
    return mark_faces(build_surface(graph, ribbon, harmonic=harmonic, values=values),
                      punctures, marked)


# -- stock complexes -------------------------------------------------------

def square_torus(side=1) -> RectangleComplex:
    """One unit square with opposite sides identified."""
    g = BipartiteConfigGraph.make([0], [1], {0: (0, 1)}, 2)
    ribbon = RibbonData.make({0: 0}, {0: 0})
    h = HarmonicAssignment(lam=1, values={0: side, 1: side})
    return build_surface(g, ribbon, h)


def staircase_complex(lo: int, hi: int, lam, exact: bool = True) -> RectangleComplex:
    """Window of the infinite staircase built over the ladder graph.

    Rectangles sit over the edges n -- n+1 for lo <= n < hi; interior
    curves close into two-rectangle cylinders, the two extreme curves are
    window-truncated.  Heights follow the ladder's harmonic function for
    the given lam (exact quadratic arithmetic when lam is rational).
    """
    from .graphs import LadderFamily, harmonic_closed_form

    fam = LadderFamily(lo, hi)
    g = fam.graph()
    h = harmonic_closed_form(fam, lam)
    if not exact:
        h = HarmonicAssignment(lam=float(h.lam), values={v: float(x) for v, x in h.values.items()})
    sigma_h = {}
    sigma_v = {}
    for v in range(lo, hi + 1):
        fiber = [e for e in (v - 1, v) if lo <= e < hi]
        if len(fiber) == 2:
            target = sigma_h if v % 2 == 0 else sigma_v
            target[fiber[0]] = fiber[1]
            target[fiber[1]] = fiber[0]
    ribbon = RibbonData.make(sigma_h, sigma_v)
    return build_surface(g, ribbon, h)
