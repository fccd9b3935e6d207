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

The complex is stored as its cylinders: each ribbon component is unrolled
once into a cylinder layout, and the side-gluing table is read off the
layouts when it is first asked for.  Walking a sigma_h cycle keeps a chart
orientation: a flipped arrow lands in a rectangle whose chart is rotated by
pi relative to the cylinder, so the gluing pairs same-letter sides (E-E,
W-W) and reflects the transverse coordinate, while unflipped arrows pair
opposite sides (E-W) by translation.  A cycle with an odd number of flips
would force a fixed point of z -> -z + c in the cylinder interior and is
rejected.

Cone points are corner cycles: the quarter-neighbourhoods of rectangle
corners, chained counterclockwise through the gluings.  A cycle of k
quarters is a cone point of angle k*pi/2.  Gluings missing from a window
truncation leave frontier sides; corner chains touching them are reported
as truncated instead of closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .graphs import (BipartiteConfigGraph, HarmonicAssignment, LadderFamily,
                     _components as _graph_components, harmonic_closed_form)
from .quadfield import _equal

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
# a rectangle's quarters in slot order; per side, the slot of the quarter
# the walk leaves by it and that quarter's landing row: side landed on ->
# (slot of the quarter landed in, the same across a reversed gluing)
_QUARTERS = sorted(CORNERS)
_CCW_ROWS = {side: (_QUARTERS.index(corner),
                    {side2: (_QUARTERS.index(_END_CORNER[(side2, end)]),
                             _QUARTERS.index(_END_CORNER[(side2, {"lo": "hi", "hi": "lo"}[end])]))
                     for side2 in SIDES})
             for corner, (side, end) in _CCW_EXIT.items()}
# per axis and chart orientation (+1 chart-aligned, -1 rotated by pi): the
# side an arrow leaves a rectangle by, and the side it lands on
_PORTS = {"h": {1: ("E", "W"), -1: ("W", "E")}, "v": {1: ("N", "S"), -1: ("S", "N")}}
# the arrow rule, per axis: (orientation at the source, at the target) ->
# (side left by, side landed on, reversed); an arrow that turns the
# orientation over pairs same-letter sides and is reversed
_ARROWS = {axis: {(o, o2): (ports[o][0], ports[o2][1], o != o2) for o in (1, -1) for o2 in (1, -1)}
           for axis, ports in _PORTS.items()}


class RibbonError(ValueError):
    """Ribbon data inconsistent with the graph or with flat geometry.

    record and edge, when set, name the successor map ("sigma_h" or
    "sigma_v") and the first edge of its component at fault, or "flip"
    and the flip at fault as (edge, side), so a parser can point at the
    record that named it.
    """

    def __init__(self, message: str, record: str | None = None, edge=None):
        super().__init__(message)
        self.record = record
        self.edge = edge


class RibbonData(NamedTuple):
    """Successor maps for the horizontal and vertical cylinder traversals.

    sigma_h maps an edge to the next rectangle eastward inside its
    horizontal cylinder, sigma_v northward inside its vertical one.  Both
    may be partial on window truncations (missing arrows leave frontier
    sides).  flips holds arrows that reverse chart orientation, keyed by
    (source edge, "E") for horizontal and (source edge, "N") for vertical.
    """

    sigma_h: dict  # edge -> successor, in ascending order of edge
    sigma_v: dict
    flips: frozenset

    @staticmethod
    def make(sigma_h, sigma_v, flips=()) -> "RibbonData":
        sh, sv = dict(sigma_h), dict(sigma_v)
        sh = dict(sorted(zip(map(int, sh), map(int, sh.values()))))
        sv = dict(sorted(zip(map(int, sv), map(int, sv.values()))))
        fl = frozenset((int(e), str(s)) for e, s in flips)
        for e, s in fl:
            if s not in ("E", "N"):
                raise RibbonError(f"flip side must be E or N, got {s!r}")
        for name, mapping in (("sigma_h", sh), ("sigma_v", sv)):
            if len(set(mapping.values())) != len(mapping):
                raise RibbonError(f"{name} is not injective")
        return RibbonData(sh, sv, fl)


class CornerCycle(NamedTuple):
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


class CylinderLayout(NamedTuple):
    """The maximal cylinder over one curve, unrolled: rectangles, orientations, offsets."""

    vertex: int
    edges: tuple
    orients: tuple  # +1 chart-aligned, -1 chart rotated by pi
    offsets: tuple  # start of each rectangle along the cylinder
    length: object  # total length along the cylinder (circumference if closed)
    transverse: object  # common transverse dimension (height for horizontal)
    closed: bool

    @property
    def truncated(self) -> bool:  # cut open by a window truncation
        return not self.closed

    @property
    def modulus(self):
        return self.transverse / self.length


@dataclass(frozen=True)  # not a NamedTuple: its cached_property attributes need a __dict__
class RectangleComplex:
    """Immutable flat surface assembled from rectangles."""

    graph: BipartiteConfigGraph
    ribbon: RibbonData
    width: dict
    height: dict
    corner_cycles: tuple
    h_layouts: dict  # curve -> CylinderLayout, in vertex order
    v_layouts: dict
    harmonic: HarmonicAssignment = None

    @property
    def edges(self) -> tuple:
        return tuple(e for e, _, _ in self.graph.edges)

    @property
    def lam(self):
        """Every closed cylinder has modulus 1/lam; None without harmonic data."""
        return self.harmonic.lam if self.harmonic is not None else None

    @cached_property
    def gluings(self) -> dict:
        """(edge, side) -> (edge, side, reversed), symmetric: the side
        gluings of the layouts' arrows, horizontal curves first, each axis
        in vertex order, each arrow as its source side, then its target
        side.  Read off the layouts on first use and kept on the complex
        (not a field, so outside ==, repr and build time)."""
        gluings = {}
        for axis, layouts in (("h", self.h_layouts), ("v", self.v_layouts)):
            for lay in layouts.values():  # a closed walk ends chart-aligned
                _glue(gluings, lay.edges, lay.orients, 1, lay.closed, axis)
        return gluings

    @cached_property
    def frontier(self) -> frozenset:
        """The (edge, side) pairs with no gluing, left open by a window
        truncation: the side each open layout is entered by at its first
        rectangle and the one it would leave by at its last."""
        ends = set()
        for axis, layouts in (("h", self.h_layouts), ("v", self.v_layouts)):
            ports = _PORTS[axis]
            for lay in layouts.values():
                if not lay.closed:
                    ends.add((lay.edges[0], ports[lay.orients[0]][1]))
                    ends.add((lay.edges[-1], ports[lay.orients[-1]][0]))
        return frozenset(ends)

    @cached_property
    def charts(self) -> dict:
        """The float crossing kernel's table: edge -> (width, height,
        glue_E, glue_W, glue_N, glue_S), side lengths as floats, each glue
        the gluings entry (edge, side, reversed) of that side, or None on a
        frontier side.  Built on first use and kept on the complex (not a
        field, so outside ==, repr and build time)."""
        get = self.gluings.get
        height = self.height
        return {e: (float(w), float(height[e]), get((e, "E")), get((e, "W")), get((e, "N")),
                    get((e, "S")))
                for e, w in self.width.items()}


def _components(succ: list) -> list:
    """Cycle/path decomposition of a partial injective map on the slots
    0..n-1, given as its successor list: succ[k] is the slot after k, or
    -1 where the map is undefined.

    Returns (slots, closed) pairs covering every slot, paths first; paths
    start at slots without a preimage, cycles at their smallest slot, and
    each kind comes in ascending order of its first slot.  Slots are
    marked in bytearrays, so the walk leaves nothing for the collector.
    """
    n = len(succ)
    entered = bytearray(n + 1)  # a -1 successor marks the spare last byte
    for t in succ:
        entered[t] = 1
    seen = bytearray(n)
    comps = []
    # the next unmarked slot is found by bytearray.find, which skips the
    # marked ones without a Python-level step each
    start = entered.find(0, 0, n)
    while start >= 0:  # path starts
        seq = [start]
        seen[start] = 1
        cur = succ[start]
        while cur >= 0:
            if seen[cur]:
                raise RibbonError(f"successor map re-enters {cur} from a path")
            seq.append(cur)
            seen[cur] = 1
            cur = succ[cur]
        comps.append((seq, False))
        start = entered.find(0, start + 1, n)
    # every slot left has a preimage, and none among the path slots, whose
    # successors are path slots: the map permutes what is left, so each walk
    # from here closes without re-entering anything
    start = seen.find(0)
    while start >= 0:
        seq = [start]
        seen[start] = 1
        cur = succ[start]
        while cur != start:
            seq.append(cur)
            seen[cur] = 1
            cur = succ[cur]
        comps.append((seq, True))
        start = seen.find(0, start + 1)
    return comps


def _curves(mapping: dict, edges) -> list:
    """_components of a successor map on edges, each edge numbered by its
    position in edges (ascending); the components come back as edge lists."""
    pos = {e: k for k, e in enumerate(edges)}
    comps = _components([pos[mapping[e]] if e in mapping else -1 for e in edges])
    return [([edges[k] for k in seq], closed) for seq, closed in comps]


def _orient(seq, turns) -> tuple:
    """The orientation walk along the rectangles seq of one cylinder, as
    integer slots or as edges: the chart orientation at each rectangle, +1
    chart-aligned or -1 rotated by pi, and the one the walk ends with (+1
    again after a cycle exactly when it has an even number of flips).  The
    walk starts aligned, and the arrow leaving a rectangle in turns (the
    axis's flipped arrows, by source) turns it over."""
    o = 1
    orients = []
    for k in seq:
        orients.append(o)
        if k in turns:
            o = -o
    return orients, o


def _arrows(seq, orients, end, closed):
    """The arrows of one orientation walk (_orient) over seq, in walk order,
    as (source, target, orientation at the source, at the target); a closed
    walk's last arrow lands on seq[0] with the walk's end orientation.
    _cylinders lists the same arrows inline, a closed walk's last arrow
    first; the quarter successors it writes do not depend on the order."""
    return zip(seq, seq[1:] + seq[:1] if closed else seq[1:], orients, (*orients[1:], end))


def _glue(gluings, seq, orients, end, closed, axis):
    """Enter the side gluings of one orientation walk over the edges seq
    into gluings, each arrow as its source side, then its target side."""
    rule = _ARROWS[axis]
    for e, nxt, o, o2 in _arrows(seq, orients, end, closed):
        side_a, side_b, rev = rule[o, o2]
        gluings[(e, side_a)] = (nxt, side_b, rev)
        gluings[(nxt, side_b)] = (e, side_a, rev)


def _glue_axis(mapping, flips, axis) -> dict:
    """Side gluings of one axis's arrows, walked component by component
    over the edges mapping names, paths first, each kind ascending: the
    orientation walk and arrow rule of build_surface, without its checks."""
    side = _PORTS[axis][1][0]
    turns = {e for e, s in flips if s == side}
    gluings = {}
    for seq, closed in _curves(mapping, sorted({*mapping, *mapping.values()})):
        orients, end = _orient(seq, turns)
        _glue(gluings, seq, orients, end, closed, axis)
    return gluings


def _cylinders(edges, pos, fibre, mapping, flips, axis, size, values, succ) -> dict:
    """Walk one axis of the ribbon once; returns its CylinderLayouts by
    curve, in vertex order, and sets in succ the quarter successors across
    each arrow (quarter s of rectangle edges[k] is slot 4k + s, as in
    _corner_chains).

    edges are ascending, pos numbers them, and fibre[k] is the curve of
    this axis that rectangle edges[k] lies over.  axis "h": arrows leave
    through intrinsic east, land on intrinsic west, size holds the widths
    along the cylinder.  axis "v": north/south, heights.  Every edge the
    ribbon names must be one of edges.

    Each component lies in the fibre over one curve v, so each of its
    rectangles has values[v] as its other side: that is the cylinder's
    transverse size, and the sides glued along it match.  The walk runs
    on slots: the fibre is checked slot by slot, _orient turns at the
    slots of this axis's flipped arrows, and each arrow's two quarter
    successors are written from the links table as the walk reaches it.
    """
    record = f"sigma_{axis}"
    # the components partition the edges; with one fibre per component and
    # one component per fibre, each component covers its fibre exactly
    by_vertex = {}
    for slots, closed in _components([pos[mapping[e]] if e in mapping else -1 for e in edges]):
        v = fibre[slots[0]]
        for k in slots:
            if fibre[k] != v:
                raise RibbonError(f"{record} component {[edges[k] for k in slots]} mixes fibers "
                                  f"{sorted(set(map(fibre.__getitem__, slots)))}",
                                  record, edges[slots[0]])
        if v in by_vertex:
            raise RibbonError(f"vertex {v} split across several {record} components",
                              record, edges[slots[0]])
        by_vertex[v] = (slots, closed)

    # the arrow rule joined with the landing rows: o -> o2 -> (quarter the
    # corner walk leaves the source by, the target quarter it lands in, the
    # same from the target)
    links = {1: {}, -1: {}}
    for (o, o2), (side_a, side_b, rev) in _ARROWS[axis].items():
        (s_a, land_a), (s_b, land_b) = _CCW_ROWS[side_a], _CCW_ROWS[side_b]
        links[o][o2] = (s_a, land_a[side_b][rev], s_b, land_b[side_a][rev])
    side = _PORTS[axis][1][0]
    turns = {pos[e] for e, s in flips if s == side}
    new_layout = tuple.__new__  # a CylinderLayout without the Python-level __new__
    layouts = {}
    for v in sorted(by_vertex):
        slots, closed = by_vertex[v]
        orients, end = _orient(slots, turns)
        seq = tuple(map(edges.__getitem__, slots))
        if closed and end != 1:
            raise RibbonError(f"{record} cycle at vertex {v} has an odd number of flips",
                              record, seq[0])
        # the arrows in walk order, a closed walk's last one (back to the
        # aligned start) first: each sets the quarter successors both ways
        walk = zip(slots, orients)
        k, o = (slots[-1], orients[-1]) if closed else next(walk)
        for k2, o2 in walk:
            s_a, t_a, s_b, t_b = links[o][o2]
            succ[4 * k + s_a] = 4 * k2 + t_a
            succ[4 * k2 + s_b] = 4 * k + t_b
            k, o = k2, o2
        # running sums of the sizes along the cylinder, added in walk order
        ends = list(accumulate(map(size.__getitem__, seq)))
        layouts[v] = new_layout(CylinderLayout, (v, seq, tuple(orients), (0, *ends[:-1]),
                                                 ends[-1], values[v], closed))
    return layouts


def _chains(edges, succ) -> list:
    """The quarter successor list succ (slot 4k + s for quarter
    (edges[k], _QUARTERS[s])) as corner chains (quarters, closed), in
    ascending order of their first quarter; a chain cut by an unglued
    (frontier) side is open."""
    return [([(edges[q >> 2], _QUARTERS[q & 3]) for q in seq], closed)
            for seq, closed in sorted(_components(succ), key=lambda item: item[0][0])]


def _corner_chains(edges, gluings):
    """Counterclockwise corner chains of a side-gluing table, as _chains
    gives them.  edges must be ascending, so that slot order is quarter
    order."""
    first = {e: 4 * k for k, e in enumerate(edges)}  # an edge's first slot
    succ = [-1] * (4 * len(first))
    for (e, side), (e2, side2, rev) in gluings.items():
        s, land = _CCW_ROWS[side]
        succ[first[e] + s] = first[e2] + land[side2][rev]
    return _chains(edges, succ)


def _aligned_walks(edges, gluings) -> list:
    """Each curve's chart-aligned walk over a complete side-gluing table.

    A walk state (edge, side it leaves by) crosses that gluing and leaves
    the next rectangle by the far side.  Each curve gives two state cycles,
    one per direction; the one anchored at (its minimal edge, E or N) is
    the chart-aligned walk, and its states are the sides that build_surface
    keys each gluing by first.  Returns those cycles, ascending by anchor.

    State (edges[k], sides[s]) is walked as slot 4k + s, with edges and
    sides ascending; E and N are sides 0 and 1.
    """
    edges = sorted(edges)
    sides = sorted(SIDES)
    far = {side: sides.index(OPPOSITE[side]) for side in sides}
    first = {e: 4 * k for k, e in enumerate(edges)}  # an edge's first slot
    succ = []
    for e in edges:
        for side in sides:
            glue = gluings.get((e, side))
            if glue is None:
                raise ValueError("ribbon reconstruction needs every side glued")
            succ.append(first[glue[0]] + far[glue[1]])
    return [[(edges[q >> 2], sides[q & 3]) for q in seq]
            for seq, _ in _components(succ) if seq[0] & 3 < 2]


def configuration(edges, gluings, valence_bound=None) -> tuple:
    """(RibbonData, BipartiteConfigGraph) read off a complete side-gluing table.

    Inverse of the cycle walk in build_surface: the arrows are the steps of
    the chart-aligned walks (_aligned_walks), and a same-letter gluing
    (E-E, W-W, ...) on one records a flip on the outgoing arrow.  Side
    letters are kept, so gluing the returned ribbon again (as _glue_axis
    does) gives back the same table.  Each walk is numbered as it is read:
    the k-th horizontal walk by least edge is curve 2k, the k-th vertical
    one curve 2k + 1, and each rectangle is one graph edge between the two
    curves crossing it.  valence_bound defaults to the largest degree.
    """
    sigma = {"E": {}, "N": {}}  # keyed by the side an aligned walk leaves by
    flips = set()
    ends = {e: [None, None] for e in edges}  # edge -> [its I-curve, its J-curve]
    count = [0, 0]  # horizontal and vertical curves numbered so far
    degree = 0
    for seq in _aligned_walks(edges, gluings):
        axis = seq[0][1]
        mapping = sigma[axis]
        k = int(axis == "N")
        v = 2 * count[k] + k
        count[k] += 1
        degree = max(degree, len(seq))
        for e, side in seq:
            if e in mapping:  # turned back at a side glued to itself
                raise RibbonError(f"one curve crosses edge {e} twice")
            e2, side2, _ = gluings[(e, side)]
            mapping[e] = e2
            ends[e][k] = v
            if side2 == side:
                flips.add((e, axis))
    graph = BipartiteConfigGraph.make(range(0, 2 * count[0], 2), range(1, 2 * count[1], 2), ends,
                                      degree if valence_bound is None else valence_bound)
    return RibbonData.make(sigma["E"], sigma["N"], flips), graph


def build_surface(graph: BipartiteConfigGraph, ribbon: RibbonData,
                  harmonic: HarmonicAssignment = None, *, values=None) -> RectangleComplex:
    """Assemble the rectangle complex over a graph with ribbon data.

    Rectangle e gets width values[j] and height values[i] for its endpoints
    (i, j); values defaults to the harmonic assignment, or to all-1 squares
    when neither is given (combinatorial census builds).  Only an explicit
    values argument is checked positive and finite here: a
    HarmonicAssignment checked its own values when it was made.  No corner
    cycle is punctured or marked; mark_faces sets those flags on the result.
    """
    checked = values is None
    if checked:
        values = harmonic.values if harmonic is not None else {v: 1 for v in graph.vertices()}
    for v in graph.vertices():
        if v not in values:
            raise ValueError(f"no value for vertex {v}")
        if not (checked or values[v] > 0):
            raise ValueError(f"value at vertex {v} must be positive")
        if not checked and isinstance(values[v], float) and not math.isfinite(values[v]):
            raise ValueError(f"value at vertex {v} must be finite")
    rows = graph.edges  # (edge, i, j), ascending by edge
    edges = [e for e, _, _ in rows]
    pos = {e: k for k, e in enumerate(edges)}
    width = {e: values[j] for e, _, j in rows}
    height = {e: values[i] for e, i, _ in rows}
    for name, named in (("sigma_h", {*ribbon.sigma_h, *ribbon.sigma_h.values()}),
                        ("sigma_v", {*ribbon.sigma_v, *ribbon.sigma_v.values()}),
                        ("flips", {e for e, _ in ribbon.flips})):
        unknown = named - pos.keys()
        if unknown:
            raise RibbonError(f"{name} names edges {sorted(unknown)} that are not in the graph")
    succ = [-1] * (4 * len(edges))  # quarter successors, filled in by both walks
    lay_h = _cylinders(edges, pos, [i for _, i, _ in rows], ribbon.sigma_h, ribbon.flips, "h",
                       width, values, succ)
    lay_v = _cylinders(edges, pos, [j for _, _, j in rows], ribbon.sigma_v, ribbon.flips, "v",
                       height, values, succ)
    # a flip flags an arrow e -> sigma(e); checked after the walks, so that
    # sigma maps at fault are reported first
    for e, side in sorted(ribbon.flips):
        if e not in (ribbon.sigma_h if side == "E" else ribbon.sigma_v):
            name = "sigma_h" if side == "E" else "sigma_v"
            raise RibbonError(f"flip {e} {side} names no arrow: {name} has no successor of {e}",
                              "flip", (e, side))
    cycles = tuple(CornerCycle(index=idx, corners=tuple(chain), truncated=not closed)
                   for idx, (chain, closed) in enumerate(_chains(edges, succ)))
    return RectangleComplex(graph=graph, ribbon=ribbon, width=width, height=height,
                            corner_cycles=cycles, h_layouts=lay_h, v_layouts=lay_v,
                            harmonic=harmonic)


def mark_faces(m: RectangleComplex, punctures=(), marked=None) -> RectangleComplex:
    """m with the corner cycles whose indices are in punctures punctured,
    the one whose index is marked (None for none) marked, and every other
    cycle without either flag.  An index is an int in
    range(len(m.corner_cycles)); any other value raises ValueError."""
    punctures = list(punctures)
    for idx in punctures + ([] if marked is None else [marked]):
        if type(idx) is not int or not 0 <= idx < len(m.corner_cycles):
            raise ValueError(f"no corner cycle has index {idx!r}")
    punctured = set(punctures)
    cycles = []
    for c in m.corner_cycles:
        flags = (c.index in punctured, c.index == marked)
        cycles.append(c if flags == (c.puncture, c.marked)
                      else c._replace(puncture=flags[0], marked=flags[1]))
    return replace(m, corner_cycles=tuple(cycles))


def cylinders(m: RectangleComplex, direction: str) -> list:
    """The complex's own CylinderLayouts in one direction, one per curve, ascending."""
    if direction not in ("horizontal", "vertical"):
        raise ValueError(f"direction must be horizontal or vertical, got {direction!r}")
    return list((m.h_layouts if direction == "horizontal" else m.v_layouts).values())


def _off_modulus(m: RectangleComplex, direction: str, tol) -> list:
    """The closed cylinders of one direction that break the modulus law
    lam * modulus == 1, compared as quadfield._equal compares (exactly on
    exact complexes, within tol once a float enters).  A modulus in another
    quadratic field than lam breaks it too."""
    bad = []
    for lay in cylinders(m, direction):
        try:
            holds = not lay.closed or _equal(lay.modulus * m.lam, 1, tol)
        except ValueError:  # lam and the modulus lie in two quadratic fields
            holds = False
        if not holds:
            bad.append(lay)
    return bad


def cone_points(m: RectangleComplex) -> list:
    """(cycle, angle, puncture flag, dual valence k) per cone point; the
    angle is k*pi/2 radians for a cycle of k quarters."""
    return [(c, c.angle(), c.puncture, c.k) for c in m.corner_cycles]


def euler_characteristic(m: RectangleComplex) -> int:
    """V - E + F of the cell structure; complete complexes only."""
    if not all(lay.closed for lay in (*m.h_layouts.values(), *m.v_layouts.values())):
        raise ValueError("Euler characteristic of a window truncation is undefined")
    return len(m.corner_cycles) - len(m.edges)


def is_translation(m: RectangleComplex) -> bool:
    """True iff chart rotations can remove every orientation-reversing gluing.

    That is Harary's balance of the configuration graph, rectangle e signed
    by the product of its two layout orientations: no component of the
    curves' two-sign lift (curve v with sign s as vertex 2v + s) holds both
    signs of one curve."""
    turn = {}
    for lay in (*m.h_layouts.values(), *m.v_layouts.values()):
        for e, o in zip(lay.edges, lay.orients):
            turn[e] = turn.get(e, 1) * o
    lift = {}
    for e, i, j in m.graph.edges:
        for s in (0, 1):
            a, b = 2 * i + s, 2 * j + (s ^ (turn[e] < 0))
            lift.setdefault(a, []).append((e, b))
            lift.setdefault(b, []).append((e, a))
    return all(len({v >> 1 for v in part}) == len(part) for part in _graph_components(lift))


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

    ribbon, graph = configuration(range(len(cover_id)), lifted, m.graph.valence_bound)
    values = {}
    for ce, i, j in graph.edges:
        e = base_edges[ce >> 1]
        values[i] = m.height[e]
        values[j] = m.width[e]
    harmonic = None
    if m.harmonic is not None:
        harmonic = HarmonicAssignment(lam=m.lam, values=values)

    cover = build_surface(graph, ribbon, harmonic=harmonic,
                          values=None if harmonic is not None else values)
    # project corner marks: a flagged cycle's first quarter lifts to one
    # quarter per sheet, the sheet-1 one at the rotated position
    cycle_of = {q: c.index for c in cover.corner_cycles for q in c.corners}
    punctures = []
    marked = None
    for cyc in m.corner_cycles:
        if not (cyc.puncture or cyc.marked):
            continue
        e0, c0 = cyc.corners[0]
        lifts = [cycle_of[(cover_id[(e0, 0)], c0)],
                 cycle_of[(cover_id[(e0, 1)], OPPOSITE_CORNER[c0])]]
        if cyc.puncture:
            punctures += lifts
        if cyc.marked:
            marked = lifts[0]
    return mark_faces(cover, punctures, marked)


# -- stock complexes -------------------------------------------------------

def square_torus() -> RectangleComplex:
    """One unit square with opposite sides identified."""
    g = BipartiteConfigGraph.make([0], [1], {0: (0, 1)}, 2)
    ribbon = RibbonData.make({0: 0}, {0: 0})
    h = HarmonicAssignment(lam=1, values={0: 1, 1: 1})
    return build_surface(g, ribbon, h)


def staircase_complex(lo: int, hi: int, lam, exact: bool = True) -> RectangleComplex:
    """Window of the infinite staircase built over the ladder graph.

    Rectangles sit over the edges n -- n+1 for lo <= n < hi; interior
    curves close into two-rectangle cylinders, the two extreme curves are
    window-truncated.  Heights follow the ladder's harmonic function for
    the given lam (exact quadratic arithmetic when lam is rational).
    """
    fam = LadderFamily(lo, hi)
    g = fam.graph()
    h = harmonic_closed_form(fam, lam)
    if not exact and not isinstance(h.lam, float):  # round each exact height object once
        rounded, values = {}, {}
        for v, x in h.values.items():
            f = rounded.get(id(x))
            if f is None:
                f = rounded[id(x)] = float(x)
            values[v] = f
        h = HarmonicAssignment(lam=float(h.lam), values=values)
    sigma_h = {}
    sigma_v = {}
    for v in range(lo + 1, hi):  # an interior curve crosses rectangles v - 1 and v
        target = sigma_h if v % 2 == 0 else sigma_v
        target[v - 1], target[v] = v, v - 1
    ribbon = RibbonData.make(sigma_h, sigma_v)
    return build_surface(g, ribbon, h)
