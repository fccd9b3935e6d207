"""Rectangle complexes: building, cylinders, cone points, double covers."""

import dataclasses
import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

from multitwist.flow import SurfacePoint, flow
from multitwist.formats import parse_surface, write_surface
from multitwist.graphs import BipartiteConfigGraph, HarmonicAssignment, perron_pair
from multitwist.quadfield import QuadExt
from multitwist.recipe import build_multicurves, ladder_tree, loch_ness_tree
from multitwist.surfaces import (
    CylinderLayout,
    RibbonData,
    RibbonError,
    build_surface,
    cone_points,
    cylinders,
    euler_characteristic,
    is_translation,
    mark_faces,
    orientation_double_cover,
    _ARROWS,
    _CCW_ROWS,
    _PORTS,
    _components,
    _corner_chains,
    _curves,
    _glue_axis,
    configuration,
    square_torus,
    staircase_complex,
)
from multitwist import surfaces
from multitwist.svg import surface_svg


def double_edge_graph():
    return BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)


def unit_h(graph, lam=1):
    return HarmonicAssignment(lam=lam, values={v: 1 for v in graph.vertices()})


def pillowcase():
    rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=[(0, "N"), (1, "N")])
    return build_surface(double_edge_graph(), rib, unit_h(double_edge_graph(), lam=2))


class TestBuild:
    def test_square_torus(self):
        t = square_torus()
        assert [c.k for c in t.corner_cycles] == [4]
        assert euler_characteristic(t) == 0
        assert is_translation(t)

    def test_double_edge_two_unit_squares(self):
        g = double_edge_graph()
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0})
        m = build_surface(g, rib, unit_h(g, lam=2))
        hc = cylinders(m, "horizontal")
        vc = cylinders(m, "vertical")
        assert len(hc) == len(vc) == 1
        assert hc[0].length == 2 and hc[0].transverse == 1
        assert vc[0].length == 2 and vc[0].transverse == 1

    def test_staircase_window_matches_picture(self):
        st = staircase_complex(-4, 5, 2)
        assert all(float(w) == 1 for w in st.width.values())
        # four corner chains, one per point at infinity of the staircase
        assert len(st.corner_cycles) == 4
        assert all(c.truncated for c in st.corner_cycles)
        assert is_translation(st)

    def test_fiber_violation_is_rejected(self):
        g = BipartiteConfigGraph.make([0, 2], [1, 3],
                                      {0: (0, 1), 1: (2, 1), 2: (2, 3), 3: (0, 3)}, 2)
        bad = RibbonData.make({0: 1, 1: 2, 2: 3, 3: 0}, {0: 0, 1: 1, 2: 2, 3: 3})
        with pytest.raises(RibbonError, match="mixes fibers"):
            build_surface(g, bad, unit_h(g))

    def test_split_fiber_is_rejected(self):
        g = double_edge_graph()
        rib = RibbonData.make({0: 0, 1: 1}, {0: 1, 1: 0})
        with pytest.raises(RibbonError, match="split across several sigma_h components"):
            build_surface(g, rib, unit_h(g))

    def test_odd_flip_cycle_is_rejected(self):
        g = double_edge_graph()
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=[(0, "N")])
        with pytest.raises(RibbonError, match="odd number of flips"):
            build_surface(g, rib, unit_h(g))

    @pytest.mark.parametrize("flip, name", [((3, "E"), "sigma_h"), ((-3, "N"), "sigma_v")])
    def test_flip_without_an_arrow_is_rejected(self, flip, name):
        # edges 3 and -3 end the open paths sigma_h* 3 and sigma_v* -3
        m = staircase_complex(-3, 4, 2)
        rib = RibbonData.make(m.ribbon.sigma_h, m.ribbon.sigma_v, [flip])
        with pytest.raises(RibbonError, match=f"names no arrow: {name} has no successor") as err:
            build_surface(m.graph, rib, m.harmonic)
        assert (err.value.record, err.value.edge) == ("flip", flip)

    def test_nonpositive_values_rejected(self):
        g = double_edge_graph()
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0})
        with pytest.raises(ValueError, match="positive"):
            build_surface(g, rib, values={0: 1, 1: 0})
        with pytest.raises(ValueError, match="no value for vertex 1"):
            build_surface(g, rib, HarmonicAssignment(lam=1, values={0: 1}))

    def test_infinite_values_rejected(self):
        # HarmonicAssignment refuses the same value
        m = staircase_complex(-2, 3, 2, exact=False)
        values = {**m.harmonic.values, 0: math.inf}
        with pytest.raises(ValueError) as err:
            build_surface(m.graph, m.ribbon, values=values)
        assert str(err.value) == "value at vertex 0 must be finite"
        with pytest.raises(ValueError, match="must be finite"):
            HarmonicAssignment(lam=m.lam, values=values)

    def test_cylinder_layout_reads_by_field(self):
        lay = square_torus().h_layouts[0]
        assert lay._fields == ("vertex", "edges", "orients", "offsets", "length",
                               "transverse", "closed")
        assert (lay.vertex, lay.edges, lay.offsets, lay.length, lay.closed) == (0, (0,), (0,), 1, True)
        assert repr(lay) == ("CylinderLayout(vertex=0, edges=(0,), orients=(1,), offsets=(0,), "
                             "length=1, transverse=1, closed=True)")
        with pytest.raises(AttributeError):
            lay.length = 2

    def test_mark_faces_replaces_only_the_cycles_it_changes(self):
        m = build_multicurves((1, 2), 3).complex
        flagged = [c.index for c in m.corner_cycles if c.puncture or c.marked]
        punctures = [c.index for c in m.corner_cycles if c.puncture]
        marked = next(c.index for c in m.corner_cycles if c.marked)
        same = mark_faces(m, punctures, marked)
        assert same == m
        assert all(a is b for a, b in zip(same.corner_cycles, m.corner_cycles))
        cleared = mark_faces(m)
        assert not any(c.puncture or c.marked for c in cleared.corner_cycles)
        assert [c.index for c in m.corner_cycles
                if c is not cleared.corner_cycles[c.index]] == flagged

    def test_mark_faces_takes_cycle_indices_only(self):
        m = square_torus()  # one corner cycle, index 0
        (cycle,) = m.corner_cycles
        for bad in ((0, "SW"), cycle, 1, -1, True, 0.0, "0"):
            with pytest.raises(ValueError, match="no corner cycle has index"):
                mark_faces(m, [bad])
            with pytest.raises(ValueError, match="no corner cycle has index"):
                mark_faces(m, marked=bad)
        assert mark_faces(m, [0], 0).corner_cycles == (cycle._replace(puncture=True, marked=True),)


class TestCylinders:
    def test_torus_modulus(self):
        t = square_torus()
        cyl = cylinders(t, "horizontal")[0]
        assert cyl.modulus == 1  # 1/lam with lam = 1

    def test_staircase_modulus_is_exactly_one_over_lambda(self):
        for lam in (2, 3):
            st = staircase_complex(-4, 5, lam)
            for direction in ("horizontal", "vertical"):
                for cyl in cylinders(st, direction):
                    if not cyl.truncated:
                        assert cyl.modulus * lam == 1

    def test_rational_field_element_lambda_builds_exactly(self):
        st = staircase_complex(-2, 3, QuadExt(3))
        assert st == staircase_complex(-2, 3, 3)
        assert all(isinstance(w, QuadExt) for w in st.width.values())

    def test_cylinders_are_the_complex_layouts(self):
        st = staircase_complex(-4, 5, 3)
        for direction, layouts in (("horizontal", st.h_layouts), ("vertical", st.v_layouts)):
            cyls = cylinders(st, direction)
            assert len(cyls) == len(layouts)
            assert all(cyl is layouts[cyl.vertex] for cyl in cyls)
            assert [cyl.truncated for cyl in cyls] == [not cyl.closed for cyl in cyls]

    def test_staircase_lam3_circumference_identity(self):
        st = staircase_complex(-4, 5, 3)
        h = st.harmonic
        for cyl in cylinders(st, "horizontal"):
            if not cyl.truncated:
                n = cyl.vertex
                assert cyl.length == 3 * h[n]  # r^(n-1) + r^(n+1) = 3 r^n

    def test_cylinder_fiber_duality(self):
        st = staircase_complex(-4, 5, 2)
        g = st.graph
        assert len(cylinders(st, "horizontal")) == len(g.part_i)
        assert len(cylinders(st, "vertical")) == len(g.part_j)


class TestConePoints:
    def test_torus_regular_point(self):
        pts = cone_points(square_torus())
        assert len(pts) == 1
        cyc, angle, punct, valence = pts[0]
        assert angle == pytest.approx(2 * math.pi) and not punct and valence == 4

    def test_pillowcase_cones(self):
        m = pillowcase()
        assert sorted(c.k for c in m.corner_cycles) == [2, 2, 2, 2]
        assert not is_translation(m)

    def test_angle_is_quarter_of_cycle_length(self):
        m = pillowcase()
        for c in m.corner_cycles:
            assert c.angle() == pytest.approx(c.k * math.pi / 2)

    def test_corner_partition(self):
        for m in (square_torus(), pillowcase(), staircase_complex(-3, 4, 2)):
            assert sum(c.k for c in m.corner_cycles) == 4 * len(m.edges)


class TestGaussBonnet:
    def test_identity_on_closed_complexes(self):
        samples = [square_torus(), pillowcase()]
        g = double_edge_graph()
        samples.append(build_surface(g, RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}),
                                     unit_h(g, 2)))
        for m in samples:
            chi = euler_characteristic(m)
            excess = sum(Fraction(c.k, 2) - 2 for c in m.corner_cycles)
            assert excess == -2 * chi


class TestDoubleCover:
    def test_pillowcase_cover_is_torus(self):
        m = pillowcase()
        cov = orientation_double_cover(m)
        assert len(cov.edges) == 2 * len(m.edges)
        assert is_translation(cov)
        # odd cones (angle pi) lift to single cones of angle 2 pi
        assert sorted(c.k for c in cov.corner_cycles) == [4, 4, 4, 4]
        assert sum(c.k for c in cov.corner_cycles) == 2 * sum(c.k for c in m.corner_cycles)
        # the cover keeps the base's valence bound; its table gives back its configuration
        bound = m.graph.valence_bound
        assert configuration(cov.edges, cov.gluings, bound) == (cov.ribbon, cov.graph)

    def test_even_cone_lifts_to_two_copies(self):
        # half-translation sphere with two 2pi cones and four pi cones
        g = BipartiteConfigGraph.make([0, 2], [1],
                                      {0: (0, 1), 1: (0, 1), 2: (2, 1), 3: (2, 1)}, 4)
        rib = RibbonData.make({0: 1, 1: 0, 2: 3, 3: 2}, {0: 1, 1: 3, 3: 2, 2: 0},
                              flips=[(0, "E"), (1, "E"), (2, "E"), (3, "E")])
        m = build_surface(g, rib, unit_h(g, 2))
        assert sorted(c.k for c in m.corner_cycles) == [2, 2, 2, 2, 4, 4]
        cov = orientation_double_cover(m)
        # 4 odd pi-cones -> 4 cones of 2pi; 2 even 2pi-cones -> 4 cones of 2pi
        assert sorted(c.k for c in cov.corner_cycles) == [4] * 8
        assert euler_characteristic(cov) == 0

    def test_translation_input_is_refused(self):
        with pytest.raises(ValueError, match="already a translation"):
            orientation_double_cover(square_torus())


class TestIsTranslation:
    def test_staircase_is_translation(self):
        assert is_translation(staircase_complex(-4, 5, 2))

    def test_odd_pi_cone_forces_half_translation(self):
        m = pillowcase()
        assert any(c.k == 2 for c in m.corner_cycles)
        assert not is_translation(m)


class TestRibbonRoundTrip:
    def test_gluings_reconstruct_ribbon(self):
        for m in (square_torus(), pillowcase()):
            rib, graph = configuration(m.edges, m.gluings, m.graph.valence_bound)
            assert (rib, graph) == (m.ribbon, m.graph)
            m2 = build_surface(graph, rib, values={v: 1 for v in graph.vertices()})
            assert m2.gluings == {k: v for k, v in m.gluings.items()}

    def test_side_glued_to_itself_has_no_ribbon(self):
        # a fold z -> -z + c along a side: the curve through it would cross
        # its square twice, once each way
        gluings = {(0, "E"): (0, "E", True), (0, "W"): (0, "W", True),
                   (0, "N"): (0, "S", False), (0, "S"): (0, "N", False)}
        with pytest.raises(RibbonError, match="crosses edge 0 twice"):
            configuration([0], gluings)

    @pytest.mark.parametrize("source, weight", [((3, 2), 6), ((1, 2), 3),
                                                (loch_ness_tree(5), 2)])
    def test_recipe_outputs_round_trip(self, source, weight):
        # flipped arrows, handle splices ((3, 2, 6)) and arms of through
        # blocks (loch-ness): the table alone gives back the ribbon
        m = build_multicurves(source, weight).complex
        rib, graph = configuration(m.edges, m.gluings)
        assert (rib, graph) == (m.ribbon, m.graph) and rib.flips
        m2 = build_surface(m.graph, rib, values={v: 1 for v in m.graph.vertices()})
        assert m2.gluings == m.gluings


def test_perron_built_surfaces_have_uniform_modulus():
    cases = []
    g1 = BipartiteConfigGraph.make([0], [1], {0: (0, 1)}, 2)
    cases.append((g1, RibbonData.make({0: 0}, {0: 0})))
    g2 = double_edge_graph()
    cases.append((g2, RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0})))
    g3 = BipartiteConfigGraph.make([0], [1, 3], {0: (0, 1), 1: (0, 3)}, 2)
    cases.append((g3, RibbonData.make({0: 1, 1: 0}, {0: 0, 1: 1})))
    g4 = BipartiteConfigGraph.make([0, 2], [1, 3],
                                   {0: (0, 1), 1: (2, 1), 2: (2, 3), 3: (0, 3)}, 2)
    cases.append((g4, RibbonData.make({0: 3, 3: 0, 1: 2, 2: 1},
                                      {0: 1, 1: 0, 2: 3, 3: 2})))
    g5 = BipartiteConfigGraph.make([0], [1, 3, 5],
                                   {0: (0, 1), 1: (0, 3), 2: (0, 5)}, 3)
    cases.append((g5, RibbonData.make({0: 1, 1: 2, 2: 0}, {0: 0, 1: 1, 2: 2})))
    for g, rib in cases:
        h = perron_pair(g)
        m = build_surface(g, rib, h)
        for direction in ("horizontal", "vertical"):
            for cyl in cylinders(m, direction):
                assert abs(float(cyl.modulus) * h.lam - 1) < 1e-12


class TestCoverFlagLifting:
    def test_punctured_odd_cone_lifts_once(self):
        g = double_edge_graph()
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=[(0, "N"), (1, "N")])
        base = build_surface(g, rib, unit_h(g, 2))
        m = mark_faces(base, [0])
        cov = orientation_double_cover(m)
        # an angle-pi cone is a branch point: one punctured preimage
        assert sum(1 for c in cov.corner_cycles if c.puncture) == 1

    def test_punctured_even_cone_lifts_twice(self):
        g = BipartiteConfigGraph.make([0, 2], [1],
                                      {0: (0, 1), 1: (0, 1), 2: (2, 1), 3: (2, 1)}, 4)
        rib = RibbonData.make({0: 1, 1: 0, 2: 3, 3: 2}, {0: 1, 1: 3, 3: 2, 2: 0},
                              flips=[(0, "E"), (1, "E"), (2, "E"), (3, "E")])
        base = build_surface(g, rib)
        even = next(c for c in base.corner_cycles if c.k == 4)
        m = mark_faces(base, [even.index])
        cov = orientation_double_cover(m)
        assert sum(1 for c in cov.corner_cycles if c.puncture) == 2


# SHA-1 of everything build_surface lays out, pinned before sizes came from
# the curve values and corners straight off the gluing table: table order,
# frontier, corner cycles with their flags, cylinder layouts, each quarter
# with the index of its cycle
SURFACE_GOLDEN = {
    "float staircase -6:7 lambda 3": "b34eb35782ebbe41da2eb9a2095a880ac6da56d6",
    "exact staircase -4:5 lambda 3": "6d98154436e67e86a9d3cce48acbbc164105c0dc",
    "torus": "b8fd148efb14637523b970ffc035f6ea283c5921",
    "recipe (1, 2, 3)": "6f2569889f26cf0bce80e6d3159aba71cc56bb89",
    "recipe (1, 2, 3) double cover": "c4c010d685f66ba3c00c057654e821b807d40192",
}


def _golden_surface(case):
    if case == "float staircase -6:7 lambda 3":
        return staircase_complex(-6, 7, 3, exact=False)
    if case == "exact staircase -4:5 lambda 3":
        return staircase_complex(-4, 5, 3)
    if case == "torus":
        return square_torus()
    m = build_multicurves((1, 2), 3).complex
    return orientation_double_cover(m) if case.endswith("cover") else m


@pytest.mark.parametrize("case", sorted(SURFACE_GOLDEN))
def test_surface_layout_is_pinned(case):
    m = _golden_surface(case)
    text = repr((list(m.gluings.items()), sorted(m.frontier), m.corner_cycles,
                 list(m.h_layouts.items()), list(m.v_layouts.items()),
                 [(q, c.index) for c in m.corner_cycles for q in c.corners]))
    assert hashlib.sha1(text.encode()).hexdigest() == SURFACE_GOLDEN[case]


# -- successor-map walks on square-tiled surfaces ---------------------------
#
# A pair of permutations (sigma_h, sigma_v) of N squares is a square-tiled
# surface (Zorich, "Square tiled surfaces and Teichmueller volumes of the
# moduli spaces of Abelian differentials", 2002); flipped arrows, even in
# number on every cycle, make it half-translation, and dropped arrows give
# window truncations with frontier sides.

def _cycles(perm: dict) -> list:
    seen, out = set(), []
    for start in sorted(perm):
        if start not in seen:
            cyc = [start]
            while perm[cyc[-1]] != start:
                cyc.append(perm[cyc[-1]])
            seen.update(cyc)
            out.append(cyc)
    return out


@st.composite
def square_tiled(draw, partial: bool):
    """(N, sigma_h, sigma_v, flips) of a connected surface, every closed
    cycle evenly flipped; partial drops at most one arrow per cycle, which
    opens it without disconnecting the surface."""
    n = draw(st.integers(1, 8))
    maps = [dict(enumerate(draw(st.permutations(range(n))))) for _ in "hv"]
    parent = list(range(n))  # union-find over the orbits of <sigma_h, sigma_v>

    def root(e):
        while parent[e] != e:
            e = parent[e]
        return e

    for mapping in maps:
        for e, t in mapping.items():
            parent[root(e)] = root(t)
    for b in range(n):  # sigma_h times the transposition (0 b) joins two orbits
        if root(b) != root(0):
            maps[0][0], maps[0][b] = maps[0][b], maps[0][0]
            parent[root(b)] = root(0)
    flips = set()
    for k, axis in enumerate("EN"):
        flipped = {e for e in range(n) if draw(st.booleans())}
        cut = set()
        for cyc in _cycles(maps[k]):
            if len(flipped & set(cyc)) % 2:
                flipped ^= {cyc[0]}
            if partial:
                cut.add(draw(st.sampled_from([None] + cyc)))
        maps[k] = {e: t for e, t in maps[k].items() if e not in cut}
        flips |= {(e, axis) for e in flipped if e in maps[k]}
    return n, maps[0], maps[1], flips


def _build(case):
    """The complex of a drawn case.  Its maps may be cut open, leaving no
    complete gluing table to read a graph off, so its curves are numbered
    here: one I-vertex (even id) per sigma_h component, one J-vertex (odd
    id) per sigma_v component, each in _curves order (paths first), and the
    largest degree as the valence bound."""
    n, sigma_h, sigma_v, flips = case
    ends = {e: [None, None] for e in range(n)}
    for side, mapping in enumerate((sigma_h, sigma_v)):
        for k, (seq, _) in enumerate(_curves(mapping, range(n))):
            for e in seq:
                ends[e][side] = 2 * k + side
    bound = max(Counter(v for ij in ends.values() for v in ij).values())
    graph = BipartiteConfigGraph.make({i for i, _ in ends.values()}, {j for _, j in ends.values()},
                                      ends, bound)
    return build_surface(graph, RibbonData.make(sigma_h, sigma_v, flips))


# a corner (x, y) of the unit square; a side fixes one coordinate: the
# position along it is the other one
_XY = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}
_FIXED = {"W": (0, 0), "E": (0, 1), "S": (1, 0), "N": (1, 1)}


def _colouring_translation(m) -> bool:
    """is_translation as a colouring walk over the side-gluing table: each
    rectangle gets a chart sign, a reversed gluing flips it, and a clash
    means no chart rotations remove every reversal.  Kept as the reference
    for the balance check on the configuration graph."""
    color = {}
    for start in m.edges:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            e = stack.pop()
            for side in "EWNS":
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


# (1, 1) and (1, 0) at weight 2 build translation surfaces, the others not
_RECIPE_SOURCES = [((1, 1), 2), ((1, 0), 2), ((0, 4), 2), ((1, 2), 3), ((2, 0), 3), ((2, 3), 4),
                   (loch_ness_tree(3), 2), (ladder_tree(2), 2)]
_TRANSLATION_CASES = st.one_of(
    st.booleans().flatmap(square_tiled).map(_build),
    st.sampled_from(_RECIPE_SOURCES).map(lambda src: build_multicurves(*src).complex),
    st.builds(staircase_complex, st.integers(-6, 0), st.integers(1, 6),
              st.sampled_from([2, 3, Fraction(5, 2)]), st.booleans()),
    # double covers: the base is read with the reference, the cover is fresh
    square_tiled(partial=False).map(_build).filter(lambda m: not _colouring_translation(m))
    .map(orientation_double_cover),
    st.sampled_from(_RECIPE_SOURCES[2:6]).map(
        lambda src: orientation_double_cover(build_multicurves(*src).complex)),
)


@settings(max_examples=200, deadline=None)
@given(m=_TRANSLATION_CASES)
def test_is_translation_is_the_colouring_walk(m):
    """The balance check on the curves' two-sign lift gives the colouring
    walk's verdict, and reads no side-gluing table to do so."""
    got = is_translation(m)
    assert "gluings" not in vars(m)
    assert got == _colouring_translation(m)


def _brute_corner_chains(edges, gluings):
    """Corner chains from coordinates: a quarter at (x, y) is left
    counterclockwise through the vertical side when (1-2x)(1-2y) > 0, else
    through the horizontal one, and lands at the same position along the
    glued side, or the mirrored one when the gluing is reversed."""
    name = {xy: c for c, xy in _XY.items()}
    succ = {}
    for e in edges:
        for c, (x, y) in _XY.items():
            side = ("W", "E")[x] if (1 - 2 * x) * (1 - 2 * y) > 0 else ("S", "N")[y]
            if (e, side) not in gluings:
                continue
            axis, _ = _FIXED[side]
            t = (x, y)[1 - axis]
            e2, side2, rev = gluings[(e, side)]
            axis2, value2 = _FIXED[side2]
            t2 = 1 - t if rev else t
            succ[(e, c)] = (e2, name[(value2, t2) if axis2 == 0 else (t2, value2)])
    targets = set(succ.values())
    chains = []
    for q in sorted((e, c) for e in edges for c in _XY):
        chain = [q]
        while chain[-1] in succ and succ[chain[-1]] != q:
            chain.append(succ[chain[-1]])
        if q not in targets:
            chains.append((chain, False))  # starts where the frontier cuts
        elif chain[-1] in succ and q == min(chain):
            chains.append((chain, True))
    return sorted(chains)


@settings(max_examples=150, deadline=None)
@given(case=st.booleans().flatmap(square_tiled))
def test_corner_chains_match_a_brute_force_walk(case):
    m = _build(case)
    chains = _corner_chains(m.edges, m.gluings)
    assert chains == _brute_corner_chains(m.edges, m.gluings)
    quarters = [q for chain, _ in chains for q in chain]
    assert sorted(quarters) == sorted((e, c) for e in m.edges for c in _XY)
    assert [(list(c.corners), not c.truncated) for c in m.corner_cycles] == chains


@settings(max_examples=150, deadline=None)
@given(case=square_tiled(partial=False))
def test_ribbon_from_gluings_inverts_the_build(case):
    # a complete table has no paths, so _build numbers its curves as configuration does
    m = _build(case)
    assert not m.frontier
    assert configuration(m.edges, m.gluings) == (m.ribbon, m.graph)


def _assert_table_of_the_ribbon(m):
    """m's gluing table, read off its layouts, is the table the ribbon glues
    axis by axis, item for item in order, and its frontier is every side
    that table leaves out."""
    rib = m.ribbon
    table = {**_glue_axis(rib.sigma_h, rib.flips, "h"), **_glue_axis(rib.sigma_v, rib.flips, "v")}
    assert list(m.gluings.items()) == list(table.items())
    assert m.frontier == {(e, side) for e in m.edges for side in "EWNS" if (e, side) not in table}


@settings(max_examples=150, deadline=None)
@given(case=st.booleans().flatmap(square_tiled))
def test_gluings_read_off_the_layouts_are_the_ribbon_table(case):
    _assert_table_of_the_ribbon(_build(case))


_WINDOWS = [pytest.param(lo, hi, lam, exact, id=f"[{lo},{hi}] lam={lam} exact={exact}")
            for lo, hi in ((-7, 6), (0, 1), (5, 30), (-30, -5))
            for lam in (2, 3, Fraction(5, 2)) for exact in (True, False)]


@pytest.mark.parametrize("lo, hi, lam, exact", _WINDOWS)
def test_staircase_gluings_are_the_ribbon_table(lo, hi, lam, exact):
    _assert_table_of_the_ribbon(staircase_complex(lo, hi, lam, exact))


def test_gluing_table_is_built_on_first_read():
    st_float = staircase_complex(-4, 5, 2, exact=False)
    built = [st_float, staircase_complex(-4, 5, 3), _build((2, {0: 1, 1: 0}, {0: 0, 1: 1}, set())),
             parse_surface(write_surface(st_float))]
    for m in built:
        # the invariants read the layouts, not the table
        cylinders(m, "horizontal"), cone_points(m), m.frontier, is_translation(m)
        if m.frontier:
            with pytest.raises(ValueError, match="window truncation"):
                euler_characteristic(m)
        else:
            euler_characteristic(m)
        assert "gluings" not in vars(m)
    flow(built[0], SurfacePoint(0, 0.5, 0.25), (1.0, 1.0), 3.0)
    surface_svg(built[1])
    for m in built[:2]:
        assert "gluings" in vars(m)


@pytest.mark.parametrize("make", [lambda: staircase_complex(-6, 7, 3),
                                  lambda: staircase_complex(-6, 7, 3, exact=False),
                                  lambda: build_multicurves((1, 2), 3).complex])
def test_surface_file_round_trip_without_a_gluing_field(make):
    m = make()
    back = parse_surface(write_surface(m))
    assert back == m
    assert list(back.gluings.items()) == list(m.gluings.items())
    assert "gluings" not in {f.name for f in dataclasses.fields(m)}


def _dict_components(mapping: dict, universe) -> list:
    """The successor-map walk as it was before slots: a partial map held
    as a dict, its elements marked in sets, over universe in the order
    given.  Kept as the reference for the slot walk."""
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


def _slots(mapping: dict, n: int) -> list:
    return [mapping.get(k, -1) for k in range(n)]


@settings(max_examples=150, deadline=None)
@given(case=st.booleans().flatmap(square_tiled))
def test_components_partition_their_universe(case):
    n, sigma_h, sigma_v, _ = case
    for mapping in (sigma_h, sigma_v):
        comps = _components(_slots(mapping, n))
        assert sorted(x for seq, _ in comps for x in seq) == list(range(n))
        targets = set(mapping.values())
        opened = [seq for seq, closed in comps if not closed]
        cycles = [seq for seq, closed in comps if closed]
        assert comps == [(seq, False) for seq in opened] + [(seq, True) for seq in cycles]
        for seq in opened:
            assert seq[0] not in targets and seq[-1] not in mapping
        for seq in cycles:
            assert seq[0] == min(seq) and mapping[seq[-1]] == seq[0]
        for seq, _ in comps:
            assert all(mapping[a] == b for a, b in zip(seq, seq[1:]))


@st.composite
def partial_maps(draw):
    """A partial map on the slots 0..n-1, as a dict: either injective (a
    permutation with arrows dropped) or arbitrary, so that several slots
    may share a successor."""
    n = draw(st.integers(0, 10))
    if draw(st.booleans()):
        targets = draw(st.permutations(range(n)))
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return {k: t for k, (t, kept) in enumerate(zip(targets, keep)) if kept}, n
    succ = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    return {k: t for k, t in enumerate(succ) if t >= 0}, n


@settings(max_examples=400, deadline=None)
@given(case=partial_maps())
@example(case=({0: 1, 1: 2, 2: 1}, 3))  # a path runs into a cycle
@example(case=({1: 0, 2: 0}, 3))  # two paths end in one slot
@example(case=({0: 1, 1: 0, 2: 3, 3: 2}, 4))
def test_slot_walk_matches_the_dict_walk(case):
    """Same components, or the same RibbonError text.  On slots only the
    path re-entry can be raised: whatever no path reaches is permuted by
    the map, so the reference walk's two cycle raises never fire."""
    mapping, n = case
    try:
        expected = _dict_components(mapping, range(n))
    except RibbonError as exc:
        assert "from a path" in str(exc)
        with pytest.raises(RibbonError) as got:
            _components(_slots(mapping, n))
        assert str(got.value) == str(exc)
    else:
        assert _components(_slots(mapping, n)) == expected


_OPEN_PILLOW = (2, {0: 1, 1: 0}, {0: 1}, {(0, "N")})  # one flipped arrow, one open curve


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: RibbonData.make({0: 0}, {0: 0}, flips=[(0, "W")]),
                 "flip side must be E or N, got 'W'", id="flip-side-W"),
    pytest.param(lambda: RibbonData.make({0: 1, 1: 1}, {}), "sigma_h is not injective",
                 id="sigma-not-injective"),
    pytest.param(lambda: build_surface(double_edge_graph(), RibbonData.make({0: 9}, {})),
                 "sigma_h names edges [9] that are not in the graph", id="unknown-edge"),
    pytest.param(lambda: cylinders(square_torus(), "diagonal"),
                 "direction must be horizontal or vertical, got 'diagonal'", id="direction"),
    pytest.param(lambda: orientation_double_cover(_build(_OPEN_PILLOW)),
                 "double cover of a window truncation is not supported", id="cover-of-a-window"),
])
def test_refusals_name_what_is_wrong(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)


# -- the cylinder walk before the slot walk, kept as the reference --------
# Each cylinder had its own orientation walk over (edge, side) keys, a set
# for its fibre check, and its arrows zipped from slices; the reference
# build is build_surface with this walk in place of _cylinders.

def _reference_orient(seq, flips, axis):
    side = _PORTS[axis][1][0]
    o = 1
    orients = []
    for e in seq:
        orients.append(o)
        if (e, side) in flips:
            o = -o
    return orients, o


def _reference_arrows(seq, orients, end, closed):
    return zip(seq, seq[1:] + seq[:1] if closed else seq[1:], orients, (*orients[1:], end))


def _reference_cylinders(edges, pos, fibre, mapping, flips, axis, size, values, succ):
    record = f"sigma_{axis}"
    by_vertex = {}
    for slots, closed in _components([pos[mapping[e]] if e in mapping else -1 for e in edges]):
        verts = set(map(fibre.__getitem__, slots))
        if len(verts) != 1:
            raise RibbonError(f"{record} component {[edges[k] for k in slots]} mixes fibers "
                              f"{sorted(verts)}", record, edges[slots[0]])
        v = verts.pop()
        if v in by_vertex:
            raise RibbonError(f"vertex {v} split across several {record} components",
                              record, edges[slots[0]])
        by_vertex[v] = (slots, closed)
    links = {}
    for key, (side_a, side_b, rev) in _ARROWS[axis].items():
        (s_a, land_a), (s_b, land_b) = _CCW_ROWS[side_a], _CCW_ROWS[side_b]
        links[key] = (s_a, land_a[side_b][rev], s_b, land_b[side_a][rev])
    layouts = {}
    for v in sorted(by_vertex):
        slots, closed = by_vertex[v]
        seq = tuple(map(edges.__getitem__, slots))
        orients, end = _reference_orient(seq, flips, axis)
        if closed and end != 1:
            raise RibbonError(f"{record} cycle at vertex {v} has an odd number of flips",
                              record, seq[0])
        ends = list(accumulate(map(size.__getitem__, seq)))
        for k, k2, o, o2 in _reference_arrows(slots, orients, end, closed):
            s_a, t_a, s_b, t_b = links[o, o2]
            succ[4 * k + s_a] = 4 * k2 + t_a
            succ[4 * k2 + s_b] = 4 * k + t_b
        layouts[v] = CylinderLayout(v, seq, tuple(orients), (0, *ends[:-1]), ends[-1],
                                    values[v], closed)
    return layouts


def _assert_reference_build(graph, ribbon, harmonic=None, values=None):
    """build_surface gives the reference's complex, equal field by field
    and with both layout dicts in the same order, or raises the reference's
    RibbonError with the same text, record and edge.  Returns the complex,
    or None on a refusal."""
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(surfaces, "_cylinders", _reference_cylinders)
            want = surfaces.build_surface(graph, ribbon, harmonic, values=values)
    except RibbonError as exc:
        with pytest.raises(RibbonError) as got:
            build_surface(graph, ribbon, harmonic, values=values)
        assert (str(got.value), got.value.record, got.value.edge) == (str(exc), exc.record,
                                                                      exc.edge)
        return None
    got = build_surface(graph, ribbon, harmonic, values=values)
    assert got == want
    assert got.corner_cycles == want.corner_cycles
    for name in ("h_layouts", "v_layouts"):
        layouts = getattr(got, name)
        assert list(layouts.items()) == list(getattr(want, name).items())
        assert all(type(lay) is CylinderLayout for lay in layouts.values())
    return got


def _rebuild_against_the_reference(m):
    """Build m's graph and ribbon again, with m's harmonic data or, without
    any, with the side lengths of m as explicit values."""
    values = None
    if m.harmonic is None:
        values = {}
        for e, i, j in m.graph.edges:
            values[i], values[j] = m.height[e], m.width[e]
    assert _assert_reference_build(m.graph, m.ribbon, m.harmonic, values) is not None


@settings(max_examples=150, deadline=None)
@given(case=st.booleans().flatmap(square_tiled))
def test_build_matches_the_reference_on_drawn_surfaces(case):
    _rebuild_against_the_reference(_build(case))


@pytest.mark.parametrize("source", [
    pytest.param((loch_ness_tree(d), 2), id=f"loch-ness d={d}") for d in (10, 20)] + [
    pytest.param((ladder_tree(d), 2), id=f"ladder d={d}") for d in (10, 20)] + [
    pytest.param(((1, 2), 3), id="(1, 2) weight 3")])
def test_build_matches_the_reference_on_recipe_outputs(source):
    m = build_multicurves(*source).complex
    _rebuild_against_the_reference(m)
    if not is_translation(m):
        _rebuild_against_the_reference(orientation_double_cover(m))


@pytest.mark.parametrize("lo, hi, lam, exact", _WINDOWS + [
    pytest.param(-250, 250, 2, False, id="[-250,250] lam=2 exact=False"),
    pytest.param(-125, 125, 3, True, id="[-125,125] lam=3 exact=True")])
def test_build_matches_the_reference_on_staircase_windows(lo, hi, lam, exact):
    _rebuild_against_the_reference(staircase_complex(lo, hi, lam, exact))


@st.composite
def _any_ribbon(draw):
    """A drawn surface's graph with another ribbon on its edges: partial
    injective maps and flips drawn freely, so that most are malformed."""
    m = _build(draw(square_tiled(partial=False)))
    n = len(m.edges)
    maps = []
    for _ in "hv":
        targets = draw(st.permutations(range(n)))
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        maps.append({e: t for e, (t, kept) in enumerate(zip(targets, keep)) if kept})
    flips = draw(st.sets(st.tuples(st.integers(0, n - 1), st.sampled_from("EN"))))
    return m.graph, RibbonData.make(*maps, flips)


@settings(max_examples=300, deadline=None)
@given(case=_any_ribbon())
def test_build_matches_the_reference_on_any_ribbon(case):
    _assert_reference_build(*case)


@pytest.mark.parametrize("graph, ribbon, fragment", [
    pytest.param(BipartiteConfigGraph.make([0, 2], [1, 3],
                                           {0: (0, 1), 1: (2, 1), 2: (2, 3), 3: (0, 3)}, 2),
                 RibbonData.make({0: 1, 1: 2, 2: 3, 3: 0}, {0: 0, 1: 1, 2: 2, 3: 3}),
                 "sigma_h component [0, 1, 2, 3] mixes fibers [0, 2]", id="mixed-fibres"),
    pytest.param(double_edge_graph(), RibbonData.make({0: 0, 1: 1}, {0: 1, 1: 0}),
                 "vertex 0 split across several sigma_h components", id="split-vertex"),
    pytest.param(double_edge_graph(), RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, [(0, "N")]),
                 "sigma_v cycle at vertex 1 has an odd number of flips", id="odd-flips"),
    pytest.param(double_edge_graph(), RibbonData.make({0: 1}, {0: 1, 1: 0}, [(1, "E")]),
                 "flip 1 E names no arrow: sigma_h has no successor of 1", id="flip-on-no-arrow"),
])
def test_build_refuses_as_the_reference_does(graph, ribbon, fragment):
    assert _assert_reference_build(graph, ribbon) is None
    with pytest.raises(RibbonError) as err:
        build_surface(graph, ribbon)
    assert str(err.value) == fragment
