"""Rectangle complexes: building, cylinders, cone points, double covers."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multitwist.graphs import BipartiteConfigGraph, HarmonicAssignment, perron_pair
from multitwist.recipe import build_multicurves, loch_ness_tree
from multitwist.surfaces import (
    RibbonData,
    RibbonError,
    build_surface,
    cone_points,
    cylinders,
    euler_characteristic,
    is_translation,
    mark_faces,
    orientation_double_cover,
    _components,
    _config_graph,
    _corner_chains,
    ribbon_from_gluings,
    square_torus,
    staircase_complex,
)


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
        assert hc[0].circumference == 2 and hc[0].height == 1
        assert vc[0].circumference == 2 and vc[0].height == 1

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

    def test_nonpositive_values_rejected(self):
        g = double_edge_graph()
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0})
        with pytest.raises(ValueError, match="positive"):
            build_surface(g, rib, values={0: 1, 1: 0})


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

    def test_staircase_lam3_circumference_identity(self):
        st = staircase_complex(-4, 5, 3)
        h = st.harmonic
        for cyl in cylinders(st, "horizontal"):
            if not cyl.truncated:
                n = cyl.vertex
                assert cyl.circumference == 3 * h[n]  # r^(n-1) + r^(n+1) = 3 r^n

    def test_cylinder_fiber_duality(self):
        st = staircase_complex(-4, 5, 2)
        g = st.graph
        assert len(cylinders(st, "horizontal")) == len(g.part_i)
        assert len(cylinders(st, "vertical")) == len(g.part_j)


class TestConePoints:
    def test_torus_regular_point(self):
        import math

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
        import math
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
            rib = ribbon_from_gluings(m.edges, m.gluings)
            m2 = build_surface(m.graph, rib, values={v: 1 for v in m.graph.vertices()})
            assert m2.gluings == {k: v for k, v in m.gluings.items()}

    def test_side_glued_to_itself_has_no_ribbon(self):
        # a fold z -> -z + c along a side: the curve through it would cross
        # its square twice, once each way
        gluings = {(0, "E"): (0, "E", True), (0, "W"): (0, "W", True),
                   (0, "N"): (0, "S", False), (0, "S"): (0, "N", False)}
        with pytest.raises(RibbonError, match="crosses edge 0 twice"):
            ribbon_from_gluings([0], gluings)

    @pytest.mark.parametrize("source, weight", [((3, 2), 6), ((1, 2), 3),
                                                (loch_ness_tree(5), 2)])
    def test_recipe_outputs_round_trip(self, source, weight):
        # flipped arrows, handle splices ((3, 2, 6)) and arms of through
        # blocks (loch-ness): the table alone gives back the ribbon
        m = build_multicurves(source, weight).complex
        rib = ribbon_from_gluings(m.edges, m.gluings)
        assert rib == m.ribbon and rib.flips
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
        m = mark_faces(base, [base.corner_cycles[0].corners[0]])
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
        m = mark_faces(base, [even.corners[0]])
        cov = orientation_double_cover(m)
        assert sum(1 for c in cov.corner_cycles if c.puncture) == 2


# SHA-1 of everything build_surface lays out, pinned before sizes came from
# the curve values and corners straight off the gluing table: table order,
# frontier, corner cycles with their flags, cylinder layouts, corner index
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
                 list(m.corner_index.items())))
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
    n, sigma_h, sigma_v, flips = case
    graph = _config_graph(sigma_h, sigma_v, range(n))
    return build_surface(graph, RibbonData.make(sigma_h, sigma_v, flips))


# a corner (x, y) of the unit square; a side fixes one coordinate: the
# position along it is the other one
_XY = {"SW": (0, 0), "SE": (1, 0), "NE": (1, 1), "NW": (0, 1)}
_FIXED = {"W": (0, 0), "E": (0, 1), "S": (1, 0), "N": (1, 1)}


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
    m = _build(case)
    assert not m.frontier
    assert ribbon_from_gluings(m.edges, m.gluings) == m.ribbon


@settings(max_examples=150, deadline=None)
@given(case=st.booleans().flatmap(square_tiled))
def test_components_partition_their_universe(case):
    n, sigma_h, sigma_v, _ = case
    for mapping in (sigma_h, sigma_v):
        comps = _components(mapping, range(n))
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
