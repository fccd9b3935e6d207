"""Configuration graphs and harmonic functions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multitwist import graphs
from multitwist.graphs import (
    BipartiteConfigGraph,
    GraphError,
    HarmonicAssignment,
    LadderFamily,
    apply_adjacency,
    harmonic_closed_form,
    harmonic_truncated,
    lambda_zero,
    perron_pair,
    verify_harmonic,
)
from multitwist.quadfield import QuadExt, root_plus
from multitwist.recipe import build_multicurves, ladder_tree, loch_ness_tree
from test_formats import config_graphs


def k2():
    return BipartiteConfigGraph.make([0], [1], {0: (0, 1)}, 2)


def double_edge():
    return BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)


def path3():
    return BipartiteConfigGraph.make([0], [1, 3], {0: (0, 1), 1: (0, 3)}, 2)


class TestGraphInvariants:
    def test_rejects_odd_part_i(self):
        with pytest.raises(ValueError, match="even"):
            BipartiteConfigGraph.make([1], [2], {0: (1, 2)}, 2)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            BipartiteConfigGraph.make([0, 2], [1, 3], {0: (0, 1), 1: (2, 3)}, 2)

    def test_rejects_valence_overflow(self):
        with pytest.raises(ValueError, match="degree"):
            BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1), 2: (0, 1)}, 2)


class TestAdjacency:
    def test_single_edge_symmetry(self):
        out = apply_adjacency(k2(), {0: 1, 1: 1})
        assert out == {0: 1, 1: 1}

    def test_double_edge_multiplicity(self):
        out = apply_adjacency(double_edge(), {0: 1, 1: 1})
        assert out == {0: 2, 1: 2}

    def test_ladder_closed_form_value(self):
        fam = LadderFamily(-3, 3)
        lam = 3
        r = root_plus(lam)
        f = {n: r ** n for n in range(-3, 4)}
        out = apply_adjacency(fam.graph(), f)
        assert out[0] == 3  # r^-1 + r = lam

    def test_missing_vertex_is_an_error(self):
        with pytest.raises(ValueError, match="not defined"):
            apply_adjacency(k2(), {0: 1})

    @given(a=st.fractions(min_value=-5, max_value=5),
           b=st.fractions(min_value=-5, max_value=5))
    def test_linearity_exact(self, a, b):
        g = path3()
        f1 = {0: Fraction(1), 1: Fraction(2), 3: Fraction(-1)}
        f2 = {0: Fraction(3, 2), 1: Fraction(-5), 3: Fraction(7, 3)}
        comb = {v: a * f1[v] + b * f2[v] for v in f1}
        lhs = apply_adjacency(g, comb)
        a1 = apply_adjacency(g, f1)
        a2 = apply_adjacency(g, f2)
        assert lhs == {v: a * a1[v] + b * a2[v] for v in lhs}

    def test_degree_bound(self):
        for g in (k2(), double_edge(), path3(), LadderFamily(-4, 4).graph()):
            deg = apply_adjacency(g, {v: 1 for v in g.vertices()})
            assert all(d <= g.valence_bound for d in deg.values())


class TestPerron:
    def test_k2(self):
        h = perron_pair(k2())
        assert abs(h.lam - 1) < 1e-10
        assert abs(h[0] - 1) < 1e-10 and abs(h[1] - 1) < 1e-10

    def test_double_edge(self):
        h = perron_pair(double_edge())
        assert abs(h.lam - 2) < 1e-10

    def test_path3(self):
        h = perron_pair(path3())
        assert abs(h.lam - 2 ** 0.5) < 1e-10
        assert abs(h[0] - 1) < 1e-10
        assert abs(h[1] - 2 ** -0.5) < 1e-8

    def test_positive_and_normalized(self):
        for g in (k2(), double_edge(), path3(), LadderFamily(0, 9).graph()):
            h = perron_pair(g)
            assert all(v > 0 for v in h.values.values())
            assert max(h.values.values()) == pytest.approx(1.0)

    def test_relative_residual_on_deep_loch_ness(self):
        # the smallest Perron entries here are far below 1e-12 of the largest
        g = build_multicurves(loch_ness_tree(80), 2).complex.graph
        assert verify_harmonic(g, perron_pair(g), 1e-12).passes

    @pytest.mark.parametrize("tree", [loch_ness_tree, ladder_tree])
    @pytest.mark.parametrize("depth", [10, 40, 160])
    def test_recipe_graphs_meet_the_residual_with_max_exactly_one(self, tree, depth):
        g = build_multicurves(tree(depth), 2).complex.graph
        h = perron_pair(g)
        assert verify_harmonic(g, h, 1e-12).passes
        assert max(h.values.values()) == 1.0

    def test_repins_at_the_largest_entry(self, monkeypatch):
        # on the 25-vertex path the sweeps leave a plateau whose first
        # vertex is 8, while the Perron vector sin(pi (n + 1) / 26) peaks at 12
        pins = []
        newton = graphs._pinned_newton

        def spy(nbrs, v0, *args):
            pins.append(v0)
            return newton(nbrs, v0, *args)

        monkeypatch.setattr(graphs, "_pinned_newton", spy)
        g = LadderFamily(0, 24).graph()
        h = perron_pair(g)
        assert pins == [8, 12]
        assert h[12] == 1.0 and max(h.values.values()) == 1.0
        assert h.lam == pytest.approx(2 * math.cos(math.pi / 26), rel=1e-15)
        for n in range(25):
            assert h[n] == pytest.approx(math.sin(math.pi * (n + 1) / 26), rel=1e-13)
        assert verify_harmonic(g, h, 1e-12).passes


class TestClosedForm:
    def test_lambda_two_is_constant(self):
        h = harmonic_closed_form(LadderFamily(-2, 2), 2)
        assert all(v == 1 for v in h.values.values())

    def test_r_plus_value(self):
        h = harmonic_closed_form(LadderFamily(-3, 3), 3)
        assert abs(float(h[1]) - (3 + 5 ** 0.5) / 2) < 1e-12

    def test_interior_residual_exactly_zero(self):
        fam = LadderFamily(-20, 20)
        h = harmonic_closed_form(fam, 3)
        rep = verify_harmonic(fam.graph(), h, 1e-12, boundary=fam.boundary())
        assert rep.passes and rep.max_residual == 0

    def test_ladder_identity_on_grid(self):
        for k in range(2 * 8, 4 * 8 + 1):
            lam = Fraction(k, 8)
            r = root_plus(lam)
            assert r + 1 / r == lam  # exact, stronger than the 1e-14 bound

    def test_rejects_lambda_below_two(self):
        with pytest.raises(ValueError):
            harmonic_closed_form(LadderFamily(0, 3), Fraction(3, 2))

    @pytest.mark.parametrize("lam", [3, Fraction(5, 2), 7, Fraction(10, 3), Fraction(7, 3)])
    @pytest.mark.parametrize("window", [(-9, 11), (4, 19), (-17, -6), (-1, 0), (0, 1),
                                        (300, 305), (-305, -300)])
    def test_exact_heights_are_powers_of_r(self, lam, window):
        h = harmonic_closed_form(LadderFamily(*window), lam)
        r = root_plus(lam)
        assert h.lam == lam and list(h.values) == list(range(window[0], window[1] + 1))
        for n, x in h.values.items():
            assert isinstance(x, QuadExt)
            p = r ** n
            assert (x.a, x.b, x.d) == (p.a, p.b, p.d)
        for n in range(window[0] + 1, window[1]):
            assert h[n - 1] + h[n + 1] == lam * h[n]

    @pytest.mark.parametrize("lam", [Fraction(5, 2), Fraction(10, 3)])
    def test_rational_r_folds_to_the_rationals(self, lam):
        h = harmonic_closed_form(LadderFamily(-6, 7), lam)
        r = root_plus(lam)
        assert r.d == 0
        assert all(x.b == 0 and x.d == 0 for x in h.values.values())
        assert all(h[n] == r.a ** n for n in range(-6, 8))

    def test_lambda_two_shares_one_height(self):
        h = harmonic_closed_form(LadderFamily(-30, 31), 2)
        assert len({id(x) for x in h.values.values()}) == 1

    def test_constant_and_float_paths(self):
        h = harmonic_closed_form(LadderFamily(-3, 4), 2)
        assert h.lam == QuadExt(2) and h.values == {n: QuadExt(1) for n in range(-3, 5)}
        lam = QuadExt(1, 1, 5)  # irrational: no Fraction, so floats
        h = harmonic_closed_form(LadderFamily(-3, 4), lam)
        lam_f = float(lam)
        r = (lam_f + (lam_f * lam_f - 4.0) ** 0.5) / 2.0
        assert h.lam == lam_f and h.values == {n: r ** float(n) for n in range(-3, 5)}

    def test_float_lambda_takes_float_path(self):
        # a float is not turned into its exact binary fraction (a radicand
        # of about 100 bits)
        h = harmonic_closed_form(LadderFamily(-4, 5), 3.1)
        r = (3.1 + (3.1 * 3.1 - 4.0) ** 0.5) / 2.0
        assert h.lam == 3.1 and h.values == {n: r ** n for n in range(-4, 6)}
        assert all(type(x) is float for x in h.values.values())

    def test_float_heights_that_overflow_are_a_domain_error(self):
        with pytest.raises(ValueError, match="overflow"):
            harmonic_closed_form(LadderFamily(-800, 800), 3.0)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, 1.5])
    def test_non_finite_or_small_float_lambda_is_a_domain_error(self, lam):
        with pytest.raises(ValueError):
            harmonic_closed_form(LadderFamily(-4, 5), lam)


class TestTruncated:
    def test_matches_closed_form(self):
        fam = LadderFamily(-5, 5)
        h = harmonic_closed_form(fam, 3)
        res = harmonic_truncated(fam.graph(), 3,
                                 {v: float(h[v]) for v in fam.boundary()})
        assert res.positive
        for v in fam.interior():
            assert res.values[v] == pytest.approx(float(h[v]), abs=1e-10)

    def test_constant_solution(self):
        fam = LadderFamily(-4, 4)
        res = harmonic_truncated(fam.graph(), 2, {v: 1.0 for v in fam.boundary()})
        assert res.positive
        assert all(abs(x - 1) < 1e-10 for x in res.values.values())

    def test_star_center(self):
        g = BipartiteConfigGraph.make([0], [1, 3, 5],
                                      {0: (0, 1), 1: (0, 3), 2: (0, 5)}, 3)
        res = harmonic_truncated(g, 3, {1: 1.0, 3: 1.0, 5: 1.0})
        assert res.values[0] == pytest.approx(1.0)

    def test_positivity_failure_is_reported_not_raised(self):
        # lam = 1.9 lies below rho(A_int) = 2 cos(pi/12) of the 11-vertex interior
        fam = LadderFamily(-6, 6)
        res = harmonic_truncated(fam.graph(), 1.9, {-6: 1.0, 6: 1.0})
        assert res.positive is False
        assert res.nonpositive_vertices == tuple(range(-4, 5))

    def test_positive_verdict_is_scale_free(self):
        # values span r^-1500 .. r^1500 with r = 5/4, about 1e-145 .. 1e145
        fam = LadderFamily(-1500, 1500)
        r = 1.25
        res = harmonic_truncated(fam.graph(), 2.05, {-1500: r ** -1500, 1500: r ** 1500})
        assert res.positive and res.nonpositive_vertices == ()
        for n in fam.interior():
            assert res.values[n] == pytest.approx(r ** n, rel=1e-10)

    def test_underflow_raises(self):
        # the middle values are near 2^-1500, below the float range
        fam = LadderFamily(-1500, 1500)
        with pytest.raises(ValueError, match="underflow"):
            harmonic_truncated(fam.graph(), 2.5, {-1500: 1.0, 1500: 1.0})

    def test_empty_boundary_raises(self):
        with pytest.raises(ValueError, match="boundary"):
            harmonic_truncated(path3(), 3, {})

    def test_exact_solve_on_fractions(self):
        # r = 2 at lam = 5/2, so the solution is 2^n exactly, and the float
        # solve of the same system agrees to rounding
        fam = LadderFamily(-5, 5)
        res = harmonic_truncated(fam.graph(), Fraction(5, 2),
                                 {-5: Fraction(1, 32), 5: Fraction(32)})
        assert res.positive and res.nonpositive_vertices == ()
        assert res.values == {n: Fraction(2) ** n for n in range(-5, 6)}
        assert all(type(x) is Fraction for x in res.values.values())
        flt = harmonic_truncated(fam.graph(), 2.5, {-5: 1 / 32, 5: 32.0})
        assert flt.positive
        for n in fam.interior():
            assert type(flt.values[n]) is float
            assert abs(flt.values[n] - 2.0 ** n) <= 1e-12 * 2.0 ** n

    def test_exact_pivots_decide_positivity(self):
        # rho(A_int) = 2 cos(pi/12) of the 11-vertex interior lies in (19/10, 2)
        fam = LadderFamily(-6, 6)
        below = harmonic_truncated(fam.graph(), Fraction(19, 10), {-6: 1, 6: 1})
        assert not below.positive and below.nonpositive_vertices == tuple(range(-4, 5))
        above = harmonic_truncated(fam.graph(), Fraction(2), {-6: 1, 6: 1})
        assert above.positive and above.values == dict.fromkeys(range(-6, 7), 1)

    def test_zero_pivot_is_degenerate(self):
        # K2 with one boundary end: the interior pivot is lam itself
        with pytest.raises(ValueError, match="^degenerate truncation: zero pivot at vertex 1$"):
            harmonic_truncated(k2(), 0, {0: 1})


@pytest.mark.parametrize("lam, values, fragment", [
    (math.inf, {0: 1}, "harmonic lam inf is not finite"),
    (-math.inf, {0: 1}, "harmonic lam -inf is not finite"),
    (math.nan, {0: 1}, "harmonic lam nan is not finite"),
    (2, {0: 1, 1: math.inf}, "must be finite; offending vertices [1]"),
], ids=["lam-inf", "lam-minus-inf", "lam-nan", "value-inf"])
def test_harmonic_assignment_refuses_non_finite_numbers(lam, values, fragment):
    """What a harmonic file could not hold is refused where it is made."""
    with pytest.raises(ValueError) as err:
        HarmonicAssignment(lam=lam, values=values)
    assert fragment in str(err.value)


class TestVerify:
    def test_perturbation_localizes(self):
        fam = LadderFamily(-4, 4)
        h = harmonic_closed_form(fam, 2)
        vals = {v: Fraction(1) for v in h.values}
        vals[0] += Fraction(1, 10)
        bad = HarmonicAssignment(lam=Fraction(2), values=vals)
        rep = verify_harmonic(fam.graph(), bad, 1e-12, boundary=fam.boundary())
        assert not rep.passes
        hot = {v for v, r in rep.per_vertex.items() if r != 0 and v in fam.interior()}
        assert hot == {-1, 0, 1}  # the vertex and its neighbours

    def test_k2_exact(self):
        h = HarmonicAssignment(lam=1, values={0: 1, 1: 1})
        rep = verify_harmonic(k2(), h, 0.0)
        assert rep.passes and rep.max_residual == 0


def test_lambda_zero_on_ladder_is_two():
    fam = LadderFamily(-6, 6)
    g = fam.graph()
    boundary = {v: 1.0 for v in fam.boundary()}
    lz = lambda_zero(g, boundary)
    assert lz == 2.0  # rho(A_int) = 2 cos(pi/12) < 2


@given(config_graphs())
def test_perron_pair_on_random_multigraphs(g):
    # a positive eigenvector certifies the Perron eigenvalue
    h = perron_pair(g)
    assert verify_harmonic(g, h, 1e-12).passes
    assert max(h.values.values()) == 1.0


@given(st.data())
def test_lambda_zero_is_the_positivity_threshold(data):
    g = data.draw(config_graphs())
    verts = sorted(g.vertices())
    boundary = dict.fromkeys(data.draw(st.lists(st.sampled_from(verts), min_size=1,
                                                unique=True)), 1.0)
    lz = lambda_zero(g, boundary)
    assert harmonic_truncated(g, lz * (1 + 1e-9), boundary).positive
    if lz > 2:
        assert not harmonic_truncated(g, lz * (1 - 1e-9), boundary).positive


@pytest.mark.parametrize("mult, rho", [(2, math.sqrt(5)), (3, 3.0)])
def test_lambda_zero_takes_the_largest_component(mult, rho):
    # the boundary vertex 11 splits A_int into the star K_{1,5} about 1
    # (rho sqrt 5) and mult parallel edges 20 -- 21 (rho mult)
    edges = {k: (v, 1) for k, v in enumerate((0, 2, 4, 6, 8))}
    edges.update({5: (8, 11), 6: (20, 11)})
    edges.update({7 + k: (20, 21) for k in range(mult)})
    g = BipartiteConfigGraph.make([0, 2, 4, 6, 8, 20], [1, 11, 21], edges, 6)
    lz = lambda_zero(g, {11: 1.0})
    assert lz == pytest.approx(rho, rel=1e-14)
    assert harmonic_truncated(g, lz * (1 + 1e-9), {11: 1.0}).positive
    assert not harmonic_truncated(g, lz * (1 - 1e-9), {11: 1.0}).positive


@given(g=config_graphs(), data=st.data())
def test_make_sorts_shuffled_edges(g, data):
    """make sorts the rows, so a shuffled edge dict gives the same graph,
    and each vertex's incidences come out sorted without a sort of their
    own; a duplicate id is still refused wherever it was inserted."""
    rows = data.draw(st.permutations(g.edges))
    h = BipartiteConfigGraph.make(g.part_i, g.part_j, {e: (i, j) for e, i, j in rows},
                                  g.valence_bound)
    assert h == g
    for v in h.vertices():
        expected = sorted((e, j if v == i else i) for e, i, j in rows if v in (i, j))
        assert h.incident(v) == g.incident(v) == tuple(expected)
    e, i, j = data.draw(st.sampled_from(rows))
    at = data.draw(st.integers(0, len(rows)))
    items = [(e2, (i2, j2)) for e2, i2, j2 in rows]
    twin = dict(items[:at] + [(str(e), (i, j))] + items[at:])
    with pytest.raises(GraphError) as err:
        BipartiteConfigGraph.make(g.part_i, g.part_j, twin, 2 * len(rows))
    assert (str(err.value), err.value.edge) == (f"duplicate edge id {e}", e)


@pytest.mark.parametrize("solve", [lambda g, b: harmonic_truncated(g, 3, b), lambda_zero],
                         ids=["harmonic_truncated", "lambda_zero"])
def test_empty_boundary_is_refused(solve):
    with pytest.raises(ValueError) as info:
        solve(path3(), {})
    assert str(info.value) == "truncated solve needs at least one boundary vertex"


_WINDOW = LadderFamily(-3, 3)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: BipartiteConfigGraph.make([0], [1], {1: (0, 1), "1": (0, 1)}, 2),
                 "duplicate edge id 1", id="repeated-edge-id"),
    pytest.param(lambda: BipartiteConfigGraph.make([0], [1], {0: (1, 0)}, 2),
                 "edge 0=(1,0) does not join I to J", id="edge-not-from-I-to-J"),
    pytest.param(lambda: HarmonicAssignment(lam=2, values={0: 1, 1: 0}),
                 "harmonic values must be positive; offending vertices [1]", id="value-zero"),
    pytest.param(lambda: LadderFamily(3, 3), "window must contain at least one edge",
                 id="empty-ladder-window"),
    pytest.param(lambda: perron_pair(BipartiteConfigGraph.make([0], [], {}, 1)),
                 "graph needs at least one edge", id="edgeless-perron"),
    # lam = 3/2 lies below sqrt 3, the spectral radius of the interior path
    pytest.param(lambda: harmonic_truncated(_WINDOW.graph(), Fraction(3, 2),
                                            {-3: 1, 3: 1}).assignment(),
                 "solution not positive at (-2, -1, 0, 1, 2)", id="assignment-not-positive"),
    pytest.param(lambda: harmonic_truncated(_WINDOW.graph(), 3, {99: 1}),
                 "boundary vertex 99 not in graph", id="boundary-vertex-unknown"),
    pytest.param(lambda: harmonic_truncated(_WINDOW.graph(), 3, {-3: 0, 3: 1}),
                 "boundary value at -3 must be positive", id="boundary-value-zero"),
])
def test_refusals_name_what_is_wrong(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)
