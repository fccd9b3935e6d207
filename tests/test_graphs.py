"""Configuration graphs and harmonic functions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multitwist.graphs import (
    BipartiteConfigGraph,
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
from multitwist.recipe import build_multicurves, loch_ness_tree


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

    @pytest.mark.parametrize("lam", [3, Fraction(5, 2), 7])
    @pytest.mark.parametrize("window", [(-9, 11), (4, 19), (-17, -6)])
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
