"""Straight-line flow, twists, separatrices, convergence scenarios."""

import dataclasses
import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from multitwist.flow import (
    FlowError,
    SaddleSearchReport,
    Segment,
    SurfacePoint,
    Trajectory,
    canonical_point,
    closure_length,
    compact_open_convergence_check,
    coverage_stats,
    detect_saddle_connection,
    flow,
    separatrices,
    twist_action,
    visit_lengths,
    _land,
    _walk,
)
from multitwist.formats import parse_surface, write_surface
from multitwist.graphs import BipartiteConfigGraph, HarmonicAssignment
from multitwist.mobius import TwistWord, eigendirections, rho
from multitwist.quadfield import QuadExt
from multitwist.recipe import build_multicurves, loch_ness_tree
from multitwist.surfaces import (RibbonData, build_surface, mark_faces, square_torus,
                                 staircase_complex)


flow_module = importlib.import_module("multitwist.flow")  # the package exports flow()


def pillowcase():
    g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
    rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=[(0, "N"), (1, "N")])
    return build_surface(g, rib, HarmonicAssignment(lam=2, values={0: 1, 1: 1}))


def fs3_complex():
    """Genus-1 complex with faces {2,2,6,6}: carries a 3pi cone."""
    g = BipartiteConfigGraph.make([0, 2], [1],
                                  {0: (0, 1), 1: (0, 1), 2: (2, 1), 3: (2, 1)}, 4)
    rib = RibbonData.make({0: 1, 1: 0, 2: 3, 3: 2}, {0: 1, 1: 3, 3: 2, 2: 0},
                          flips=[(0, "E"), (1, "E")])
    return build_surface(g, rib, values={v: 1 for v in g.vertices()})


def double_handle():
    """Genus-2 complex with two 4pi cones (faces {8,8})."""
    g = BipartiteConfigGraph.make([0, 2], [1],
                                  {0: (0, 1), 1: (0, 1), 2: (2, 1), 3: (2, 1)}, 4)
    rib = RibbonData.make({0: 1, 1: 0, 2: 3, 3: 2}, {0: 1, 1: 3, 3: 2, 2: 0})
    return build_surface(g, rib, values={v: 1 for v in g.vertices()})


class TestTorusFlow:
    def test_slope_one_closes_at_sqrt2(self):
        t = square_torus()
        L = closure_length(t, SurfacePoint(0, Fraction(1, 4), Fraction(0)),
                           (Fraction(1), Fraction(1)), 3.0)
        assert L == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_rational_slopes_close(self):
        t = square_torus()
        for (q, p), want in (((3, 2), math.sqrt(13)), ((8, 5), math.sqrt(89))):
            L = closure_length(t, SurfacePoint(0, Fraction(1, 7), Fraction(0)),
                               (Fraction(q), Fraction(p)), 2 * want)
            assert L == pytest.approx(want, abs=1e-9)

    def test_corner_start_is_refused(self):
        with pytest.raises(FlowError, match="separatrices"):
            flow(square_torus(), SurfacePoint(0, 0, 0), (1, 1), 1.0)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_EXACT_WINDOW = staircase_complex(-3, 4, 2)


class TestFlowMechanics:
    def test_reversibility(self):
        st = staircase_complex(-10, 11, 2, exact=False)
        p0 = SurfacePoint(0, 0.3, 0.45)
        fwd = flow(st, p0, (1.0, 0.62), 25.0)
        assert fwd.terminal == "budget"
        back = flow(st, fwd.final_point,
                    (-fwd.final_direction[0], -fwd.final_direction[1]),
                    fwd.total_length)
        tol = 1e-9 * max(1, len(fwd.segments))
        assert back.final_point.edge == p0.edge
        assert float(back.final_point.x) == pytest.approx(0.3, abs=tol)
        assert float(back.final_point.y) == pytest.approx(0.45, abs=tol)

    def test_reversibility_through_flips(self):
        m = pillowcase()
        p0 = SurfacePoint(0, 0.21, 0.6)
        fwd = flow(m, p0, (0.31, 1.0), 9.0)
        back = flow(m, fwd.final_point,
                    (-fwd.final_direction[0], -fwd.final_direction[1]),
                    fwd.total_length)
        assert back.final_point.edge == p0.edge
        assert float(back.final_point.x) == pytest.approx(0.21, abs=1e-8)

    def test_gluing_consistency_exact(self):
        st = staircase_complex(-6, 7, 2)
        traj = flow(st, SurfacePoint(0, Fraction(1, 3), Fraction(1, 7)),
                    (Fraction(2), Fraction(1)), 10.0)
        for a, b in zip(traj.segments, traj.segments[1:]):
            # exit point maps onto the next entry through one gluing
            w, h = st.width[a.edge], st.height[a.edge]
            if a.x_out == w:
                side, coord = "E", a.y_out
            elif a.x_out == 0:
                side, coord = "W", a.y_out
            elif a.y_out == h:
                side, coord = "N", a.x_out
            else:
                side, coord = "S", a.x_out
            e2, s2, rev = st.gluings[(a.edge, side)]
            landing = _land(st.width[e2], st.height[e2], s2, rev, coord)
            assert (b.edge, b.x_in, b.y_in) == (e2, *landing)

    def test_segment_lengths_sum(self):
        t = square_torus()
        traj = flow(t, SurfacePoint(0, 0.25, 0.0), (1.0, 1.0), 5.0)
        assert traj.total_length == pytest.approx(5.0)

    def test_window_exit(self):
        st = staircase_complex(-2, 3, 2)
        traj = flow(st, SurfacePoint(0, Fraction(1, 4), Fraction(1, 8)),
                    (Fraction(1), Fraction(1)), 100.0)
        assert traj.terminal == "window-exit"

    @settings(max_examples=150, deadline=None)
    @given(budget=st.floats(max_value=40.0) | _NON_FINITE, dx=st.just(1) | _NON_FINITE,
           exact=st.booleans())
    def test_non_finite_floats_are_refused_before_the_first_crossing(self, budget, dx, exact):
        """A float budget or direction component that is NaN or infinite
        raises FlowError before any crossing, in exact and float flows and
        in the saddle search alike (a negative budget beside a non-finite
        direction may be refused as negative instead); a finite budget runs
        or is refused as negative."""
        p = SurfacePoint(0, Fraction(1, 4), Fraction(1, 10)) if exact else SurfacePoint(0, 0.25, 0.1)
        d = (dx, 2)
        if not (math.isfinite(budget) and math.isfinite(dx)):
            refusal = "is not finite|must be nonnegative"
            with pytest.raises(FlowError, match=refusal):
                flow(_EXACT_WINDOW, p, d, budget)
            with pytest.raises(FlowError, match=refusal):
                detect_saddle_connection(_EXACT_WINDOW, d, budget)
        elif budget < 0:
            with pytest.raises(FlowError, match="nonnegative"):
                flow(_EXACT_WINDOW, p, d, budget)
        else:
            assert float(flow(_EXACT_WINDOW, p, d, budget).total_length) <= budget + 1e-9

    def test_direction_that_rounds_to_zero_is_refused(self):
        # an exact component beside a float one is flowed in floats
        with pytest.raises(FlowError, match="nonzero"):
            flow(square_torus(), SurfacePoint(0, 0.25, 0.5), (Fraction(1, 10 ** 400), 0.0), 1.0)

    @pytest.mark.parametrize("direction, budget, name", [
        ((Fraction(10 ** 400), 1.0), 1.0, "direction dx"),
        ((1.0, -10 ** 400), 1.0, "direction dy"),
        ((1.0, 2.0), Fraction(10 ** 400, 3), "length budget"),
    ])
    def test_input_beyond_float_range_is_refused(self, direction, budget, name):
        # a float flow refuses, naming the input, instead of raising OverflowError
        with pytest.raises(FlowError, match=f"{name} is too large for a float"):
            flow(square_torus(), SurfacePoint(0, 0.25, 0.5), direction, budget)

    def test_canonical_point_prefers_south_west(self):
        t = square_torus()
        p = canonical_point(t, SurfacePoint(0, 1, Fraction(1, 3)))
        assert p.x == 0  # east side folded onto the west side


class TestFlowKernel:
    def test_flowing_leaves_the_complex_unchanged(self):
        st = staircase_complex(-8, 9, 3)
        text, shown = write_surface(st), repr(st)
        flow(st, SurfacePoint(0, Fraction(1, 3), Fraction(1, 5)), (Fraction(2), Fraction(1)), 6)
        flow(st, SurfacePoint(1, 0.4, 0.3), (0.8, -0.6), 20.0)  # float flow, float chart table
        assert st == parse_surface(write_surface(st))
        assert repr(st) == shown
        assert write_surface(st) == text

    def test_only_float_flows_build_the_flow_table(self):
        st = staircase_complex(-8, 9, 3)
        flow(st, SurfacePoint(0, Fraction(1, 3), Fraction(1, 5)), (Fraction(2), Fraction(1)), 6)
        assert "charts" not in vars(st)  # exact flows read width, height and gluings
        assert st.radicands == {5}
        flow(st, SurfacePoint(1, 0.4, 0.3), (0.8, -0.6), 20.0)
        assert all(type(w) is float and type(h) is float for w, h, *_ in st.charts.values())
        assert staircase_complex(-8, 9, 3, exact=False).radicands is None

    def test_float_flow_on_an_exact_window_matches_the_float_window(self):
        ex = staircase_complex(-20, 21, 3)
        fl = staircase_complex(-20, 21, 3, exact=False)
        assert all(float(ex.width[e]) == fl.width[e] and float(ex.height[e]) == fl.height[e]
                   for e in ex.width)
        rng = random.Random(7)
        for _ in range(20):
            e = rng.randint(-4, 0)
            p = SurfacePoint(e, float(ex.width[e]) * rng.uniform(0.05, 0.95),
                             float(ex.height[e]) * rng.uniform(0.05, 0.95))
            a = rng.uniform(0, 2 * math.pi)
            d = (math.cos(a), math.sin(a))
            on_exact, on_float = flow(ex, p, d, 15.0), flow(fl, p, d, 15.0)
            assert len(on_exact.segments) > 1
            assert on_exact == on_float
            assert all(type(v) is float for s in on_exact.segments for v in s[1:6])

    def test_a_corner_tie_reports_the_corner(self):
        # from (1/2, 0) on the unit torus, direction (1, 2) meets the east
        # and the north wall at t = 1/2: the ray ends on the NE corner after
        # one segment of length sqrt(5)/2; direction (-1, 2) on the NW corner
        t = square_torus()
        start = SurfacePoint(0, Fraction(1, 2), Fraction(0))
        for d, corner, x_out in (((1, 2), "NE", 1), ((-1, 2), "NW", 0)):
            traj = flow(t, start, (Fraction(d[0]), Fraction(d[1])), 5)
            assert traj.terminal == "singular"
            assert traj.terminal_detail == (0, corner)
            assert traj.min_corner_distance == 0.0
            (seg,) = traj.segments
            assert (seg.x_out, seg.y_out) == (x_out, 1)
            assert seg.length == pytest.approx(math.sqrt(5) / 2)
            ftraj = flow(t, SurfacePoint(0, 0.5, 0.0), (float(d[0]), float(d[1])), 5.0)
            assert (ftraj.terminal, ftraj.terminal_detail) == ("singular", (0, corner))

    def test_segment_is_an_immutable_named_tuple(self):
        traj = flow(square_torus(), SurfacePoint(0, 0.25, 0.0), (1.0, 1.0), 2.0)
        seg = traj.segments[0]
        assert isinstance(seg, Segment)
        assert (seg.edge, seg.x_in, seg.y_in, seg.x_out, seg.y_out) == (0, 0.25, 0.0, 1.0, 0.75)
        assert seg.length == pytest.approx(0.75 * math.sqrt(2))
        assert seg.dir_in == (1.0, 1.0)
        assert seg == (0, 0.25, 0.0, 1.0, 0.75, seg.length, (1.0, 1.0))
        with pytest.raises(AttributeError):
            seg.edge = 1
        with pytest.raises(TypeError):
            seg[0] = 1


class TestTwist:
    def test_boundary_fixed(self):
        st = staircase_complex(-4, 5, 2)
        p = SurfacePoint(0, Fraction(1, 3), Fraction(0))
        assert twist_action(st, "alpha", p, 1) == p

    def test_midheight_shifts_half_circumference(self):
        st = staircase_complex(-4, 5, 2)
        p = SurfacePoint(0, Fraction(1, 4), Fraction(1, 2))
        q = twist_action(st, "alpha", p, 1)
        # shear by lam*y = 1: into the partner square of the 2-square cylinder
        assert q.edge != p.edge and q.y == Fraction(1, 2)

    def test_group_action_powers(self):
        st = staircase_complex(-4, 5, 2)
        p = SurfacePoint(0, Fraction(1, 5), Fraction(2, 7))
        once_twice = twist_action(st, "alpha", twist_action(st, "alpha", p, 1), 1)
        assert once_twice == twist_action(st, "alpha", p, 2)
        assert twist_action(st, "alpha", twist_action(st, "alpha", p, 1), -1) == p

    def test_vertical_sign_convention(self):
        # beta twist moves points by (x, y) -> (x, y - lam*x) in cylinder
        # coordinates, matching the derivative [[1, 0], [-lam, 1]]
        st = staircase_complex(-4, 5, 2, exact=False)
        p = SurfacePoint(0, 0.5, 0.25)
        q = twist_action(st, "beta", p, 1)
        lay = st.v_layouts[1]
        k_p, k_q = lay.edges.index(p.edge), lay.edges.index(q.edge)
        y_p = lay.offsets[k_p] + (p.y if lay.orients[k_p] == 1 else st.height[p.edge] - p.y)
        y_q = lay.offsets[k_q] + (q.y if lay.orients[k_q] == 1 else st.height[q.edge] - q.y)
        shift = (y_q - y_p) % float(lay.length)
        assert shift == pytest.approx((-2 * 0.5) % float(lay.length))

    def test_derivative_matches_matrix(self):
        st = staircase_complex(-4, 5, 2, exact=False)
        p = SurfacePoint(0, 0.5, 0.25)
        step = 1e-4
        q0 = twist_action(st, "alpha", p, 1)
        q1 = twist_action(st, "alpha", SurfacePoint(0, 0.5, 0.25 + step), 1)
        # same chart here, so the finite difference reads off the shear
        dx_dy = (float(q1.x) - float(q0.x)) / step
        dy_dy = (float(q1.y) - float(q0.y)) / step
        assert dx_dy == pytest.approx(2.0, abs=1e-6)  # lam = 2
        assert dy_dy == pytest.approx(1.0, abs=1e-6)

    def test_support_restriction(self):
        st = staircase_complex(-4, 5, 2)
        p = SurfacePoint(0, Fraction(1, 4), Fraction(1, 2))
        assert twist_action(st, "alpha", p, 1, support={2}) == p  # 0 not in support
        moved = twist_action(st, "alpha", p, 1, support={0})
        assert moved != p

    def test_unknown_family_refused(self):
        st = staircase_complex(-4, 5, 2)
        with pytest.raises(ValueError, match="family must be alpha or beta"):
            twist_action(st, "gamma", SurfacePoint(0, Fraction(1, 4), Fraction(1, 2)), 1)

    def test_complex_without_modulus_refused(self):
        g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
        m = build_surface(g, RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}))  # unit squares
        assert m.lam is None
        with pytest.raises(ValueError, match="complex carries no modulus parameter"):
            twist_action(m, "alpha", SurfacePoint(0, Fraction(1, 4), Fraction(1, 2)), 1)

    @pytest.mark.parametrize("family, vertex", [("alpha", 0), ("beta", 1)])
    def test_cylinder_off_the_modulus_law_refused(self, family, vertex):
        # two unit squares make cylinders of modulus 1/2, not 1/3
        g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
        m = build_surface(g, RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}),
                          HarmonicAssignment(lam=3, values={0: 1, 1: 1}))
        with pytest.raises(ValueError, match=f"cylinder at vertex {vertex} has modulus != 1/lam"):
            twist_action(m, family, SurfacePoint(0, Fraction(1, 4), Fraction(1, 2)), 1)

    @pytest.mark.parametrize("family, edge, vertex", [("alpha", -4, -4), ("beta", 4, 5)])
    def test_window_truncated_cylinder_refused(self, family, edge, vertex):
        st = staircase_complex(-4, 5, 2)  # curves -4 and 5 are cut open by the window
        p = SurfacePoint(edge, st.width[edge] / 2, st.height[edge] / 2)
        with pytest.raises(ValueError, match=f"cylinder at vertex {vertex} is window-truncated"):
            twist_action(st, family, p, 1)


def double_edge_complex(flips, exact):
    """Two unit squares over the double-edge graph at lam = 2: each family
    is one cylinder of modulus 1/2; flips rotate charts along it."""
    g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
    rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=flips)
    one = 1 if exact else 1.0
    return build_surface(g, rib, HarmonicAssignment(lam=2 * one, values={0: one, 1: one}))


class TestTwistRotatedCharts:
    FLIPS = {"N": [(0, "N"), (1, "N")], "E": [(0, "E"), (1, "E")],
             "NE": [(0, "N"), (1, "N"), (0, "E"), (1, "E")]}
    # dyadic coordinates keep float arithmetic exact at lam = 2
    INTERIOR = ((Fraction(1, 8), Fraction(3, 16)), (Fraction(3, 4), Fraction(5, 8)),
                (Fraction(1, 2), Fraction(7, 8)))

    @staticmethod
    def points(m, coords):
        num = float if isinstance(m.lam, float) else Fraction
        return [SurfacePoint(e, num(x), num(y)) for e in (0, 1) for x, y in coords]

    @pytest.mark.parametrize("flips", FLIPS)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("family", ["alpha", "beta"])
    def test_group_action(self, flips, exact, family):
        m = double_edge_complex(self.FLIPS[flips], exact)
        assert -1 in m.h_layouts[0].orients + m.v_layouts[1].orients
        for p in self.points(m, self.INTERIOR):
            once = twist_action(m, family, p, 1)
            assert once != p
            assert twist_action(m, family, once, -1) == p
            assert twist_action(m, family, once, 1) == twist_action(m, family, p, 2)

    @pytest.mark.parametrize("flips", FLIPS)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    @pytest.mark.parametrize("family", ["alpha", "beta"])
    def test_boundary_fixed(self, flips, exact, family):
        m = double_edge_complex(self.FLIPS[flips], exact)
        along = (Fraction(1, 8), Fraction(1, 2), Fraction(3, 4))
        ends = (Fraction(0), Fraction(1))
        coords = [(a, b) if family == "alpha" else (b, a)
                  for a, b in itertools.product(along, ends)]
        for p in self.points(m, coords):
            for power in (-1, 1, 2):
                assert twist_action(m, family, p, power) == p


class TestSeparatrices:
    def test_regular_point_two_rays(self):
        t = square_torus()
        rays = separatrices(t, 0, (1, 1))
        assert len(rays) == 2

    def test_pi_cone_single_ray(self):
        m = pillowcase()
        cyc = next(c for c in m.corner_cycles if c.k == 2)
        rays = separatrices(m, cyc.index, (1, 2))
        assert len(rays) == 1

    def test_3pi_cone_three_rays(self):
        m = fs3_complex()
        cyc = next(c for c in m.corner_cycles if c.k == 6)
        assert len(separatrices(m, cyc.index, (1, 2))) == 3

    def test_4pi_cone_four_rays(self):
        m = double_handle()
        cyc = next(c for c in m.corner_cycles if c.k == 8)
        assert len(separatrices(m, cyc.index, (2, 1))) == 4

    def test_count_matches_angle_for_several_directions(self):
        m = fs3_complex()
        for cyc in m.corner_cycles:
            for d in ((1, 0), (0, 1), (1, 1), (2, 3), (-1, 2)):
                assert len(separatrices(m, cyc.index, d)) == cyc.k // 2

    def test_opposite_directions_give_the_same_rays(self):
        for m in (fs3_complex(), staircase_complex(-3, 4, 2)):
            for cyc in m.corner_cycles:
                for dx, dy in ((1, 0), (0, 1), (1, 1), (2, 3), (-1, 2)):
                    assert (separatrices(m, cyc.index, (-dx, -dy))
                            == separatrices(m, cyc.index, (dx, dy)))

    @pytest.mark.parametrize("direction, expected", [
        ((0.0, 1.0), [(-0.0, -1.0), (0.0, 1.0)]),
        ((-0.0, 1.0), [(0.0, -1.0), (-0.0, 1.0)]),
        ((1.0, 0.0), [(-1.0, -0.0), (1.0, 0.0)]),
        ((1.0, -0.0), [(-1.0, 0.0), (1.0, -0.0)]),
    ])
    def test_axis_rays_keep_signed_zeros(self, direction, expected):
        # quarter turns are negations and swaps, so the sign of a zero
        # component follows the direction as given
        rays = [d for _, d in separatrices(square_torus(), 0, direction)]
        signs = [[math.copysign(1, v) for v in d] for d in rays]
        assert rays == expected and signs == [[math.copysign(1, v) for v in d] for d in expected]

    def test_puncture_refused(self):
        m = pillowcase()
        m2 = mark_faces(m, [0])
        with pytest.raises(FlowError, match="puncture"):
            separatrices(m2, 0, (1, 1))

    def test_rays_flow_inward(self):
        m = double_handle()
        for cyc in m.corner_cycles:
            for pos, d in separatrices(m, cyc.index, (1, 3)):
                traj = flow(m, pos, d, 0.5, _allow_corner_start=True)
                assert traj.segments  # launched without an immediate hit


class TestSaddleConnections:
    def test_torus_horizontal_side(self):
        rep = detect_saddle_connection(square_torus(), (1, 0), 2.0)
        assert rep.found is not None
        assert rep.found[3] == pytest.approx(1.0)

    def test_staircase_strip_boundary_diagonal(self):
        # the slope-1 direction at lam=2 is the parabolic eigendirection:
        # strip boundaries are singular leaves, so the search finds the
        # diagonal of the first square
        st = staircase_complex(-6, 7, 2)
        rep = detect_saddle_connection(st, (1, 1), 10.0)
        assert rep.found is not None
        assert rep.found[3] == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_punctured_cycles_launch_no_rays(self):
        # an irrational slope on a square-tiled surface meets no corner
        m = build_multicurves((2, 4), 5).complex
        assert any(c.puncture for c in m.corner_cycles)
        rep = detect_saddle_connection(m, (1.0, math.sqrt(2)), 3.0)
        assert rep.found is None
        assert rep.rays_launched == sum(c.k // 2 for c in m.corner_cycles if not c.puncture)

    def test_renormalizable_direction_has_none(self):
        # the window keeps every rectangle big enough (r^-8 ~ 4.5e-4) that
        # corner distances stay well clear of the hit tolerance
        st = staircase_complex(-8, 9, 3, exact=False)
        exp = eigendirections(rho(TwistWord.make("aB"), 3))[0]
        rep = detect_saddle_connection(st, (float(exp.x), float(exp.y)), 120.0)
        assert rep.found is None
        assert rep.min_corner_distance > 1e-6


def _reference_search(m, direction, length_bound) -> SaddleSearchReport:
    """detect_saddle_connection recomputed with separatrices() and flow():
    cycles in order, rays in order, stopping at the first singular ray."""
    rays = exits = 0
    min_corner = math.inf
    for cycle in m.corner_cycles:
        if cycle.puncture:
            continue
        for ridx, (pos, chart_dir) in enumerate(separatrices(m, cycle.index, direction)):
            rays += 1
            traj = flow(m, pos, chart_dir, length_bound, _allow_corner_start=True)
            min_corner = min(min_corner, traj.min_corner_distance)
            if traj.terminal == "singular":
                found = (cycle.index, ridx, traj.terminal_detail, traj.total_length)
                return SaddleSearchReport(found, rays, exits, traj.min_corner_distance)
            exits += traj.terminal == "window-exit"
    return SaddleSearchReport(None, rays, exits, min_corner)


def _assert_same_search(m, direction, length_bound) -> SaddleSearchReport:
    rep = detect_saddle_connection(m, direction, length_bound)
    ref = _reference_search(m, direction, length_bound)
    assert rep == ref
    if rep.found is not None:  # the length is the flow's own sum, of the same type
        assert type(rep.found[3]) is type(ref.found[3])
    return rep


class TestSaddleSearchWalk:
    """The search runs flow's crossing loop without recording segments and
    must report exactly what flowing each ray would."""

    def test_walk_without_segments_reports_what_flow_does(self):
        st2 = staircase_complex(-8, 9, 2)
        st3 = staircase_complex(-8, 9, 3)
        tiny = Fraction(1, 10 ** 200)
        runs = [
            (square_torus(), SurfacePoint(0, Fraction(1, 4), Fraction(1, 7)), (Fraction(1), Fraction(2)), 3),
            (square_torus(), SurfacePoint(0, Fraction(1, 3), Fraction(1, 2)), (1, 2), 3),
            (square_torus(), SurfacePoint(0, Fraction(1, 3), Fraction(1, 2)), (tiny, 2 * tiny), 3),
            (st3, SurfacePoint(0, st3.width[0] / 3, st3.height[0] / 5), (1, 3), 6),
            (staircase_complex(-8, 9, 3, exact=False), SurfacePoint(0, 0.3, 0.2), (0.6, 0.8), 30.0),
        ]
        runs += [(st2, pos, d, 20) for c in st2.corner_cycles if not c.puncture
                 for pos, d in separatrices(st2, c.index, (2, 3))]
        st2f = staircase_complex(-8, 9, 2, exact=False)
        runs += [(st2f, pos, d, 20.0) for c in st2f.corner_cycles if not c.puncture
                 for pos, d in separatrices(st2f, c.index, (2.0, 3.0))]
        terminals = set()
        for m, p, d, length in runs:
            traj = flow(m, p, d, length, _allow_corner_start=True)
            got = _walk(m, d, length, 1e-9, False, p, True)(p, d)
            assert got[:5] == (traj.terminal, traj.terminal_detail, traj.final_point,
                               traj.final_direction, traj.min_corner_distance)
            assert got[5] == traj.total_length and type(got[5]) is type(traj.total_length)
            assert got[6] is None
            terminals.add(traj.terminal)
        assert terminals == {"budget", "singular", "window-exit"}

    @pytest.mark.parametrize("n", [17, 33])
    def test_float_windows(self, n):
        m = staircase_complex(-(n // 2), n - n // 2, 3, exact=False)
        reports = []
        for word in ("aaaBB", "aaBaB", "aBaBa"):
            eig = eigendirections(rho(TwistWord.make(word), 3.0))[0]
            reports.append(_assert_same_search(m, (eig.x, eig.y), 40.0))
        if n == 33:  # connections found, and one only after window exits
            assert any(r.found is not None and r.window_exits for r in reports)
            assert any(r.found is None for r in reports)

    @pytest.mark.parametrize("direction", [(1, 2), (2, 3)])
    def test_exact_staircase_finds_after_window_exits(self, direction):
        rep = _assert_same_search(staircase_complex(-8, 9, 2), direction, 20)
        assert rep.found is not None and rep.window_exits >= 1
        assert isinstance(rep.found[3], QuadExt)

    def test_exact_torus(self):
        rep = _assert_same_search(square_torus(), (1, 0), 2)
        assert rep.found is not None and rep.found[3] == 1

    def test_exact_golden_window_speed_in_the_field(self):
        # speed sqrt(5) lies in Q(sqrt 5): each ray's length is exact
        st = staircase_complex(-8, 9, 3)
        rep = _assert_same_search(st, (1, 2), 20)
        assert rep.found is None and rep.rays_launched == 36 and rep.window_exits == 0
        pos, chart_dir = separatrices(st, 0, (1, 2))[0]
        assert flow(st, pos, chart_dir, 20, _allow_corner_start=True).total_length == 20

    def test_exact_golden_window_speed_outside_the_field(self):
        # speed sqrt(10) lies outside Q(sqrt 5): the found length is a float
        rep = _assert_same_search(staircase_complex(-8, 9, 3), (1, 3), 6)
        assert (rep.rays_launched, rep.window_exits) == (2, 1)
        assert type(rep.found[3]) is float and rep.found[3] == pytest.approx(0.0098208, rel=1e-4)

    @pytest.mark.parametrize("word", ["aB", "aaB", "aBB"])
    def test_direction_in_a_second_field_runs_in_floats(self, word):
        # the window's sides lie in Q(sqrt 5) and the lam = 3 eigendirection
        # in Q(sqrt 13) or Q(sqrt 11): search and flow run in floats, as
        # they do along the direction rounded to floats
        st = staircase_complex(-8, 9, 3)
        d = eigendirections(rho(TwistWord.make(word), 3))[0]
        rounded = (float(d.x), float(d.y))
        assert isinstance(d.y, QuadExt) and d.y.d not in (0, 5)
        rep = detect_saddle_connection(st, d.vector(), 20)
        assert rep == detect_saddle_connection(st, rounded, 20)
        start = SurfacePoint(0, st.width[0] / 3, st.height[0] / 5)
        traj, ref = flow(st, start, d.vector(), 20), flow(st, start, rounded, 20)
        assert traj.direction == d.vector() and ref.direction == rounded

        def floats(t):  # the direction as given, rounded
            return t._replace(direction=None, final_direction=tuple(map(float, t.final_direction)),
                              segments=[s._replace(dir_in=tuple(map(float, s.dir_in)))
                                        for s in t.segments])

        assert floats(traj) == floats(ref) and len(ref.segments) > 1

    def test_budget_in_a_second_field_runs_in_floats(self):
        # the window's sides lie in Q(sqrt 5) and the budget 3 sqrt 7 in
        # Q(sqrt 7): search and flow run in floats, as they do with the
        # direction and the budget rounded to floats
        st = staircase_complex(-8, 9, 3)
        budget = QuadExt(0, 3, 7)
        start = SurfacePoint(0, st.width[0] / 3, st.height[0] / 5)
        traj = flow(st, start, (1, 2), budget)
        assert traj == flow(st, start, (1.0, 2.0), float(budget))
        assert traj.terminal == "budget" and type(traj.total_length) is float
        rep = detect_saddle_connection(st, (1, 2), budget)
        assert rep == detect_saddle_connection(st, (1.0, 2.0), float(budget))
        assert rep.rays_launched == 36
        # a budget in the sides' own field keeps the flow exact
        golden = flow(st, start, (1, 2), QuadExt(0, 3, 5))
        assert golden.terminal == "budget" and golden.total_length == QuadExt(0, 3, 5)
        assert all(type(s.length) is QuadExt for s in golden.segments)
        assert _assert_same_search(st, (1, 2), QuadExt(0, 3, 5)).rays_launched == 36

    def test_one_launch_per_search(self, monkeypatch):
        """The budget, the direction and the exact speed are read once per
        search, whatever the number of rays."""
        calls = []
        speed_in_field, float_or_refuse = flow_module._speed_in_field, flow_module._float_or_refuse
        monkeypatch.setattr(flow_module, "_speed_in_field",
                            lambda *args: calls.append("speed") or speed_in_field(*args))
        monkeypatch.setattr(flow_module, "_float_or_refuse",
                            lambda v, name: calls.append(name) or float_or_refuse(v, name))
        rep = detect_saddle_connection(staircase_complex(-8, 9, 2), (2, 3), 20)
        assert rep.rays_launched > 1 and calls == ["speed"]
        calls.clear()
        rep = detect_saddle_connection(staircase_complex(-8, 9, 3, exact=False), (0.6, 0.8), 30.0)
        assert rep.rays_launched > 1 and "speed" not in calls
        assert [calls.count(n) for n in ("direction dx", "direction dy", "length budget")] == [1, 1, 1]
        assert calls.count("start x") == calls.count("start y") == rep.rays_launched

    def test_total_length_adds_in_segment_order(self):
        # a compensated sum (built-in sum() on Python 3.12+) gives 1e16 + 2
        p = SurfacePoint(0, 0.5, 0.5)
        segs = tuple(Segment(0, 0.5, 0.5, 0.5, 0.5, length, (1.0, 0.0))
                     for length in (1e16, 1.0, 1.0))
        traj = Trajectory(p, (1.0, 0.0), segs, "budget", None, p, (1.0, 0.0), math.inf)
        assert traj.total_length == 1e16


_PLAIN_WINDOW = staircase_complex(-4, 5, 2, exact=False)


@pytest.mark.parametrize("direction, budget", [
    ((1.0, 2.0), math.nan), ((1.0, 2.0), -1.0), ((0, 0), 5.0), ((math.nan, 1.0), 5.0),
], ids=["nan-budget", "negative-budget", "zero-direction", "nan-direction"])
def test_a_search_refuses_before_its_first_ray_what_flow_refuses(direction, budget):
    """A window whose every corner cycle is punctured launches no ray, yet
    its search refuses bad input as flow() does; a refused direction is
    named as given, not as a separatrix's turned chart direction."""
    punctured = mark_faces(_PLAIN_WINDOW, range(len(_PLAIN_WINDOW.corner_cycles)))
    assert all(c.puncture for c in punctured.corner_cycles)
    with pytest.raises(FlowError) as want:
        flow(_PLAIN_WINDOW, SurfacePoint(0, 0.3, 0.2), direction, budget)
    for m in (punctured, _PLAIN_WINDOW):
        with pytest.raises(FlowError) as got:
            detect_saddle_connection(m, direction, budget)
        assert str(got.value) == str(want.value)
    if math.isnan(direction[0]):
        assert str(want.value) == "direction (nan, 1.0) is not finite"


def _reversals(traj) -> int:
    """Reversing gluings a trajectory crossed: each negates its direction."""
    dirs = [s.dir_in for s in traj.segments] + [traj.final_direction]
    return sum(a != b for a, b in zip(dirs, dirs[1:]))


def _as_float(p: SurfacePoint) -> SurfacePoint:
    return SurfacePoint(p.edge, float(p.x), float(p.y))


class TestFloatKernel:
    """Float flows run their own crossing loop; from the same rational start
    and direction it must cross what the exact loop crosses, also through
    reversing gluings, which no staircase window has."""

    @pytest.mark.parametrize("source, weight", [((1, 2), 3), (loch_ness_tree(10), 2)],
                             ids=["g1n2m3", "loch-ness-d10m2"])
    def test_float_crossings_follow_the_exact_ones(self, source, weight):
        m = build_multicurves(source, weight).complex
        assert any(rev for _, _, rev in m.gluings.values())
        assert all(type(v) is int for v in (*m.width.values(), *m.height.values()))
        runs = [(SurfacePoint(e, Fraction(13, 97), Fraction(31, 89)), d, 30, False)
                for e in sorted(m.width)[:4]
                for d in ((2, 3), (3, -5), (-7, 4), (1, 0), (-1, -2))]
        runs += [(pos, d, 30, True) for c in m.corner_cycles if not c.puncture
                 for pos, d in separatrices(m, c.index, (2, 3))][:12]
        terminals = set()
        reversals = 0
        for p, (dx, dy), length, from_corner in runs:
            d = (Fraction(dx), Fraction(dy))
            ex = flow(m, p, d, length, _allow_corner_start=from_corner)
            fl = flow(m, _as_float(p), (float(dx), float(dy)), float(length),
                      _allow_corner_start=from_corner)
            assert [s.edge for s in fl.segments] == [s.edge for s in ex.segments]
            assert (fl.terminal, fl.terminal_detail) == (ex.terminal, ex.terminal_detail)
            assert _reversals(fl) == _reversals(ex)
            for a, b in zip(ex.segments, fl.segments):
                assert all(abs(float(u) - v) <= 1e-9
                           for u, v in zip((a.x_in, a.y_in, a.x_out, a.y_out, a.length),
                                           (b.x_in, b.y_in, b.x_out, b.y_out, b.length)))
            assert fl.final_point.edge == ex.final_point.edge
            assert abs(float(ex.final_point.x) - fl.final_point.x) <= 1e-9
            assert abs(float(ex.final_point.y) - fl.final_point.y) <= 1e-9
            terminals.add(ex.terminal)
            reversals += _reversals(ex)
        assert terminals == {"budget", "singular"} and reversals > len(runs)


class TestCoverage:
    def test_closed_orbit_full_coverage(self):
        t = square_torus()
        traj = flow(t, SurfacePoint(0, 0.25, 0.0), (1.0, 1.0), 2.0)
        stats = coverage_stats(traj, {0})
        assert stats.coverage_fraction == 1.0

    def test_strip_direction_escapes(self):
        st = staircase_complex(-60, 20, 2, exact=False)
        traj = flow(st, SurfacePoint(0, 0.3, 0.11), (1.0, 1.0), 40.0)
        window = set(range(-20, 20))
        stats = coverage_stats(traj, window)
        assert stats.coverage_fraction < 0.8  # confined to one strip
        assert stats.visits_to_start == 1
        assert visit_lengths(traj, 0) == [0.0]


class TestCompactOpenConvergence:
    def test_ladder_with_tails(self):
        st = staircase_complex(-13, 14, 2)
        limit = frozenset({-1, 1})  # central vertical curves

        def beta_n(n):
            return limit | {v for v in range(-13, 15)
                            if v % 2 and abs(v) >= 2 * n + 1}

        report = compact_open_convergence_check(
            st, beta_n, limit, window=range(-3, 4), n_max=8)
        assert report.pointwise_verified
        # window edges -3..3 touch odd curves up to |v| = 3, so tails with
        # |v| >= 5 already miss it: stable from n = 2
        assert report.n_stable == 2
        # monotone in the window
        prev = 0
        for w in (1, 2, 3, 4, 5):
            rep = compact_open_convergence_check(
                st, beta_n, limit, window=range(-w, w + 1), n_max=8)
            assert rep.n_stable >= prev
            prev = rep.n_stable

    def test_untouched_window_stabilizes_immediately(self):
        st = staircase_complex(-13, 14, 2)
        limit = frozenset({-1, 1})

        def beta_n(n):
            return limit | {v for v in range(-13, 15)
                            if v % 2 and abs(v) >= 2 * n + 11}

        rep = compact_open_convergence_check(st, beta_n, limit,
                                             window=range(-2, 3), n_max=5)
        assert rep.n_stable == 0

    def test_negative_n_max_refused(self):
        st = staircase_complex(-4, 5, 2)
        limit = frozenset({-1, 1})
        with pytest.raises(ValueError, match="n_max must be nonnegative, got -1"):
            compact_open_convergence_check(st, lambda n: limit, limit,
                                           window=range(-1, 2), n_max=-1)


class TestExactQuadraticFlow:
    def test_exact_flow_on_stretched_staircase(self):
        # dims live in the quadratic field of lam = 3; rational direction
        # keeps every crossing exact
        st = staircase_complex(-4, 5, 3)
        p0 = SurfacePoint(0, Fraction(1, 3), Fraction(1, 5))
        traj = flow(st, p0, (Fraction(2), Fraction(1)), 6.0)
        for a, b in zip(traj.segments, traj.segments[1:]):
            w, h = st.width[a.edge], st.height[a.edge]
            assert a.x_out in (0, w) or a.y_out in (0, h)
        back = flow(st, traj.final_point,
                    (-traj.final_direction[0], -traj.final_direction[1]),
                    traj.total_length)
        assert back.final_point.edge == p0.edge
        assert back.final_point.x == p0.x and back.final_point.y == p0.y

    def test_speed_outside_the_field(self):
        # direction (1, 3) over lam = 3: the speed sqrt(10) is not in
        # Q(sqrt 5), so the cut point lies within ~2^-64 of the budget, on
        # the last segment exactly
        st = staircase_complex(-4, 5, 3)
        p0 = SurfacePoint(0, Fraction(1, 3), Fraction(1, 5))
        traj = flow(st, p0, (Fraction(1), Fraction(3)), 6.0)
        assert traj.terminal == "budget"
        last = traj.segments[-1]
        dx, dy = last.dir_in
        assert not any(isinstance(v, float) for v in (last.x_out, last.y_out))
        assert (last.x_out - last.x_in) * dy == (last.y_out - last.y_in) * dx
        elapsed = sum(abs(s.x_out - s.x_in) for s in traj.segments)  # dx = 1
        assert abs(float(elapsed * elapsed * 10) - 36) < 1e-12
        assert traj.total_length == pytest.approx(6.0, rel=1e-12)

    def test_irrational_speed_inside_the_field(self):
        # direction (1, (1 + sqrt 5)/2) over lam = 3: the squared speed
        # (5 + sqrt 5)/2 lies in Q(sqrt 5) but its square root does not, so
        # the budget is cut at a rational approximation of the speed; every
        # crossing stays exact and matches the float mirror's
        phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        traj = flow(staircase_complex(-8, 9, 3), SurfacePoint(0, Fraction(1, 3), Fraction(1, 5)),
                    (Fraction(1), phi), 20)
        mirror = flow(staircase_complex(-8, 9, 3, exact=False), SurfacePoint(0, 1 / 3, 1 / 5),
                      (1.0, float(phi)), 20.0)
        assert traj.terminal == mirror.terminal == "budget"
        assert [s.edge for s in traj.segments] == [s.edge for s in mirror.segments] == [0, 1, 2, 3]
        assert all(isinstance(v, QuadExt) for s in traj.segments for v in (s.x_out, s.y_out))
        last = traj.segments[-1]
        dx, dy = last.dir_in
        assert (last.x_out - last.x_in) * dy == (last.y_out - last.y_in) * dx
        assert traj.final_point.as_floats() == pytest.approx(mirror.final_point.as_floats(),
                                                            rel=1e-12)
        assert traj.total_length == pytest.approx(20.0, rel=1e-12)

    def test_int_direction_on_int_sides_stays_exact(self):
        # the unit torus has int sides and the direction is int: the flow
        # computes on rationals and quadratic values, and reports (1, 2)
        traj = flow(square_torus(), SurfacePoint(0, Fraction(1, 3), Fraction(1, 2)), (1, 2), 3)
        r5 = QuadExt(0, 1, 5)
        assert traj.final_point == SurfacePoint(0, Fraction(-2, 3) + Fraction(3, 5) * r5,
                                                Fraction(-5, 2) + Fraction(6, 5) * r5)
        assert traj.total_length == 3
        assert not any(isinstance(v, float) for s in traj.segments for v in s[1:6])
        assert traj.final_direction == (1, 2)
        assert all(type(v) is int for v in traj.final_direction)

    def test_large_direction_is_not_factored(self):
        # the speed's radicand (10^9 + 7)^2 + 1 is too large to factor by
        # trial division; the flow takes the outside-the-field rule instead
        traj = flow(square_torus(), SurfacePoint(0, Fraction(1, 4), Fraction(0)),
                    (Fraction(10**9 + 7), Fraction(1)), 2.0)
        assert traj.terminal == "budget"
        assert not isinstance(traj.final_point.x, float)

    def test_tiny_direction_in_the_field_cuts_exactly(self):
        # the speed 5 * 10^-200 underflows as a float; the cut stays exact
        traj = flow(square_torus(), SurfacePoint(0, Fraction(1, 4), Fraction(1, 7)),
                    (Fraction(3, 10**200), Fraction(4, 10**200)), 2.0)
        assert traj.terminal == "budget" and traj.total_length == 2
        assert traj.final_point == SurfacePoint(0, Fraction(1, 4) + Fraction(6, 5) - 1,
                                                Fraction(1, 7) + Fraction(8, 5) - 1)

    @pytest.mark.parametrize("base", [(1, 3), (1, 1)])
    def test_tiny_direction_outside_the_field_scales(self, base):
        # scaled by 10^-200 the speed underflows as a float and lies outside
        # the field: the flow still takes the same crossings, ends at the
        # same point and measures the same lengths
        st = staircase_complex(-4, 5, 2)
        p0 = SurfacePoint(0, Fraction(1, 3), Fraction(1, 5))
        tiny = Fraction(1, 10**200)
        ref = flow(st, p0, base, 6.0)
        traj = flow(st, p0, (base[0] * tiny, base[1] * tiny), 6.0)
        assert (traj.terminal, traj.terminal_detail) == (ref.terminal, ref.terminal_detail)
        assert [s.edge for s in traj.segments] == [s.edge for s in ref.segments]
        assert traj.final_point.edge == ref.final_point.edge
        assert traj.final_point.as_floats() == pytest.approx(ref.final_point.as_floats(),
                                                            rel=1e-12)
        assert [s.length for s in traj.segments] == pytest.approx(
            [float(s.length) for s in ref.segments], rel=1e-12)
        assert traj.total_length == pytest.approx(float(ref.total_length), rel=1e-12)
        assert traj.total_length == pytest.approx({(1, 3): 6.0, (1, 1): 3.7712}[base],
                                                  abs=1e-4)

    @pytest.mark.parametrize("scale", [Fraction(1, 10**330), Fraction(10**330)])
    @pytest.mark.parametrize("base", [(3, 4), (1, 3)])
    def test_times_past_the_float_range(self, base, scale):
        # scaled by 10^-330 (or 10^330) the flow's times, not only its
        # speed, leave the float range: the flow still takes the same
        # crossings to the same terminal, with the same lengths
        st = staircase_complex(-4, 5, 2)
        p0 = SurfacePoint(0, Fraction(1, 3), Fraction(1, 5))
        d = (base[0] * scale, base[1] * scale)
        ref = flow(st, p0, base, 6)
        traj = flow(st, p0, d, 6)
        assert (traj.terminal, traj.terminal_detail) == (ref.terminal, ref.terminal_detail)
        assert [s.edge for s in traj.segments] == [s.edge for s in ref.segments]
        assert traj.final_point.edge == ref.final_point.edge
        assert traj.final_point.as_floats() == pytest.approx(ref.final_point.as_floats(),
                                                            rel=1e-12)
        assert [float(s.length) for s in traj.segments] == pytest.approx(
            [float(s.length) for s in ref.segments], rel=1e-12)
        # the direction is reported as given, up to the reversing gluings
        assert all(s.dir_in in (d, (-d[0], -d[1])) for s in traj.segments)
        assert traj.final_direction in (d, (-d[0], -d[1]))

    @pytest.mark.parametrize("near", ["top", "bottom"])
    def test_near_miss_of_a_corner_is_exact(self, near):
        # 10^-30 from a corner's side rounds to 0 as a float; the exact
        # distance decides, so the flow runs past the corner
        st = staircase_complex(-4, 5, 3)
        w, h = st.width[0], st.height[0]
        gap = Fraction(1, 10**30)
        p0 = SurfacePoint(0, w / 3, h - gap if near == "top" else gap)
        traj = flow(st, p0, (1, 0), 10)
        assert traj.terminal == "budget"
        assert len(traj.segments) == 7
        assert traj.min_corner_distance == 1e-30


def _odd_cone():
    """The square torus with its one 4-quarter cycle cut down to 3 quarters."""
    m = square_torus()
    (cycle,) = m.corner_cycles
    return dataclasses.replace(m, corner_cycles=(cycle._replace(corners=cycle.corners[:3]),))


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: flow(square_torus(), SurfacePoint(0, 2, Fraction(1, 2)), (1, 1), 5),
                 "outside its rectangle", id="start-outside"),
    pytest.param(lambda: separatrices(_odd_cone(), 0, (1, 1)),
                 "cone angle 3*pi/2 is not a multiple of pi", id="odd-cone"),
    pytest.param(lambda: separatrices(square_torus(), 0, (0, 0)), "direction must be nonzero",
                 id="zero-direction"),
])
def test_refusals_name_what_is_wrong(call, fragment):
    with pytest.raises(FlowError) as err:
        call()
    assert fragment in str(err.value)
