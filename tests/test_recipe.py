"""Tree normal forms, surgery, and the multicurve recipe."""

import hashlib
import os
import subprocess
import sys
import time

import pytest

from multitwist import recipe
from multitwist.formats import parse_tree, write_surface, write_tree
from multitwist.recipe import (
    EndTreeSpec,
    RecipeError,
    build_multicurves,
    curve_is_essential,
    induced_subtree,
    ladder_tree,
    loch_ness_tree,
    simplify_tree,
    surgery,
    verify_recipe,
)
from multitwist.surfaces import configuration, cylinders, euler_characteristic, mark_faces


class TestInducedSubtree:
    def test_full_binary_tree(self):
        t = induced_subtree(["cone:"], depth=3)
        assert len(t.vertices()) == 1 + 2 + 4 + 8
        assert len(t.leaves()) == 8
        assert t.leaves() <= t.frontier

    def test_single_ray(self):
        t = induced_subtree(["000"], depth=3)
        assert t.vertices() == {"", "0", "00", "000"}

    def test_comb(self):
        addrs = ["0" * 5] + [("0" * k) + "1" for k in range(5)]
        t = induced_subtree(addrs, depth=5)
        # the spine plus one tooth per level
        assert "0001" in t.vertices() and "00000" in t.vertices()
        assert t.is_simple()  # teeth at every level attach directly already

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subtree([], depth=3)

    @pytest.mark.parametrize("address", ["foo:01", "Ray:01", ":01"])
    def test_unknown_address_kind_rejected(self, address):
        with pytest.raises(ValueError, match=f"address {address!r} is neither a ray nor a cone"):
            induced_subtree([address], depth=2)


class TestTreeValidation:
    def test_unrooted_vertices_are_named(self):
        with pytest.raises(ValueError, match="vertex 1 is not connected to the root"):
            EndTreeSpec.make(0, {1: 2, 2: 1, 3: 0}, frontier={3})  # a cycle
        with pytest.raises(ValueError, match="vertex 2 is not connected to the root"):
            EndTreeSpec.make(0, {1: 0, 2: 5}, frontier={1, 2})  # 5 has no parent

    def test_deep_tree_validates_in_linear_time(self):
        def ratio():
            specs = {depth: loch_ness_tree(depth) for depth in (2000, 4000)}
            best = dict.fromkeys(specs, float("inf"))
            for _ in range(5):  # interleaved, so both sizes see the same load
                for depth, spec in specs.items():
                    t0 = time.perf_counter()
                    spec._validate()
                    best[depth] = min(best[depth], time.perf_counter() - t0)
            return best[4000] / best[2000]

        # a walk to the root from every vertex would take 4x per doubling;
        # three attempts keep a busy machine from failing the linear case
        assert any(ratio() <= 2.5 for _ in range(3))


class TestSimplify:
    def test_already_simple_unchanged(self):
        t = induced_subtree(["000"], depth=3)
        s = simplify_tree(t)
        assert s.vertices() == t.vertices()

    def test_chain_before_branch_contracts(self):
        # ray with a tooth deep down: the degree-2 run above the branching
        # vertex contracts
        addrs = ["000000", "00001"]
        t = induced_subtree(addrs, depth=6)
        s = simplify_tree(t)
        assert s.is_simple()
        assert len(s.vertices()) < len(t.vertices())

    def test_idempotent(self):
        addrs = ["0" * 6] + [("0" * k) + "1" for k in (2, 4)]
        t = induced_subtree(addrs, depth=6)
        s1 = simplify_tree(t)
        s2 = simplify_tree(s1)
        assert s1.vertices() == s2.vertices()
        assert dict(s1.parents) == dict(s2.parents)

    def test_comb_teeth_attach_directly(self):
        addrs = ["0" * 5] + [("0" * k) + "1" for k in range(5)]
        s = simplify_tree(induced_subtree(addrs, depth=5))
        assert s.is_simple()


def _reference_is_simple(t):
    """Brute force: every descendant of a non-root degree-2 vertex has
    degree 2 or is a leaf."""
    ch = t.children()
    for v in t.vertices():
        if v == t.root or t.degree(v) != 2:
            continue
        stack = list(ch[v])
        while stack:
            w = stack.pop()
            if t.degree(w) != 2 and w not in t.leaves():
                return False
            stack.extend(ch[w])
    return True


def _reference_simplify(t):
    """Brute force: contract unprotected degree-2 vertices with a branching
    vertex (degree >= 3) somewhere below."""
    pm, ch = t.parent_map(), t.children()

    def has_branch_below(v):
        stack = list(ch[v])
        while stack:
            w = stack.pop()
            if t.degree(w) >= 3:
                return True
            stack.extend(ch[w])
        return False

    protected = t.punctures | t.frontier | t.genus_marks | {t.root}
    removable = {v for v in t.vertices()
                 if v not in protected and t.degree(v) == 2 and has_branch_below(v)}
    new_parents = {}
    for v in t.vertices() - {t.root} - removable:
        p = pm[v]
        while p in removable:
            p = pm[p]
        new_parents[v] = p
    return EndTreeSpec.make(t.root, new_parents, punctures=t.punctures,
                            genus_marks=t.genus_marks & (set(new_parents) | {t.root}),
                            frontier=t.frontier, family=t.family)


_TREE_GRID = ([induced_subtree(addrs, depth)
               for addrs in (["000"], ["cone:"], ["000000", "00001"], ["cone:0", "ray:1"],
                             ["0" * 6] + [("0" * k) + "1" for k in (2, 4)],
                             ["cone:01", "ray:1", "ray:0011"], ["1101", "cone:100", "0"])
               for depth in (1, 3, 6)]
              + [tree(d) for tree in (loch_ness_tree, ladder_tree) for d in (1, 2, 5)])


@pytest.mark.parametrize("t", _TREE_GRID)
def test_tree_walks_match_brute_force(t):
    assert t.is_simple() == _reference_is_simple(t)
    s = simplify_tree(t)
    assert s == _reference_simplify(t)
    assert s.is_simple() == _reference_is_simple(s)


@pytest.mark.parametrize("t", _TREE_GRID)
def test_tree_file_round_trips(t):
    assert parse_tree(write_tree(t)) == t


class TestSurgery:
    def test_empty_marks_change_nothing(self):
        t = induced_subtree(["000"], depth=3)
        g = surgery(t, marks=())
        assert g.triangles == 0
        assert g.genus() == 0

    def test_single_mark_gives_one_triangle(self):
        t = loch_ness_tree(1)
        g = surgery(t)
        assert g.triangles == 1
        assert g.genus() == 1

    def test_loch_ness_depth_g(self):
        for depth in (1, 2, 4):
            g = surgery(loch_ness_tree(depth))
            assert g.triangles == depth
            assert g.genus() == depth  # one independent cycle per triangle

    def test_leaf_mark_rejected(self):
        t = induced_subtree(["000"], depth=3)
        leaf = sorted(t.leaves())[0]
        with pytest.raises(ValueError, match="leaf"):
            surgery(t, marks={leaf})

    def test_unknown_mark_rejected(self):
        with pytest.raises(ValueError, match="genus mark 99 not in the tree"):
            surgery(loch_ness_tree(3), marks={1, 99})

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_first_bad_mark_in_repr_order_under_any_str_hashing(self, seed):
        """None of the five marks is in the tree; the one named is the least
        by repr, whatever order the mark set iterates in."""
        src = os.path.dirname(os.path.dirname(recipe.__file__))
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("from multitwist.recipe import ladder_tree, surgery\n"
                "surgery(ladder_tree(3), marks={'x9', 'y9', 'z9', 'l9', 'r9'})\n")
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert "ValueError: genus mark l9 not in the tree" in res.stderr

    def test_deep_tree_in_linear_time(self):
        def ratio():
            specs = {depth: loch_ness_tree(depth) for depth in (2000, 4000)}
            best = dict.fromkeys(specs, float("inf"))
            for _ in range(5):  # interleaved, so both sizes see the same load
                for depth, spec in specs.items():
                    t0 = time.perf_counter()
                    surgery(spec)
                    best[depth] = min(best[depth], time.perf_counter() - t0)
            return best[4000] / best[2000]

        # linear work plus the sort of the output measures about 2.2x per
        # doubling, a membership scan per mark 4x; three attempts keep a
        # busy machine from failing the linear case
        assert any(ratio() <= 2.5 for _ in range(3))


class TestBuildMulticurves:
    def test_once_punctured_torus_m1(self):
        out = build_multicurves((1, 1), 1)
        rep = verify_recipe(out.complex, 1)
        assert rep.passes
        marked = next(c for c in out.complex.corner_cycles if c.marked)
        assert marked.k == 2
        assert euler_characteristic(out.complex) == 0
        assert sum(1 for c in out.complex.corner_cycles if c.puncture) == 1

    def test_loch_ness_m2(self):
        out = build_multicurves(loch_ness_tree(3), 2)
        rep = verify_recipe(out.complex, 2)
        assert rep.passes
        assert out.genus == 3
        assert len(out.end_faces) == 1
        census = {c.k for c in out.complex.corner_cycles if not c.marked}
        assert census <= {2, 4, 6, 8}

    def test_odd_m_adds_extra_pair(self):
        # the odd-weight chamber block ends on a straight curve: the marked
        # face has 2m sides for odd m
        out = build_multicurves((1, 2), 3)
        marked = next(c for c in out.complex.corner_cycles if c.marked)
        assert marked.k == 6

    def test_weight_five(self):
        out = build_multicurves((2, 4), 5)
        rep = verify_recipe(out.complex, 5)
        assert rep.passes
        assert max(c.k for c in out.complex.corner_cycles if not c.marked) <= 8
        marked = next(c for c in out.complex.corner_cycles if c.marked)
        assert marked.k == 10

    def test_sphere_with_three_punctures(self):
        # p is a hole too: three punctured bigons and p in the fourth face
        out = build_multicurves((0, 3), 1)
        assert verify_recipe(out.complex, 1).passes
        assert sorted(c.k for c in out.complex.corner_cycles) == [2, 2, 2, 2]
        for n, m in ((2, 1), (3, 2)):
            with pytest.raises(RecipeError, match="angle excess"):
                build_multicurves((0, n), m)

    def test_angle_excess_bound(self):
        with pytest.raises(RecipeError, match="at least"):
            build_multicurves((0, 4), 3)

    def test_intersection_bound_everywhere(self):
        for src, m in [((2, 0), 2), ((3, 2), 3), (loch_ness_tree(4), 1),
                       (ladder_tree(2), 2)]:
            out = build_multicurves(src, m)
            rep = verify_recipe(out.complex, m)
            assert rep.max_pair_intersections <= 2

    def test_every_bigon_is_flagged(self):
        out = build_multicurves((1, 2), 1)
        for c in out.complex.corner_cycles:
            if c.k == 2:
                assert c.puncture or c.marked


# SHA-1 of write_surface(out.complex), pinned before the assembly became a
# gluing table: every marked-chamber block, a chain, handle splices and
# long arms of through blocks
GOLDEN = {
    "torus (1, 0, 2)": "9e0ef0afaebb1afedc261943f6d8dc3dd6c50a76",
    "fs3 (1, 2, 3)": "1ff8a4172baaaa781e040b30ed44b295990980a6",
    "double-handle (2, 0, 4)": "f7c9da9487c2016e8851064c08eec1200ecd6b96",
    "penta5 (1, 3, 5)": "75ae69d6a272dad6d07802ebf5e862df50eea692",
    "chainlink (1, 1, 1)": "1aff00866ccb7397620a002b9446a170d4540bf1",
    "chainlink (0, 4, 1)": "8a99a57ff681cccfae237627f49cbc097a9c1230",
    "handle splices (3, 2, 6)": "0991df44a97a331902fd278ee81ca2e8a215fe7c",
    "loch-ness d=10 m=2": "9d0fac44c32cf9c1f624bc559ca2d2bf58c77e60",
    "ladder d=10 m=2": "ff7f76f4d2d0b084b53a79dd5698c49954c1f695",
}


# sha256(write_surface(out.complex))[:16] of requests that make 2-4 handle
# splices each, pinned before the assembly read its faces off the table
HANDLE_SPLICES = {
    "(3, 2) m=6": ((3, 2), 6, "69708eeddc7228e5"),
    "(3, 4) m=8": ((3, 4), 8, "e759fca012808844"),
    "loch-ness d=3 m=6": (loch_ness_tree(3), 6, "6b2d915ba8b9dc8b"),
    "loch-ness d=4 m=7": (loch_ness_tree(4), 7, "1f2a935dd8dc276f"),
    "ladder d=3 m=6": (ladder_tree(3), 6, "69708eeddc7228e5"),
    "ladder d=4 m=7": (ladder_tree(4), 7, "97fbb0e7e10bc0c8"),
}


def _golden_output(case):
    name, _, args = case.partition(" (")
    if name.startswith(("loch-ness", "ladder")):
        tree = loch_ness_tree if name.startswith("loch-ness") else ladder_tree
        return build_multicurves(tree(10), 2)
    g, n, m = (int(x) for x in args.rstrip(")").split(", "))
    return build_multicurves((g, n), m)


class TestAssembly:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_outputs_are_pinned(self, case):
        m = _golden_output(case).complex
        assert hashlib.sha1(write_surface(m).encode()).hexdigest() == GOLDEN[case]
        assert configuration(m.edges, m.gluings) == (m.ribbon, m.graph)

    def test_ribbon_read_per_arm_not_per_splice(self, monkeypatch):
        # a long arm of through blocks splices once per handle, but the
        # ribbon and graph are read off the gluing table only by the one
        # build of the output
        calls = []

        def counted(edges, gluings):
            calls.append(edges)
            return configuration(edges, gluings)

        monkeypatch.setattr(recipe, "configuration", counted)
        counts = []
        for d in (20, 40):
            calls.clear()
            build_multicurves(loch_ness_tree(d), 2)
            counts.append(len(calls))
        assert counts == [1, 1]

    @pytest.mark.parametrize("case", sorted(HANDLE_SPLICES))
    def test_handle_splice_outputs_are_pinned(self, case, monkeypatch):
        # faces() numbers the faces as every built complex numbers its
        # corner cycles, so the assembly can read its faces off the table;
        # the handle search reads candidates' configuration graphs, so the
        # one complex built is the output's
        source, m, pinned = HANDLE_SPLICES[case]
        build = recipe._Assembly.build
        checked = []

        def compared(asm):
            built = build(asm)
            faces = asm.faces()
            checked.append(([tuple(q) for q in faces.quarters], faces.sizes)
                           == ([c.corners for c in built.corner_cycles],
                               [c.k for c in built.corner_cycles]))
            return built

        monkeypatch.setattr(recipe._Assembly, "build", compared)
        out = build_multicurves(source, m).complex
        assert hashlib.sha256(write_surface(out).encode()).hexdigest()[:16] == pinned
        assert checked == [True]
        assert configuration(out.edges, out.gluings) == (out.ribbon, out.graph)

    def test_configuration_refuses_a_disconnected_table(self):
        # two unspliced genus blocks: two tori, which no graph joins
        asm = recipe._Assembly()
        asm.add(recipe._GENUS)
        asm.add(recipe._GENUS)
        with pytest.raises(ValueError, match="graph is not connected"):
            configuration(range(asm.squares), asm.gluings)
        with pytest.raises(ValueError, match="graph is not connected"):
            asm.build()


class TestVerifyRecipe:
    def test_hand_built_violations_fail_loudly(self):
        m = build_multicurves((2, 4), 5).complex
        cycles = m.corner_cycles
        assert cycles[0].marked and cycles[0].k == 10
        # move the mark from the 10-gon to a 4-gon: the 10-gon is then an
        # unmarked face above the bound, the 4-gon a marked face of the
        # wrong size
        square = next(c for c in cycles if c.k == 4 and not c.puncture)
        bad = mark_faces(m, [c.index for c in cycles if c.puncture], square.index)
        rep = verify_recipe(bad, 5)
        assert not rep.passes
        assert "face 0 has 10 > 8 sides" in rep.failures
        assert f"marked face {square.index} has 4 sides, expected 10" in rep.failures

    def test_wrong_marked_size_fails(self):
        out = build_multicurves((1, 1), 2)
        rep = verify_recipe(out.complex, 3)  # marked face is a 4-gon, not a 6-gon
        assert not rep.passes
        assert any("marked" in msg for msg in rep.failures)


class TestEssential:
    def test_all_generated_curves_essential(self):
        for src, m in [((1, 1), 1), ((2, 0), 2), ((2, 1), 3)]:
            out = build_multicurves(src, m)
            for v in out.complex.graph.vertices():
                assert curve_is_essential(out.complex, v)

    def test_curve_bounding_once_punctured_disc_detected(self):
        # staircase-style torus where one curve cuts off a once-punctured
        # disc: two squares, second curve encircles a puncture
        from multitwist.graphs import BipartiteConfigGraph
        from multitwist.surfaces import RibbonData, build_surface

        g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0},
                              flips=[(0, "N"), (1, "N")])
        m = build_surface(g, rib, values={0: 1, 1: 1})
        # pillowcase: every curve bounds twice-punctured discs when all four
        # bigons are punctured -> essential; with only one puncture per side
        # the cut pieces are once-punctured discs -> not essential
        m_two = mark_faces(m, [0, 1])
        assert not curve_is_essential(m_two, 0) or not curve_is_essential(m_two, 1)
        m_all = mark_faces(m, range(len(m.corner_cycles)))
        assert curve_is_essential(m_all, 0) and curve_is_essential(m_all, 1)

    @staticmethod
    def _pillowcase(punctures, marked=None):
        """Two squares folded into a sphere with four angle-pi cone points:
        cycle 0 where the tops of both squares meet, 1 at the other top fold,
        2 and 3 likewise at the bottom.  Curve 0 (the horizontal core) cuts
        {0, 1} from {2, 3}, curve 1 (the vertical core) {0, 2} from {1, 3}."""
        from multitwist.graphs import BipartiteConfigGraph
        from multitwist.surfaces import RibbonData, build_surface

        g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=[(0, "N"), (1, "N")])
        m = build_surface(g, rib, values={0: 1, 1: 1})
        return mark_faces(m, punctures, marked)

    def test_two_punctured_pillowcase_inessential_set(self):
        # two holes among four cone points: each core has a side with at most
        # one, a disc or once-punctured disc
        for punctures in ((0, 1), (0, 2), (2, 3)):
            m = self._pillowcase(punctures)
            assert {v for v in (0, 1) if not curve_is_essential(m, v)} == {0, 1}
        rep = verify_recipe(self._pillowcase((0, 1)), 1)
        assert [f for f in rep.failures if "disc" in f] == [
            "curve 0 bounds a disc or once-punctured disc",
            "curve 1 bounds a disc or once-punctured disc"]

    def test_marked_point_and_puncture_make_a_side_essential(self):
        # cycle 1 marked, 0 punctured: curve 0's top side holds two holes
        m = self._pillowcase((0, 2, 3), marked=1)
        assert curve_is_essential(m, 0) and curve_is_essential(m, 1)
        # without the mark the top side is a once-punctured disc
        m = self._pillowcase((0, 2, 3))
        assert not curve_is_essential(m, 0) and not curve_is_essential(m, 1)


class TestFeedsFlatBuilder:
    def test_cone_angles_match_census(self):
        from multitwist.graphs import perron_pair
        from multitwist.surfaces import build_surface

        out = build_multicurves((2, 1), 2).complex
        h = perron_pair(out.graph)
        m = build_surface(out.graph, out.ribbon, h)
        assert sorted(c.k for c in m.corner_cycles) == sorted(c.k for c in out.corner_cycles)
        for direction in ("horizontal", "vertical"):
            for cyl in cylinders(m, direction):
                assert abs(float(cyl.modulus) * h.lam - 1) < 1e-10

    def test_valence_bound_constant_across_depths(self):
        worst = 0
        for depth in (1, 2, 3, 4, 5):
            out = build_multicurves(loch_ness_tree(depth), 2)
            rep = verify_recipe(out.complex, 2)
            worst = max(worst, rep.valence)
        assert worst <= 16  # frozen family constant


class TestExplicitTreePipeline:
    def test_mixed_tree_through_surgery(self):
        # root - a - b(genus) - c(frontier), root - p(puncture leaf)
        t = EndTreeSpec.make(
            "r", {"a": "r", "b": "a", "c": "b", "p": "r"},
            punctures={"p"}, genus_marks={"b"}, frontier={"c"})
        g = surgery(t)
        assert g.triangles == 1 and g.genus() == 1
        out = build_multicurves(t, 2)
        assert out.genus == 1
        assert sum(1 for c in out.complex.corner_cycles if c.puncture) == 2  # puncture + end
        assert len(out.end_faces) == 1
        assert verify_recipe(out.complex, 2).passes


class TestLargeWeights:
    def test_general_chain_covers_big_m(self):
        for g, n, m in ((3, 2, 6), (2, 4, 4), (3, 4, 8)):
            try:
                out = build_multicurves((g, n), m)
            except RecipeError:
                continue
            rep = verify_recipe(out.complex, m)
            assert rep.passes, (g, n, m, rep.failures)
            marked = next(c for c in out.complex.corner_cycles if c.marked)
            assert marked.k == 2 * m
        # at least the first must be feasible
        out = build_multicurves((3, 2), 6)
        assert verify_recipe(out.complex, 6).passes


def _splice(port1, port2):
    asm = recipe._Assembly()
    asm.add(recipe._GENUS)
    asm.splice(port1, port2)


@pytest.mark.parametrize("call, fragment", [
    pytest.param(lambda: EndTreeSpec.make(0, {0: 1, 1: 0}), "root cannot have a parent",
                 id="root-with-parent"),
    pytest.param(lambda: induced_subtree(["ray:012"], depth=3), "address 'ray:012' is not binary",
                 id="non-binary-address"),
    pytest.param(lambda: surgery(EndTreeSpec.make(0, {1: 0, 2: 1, 3: 1, 4: 1}, frontier={2, 3, 4}),
                                 marks={1}),
                 "marked vertex 1 has 3 descendants", id="three-children"),
    pytest.param(lambda: recipe._chainlink(1), "chain needs at least 2 curves", id="chainlink-1"),
    pytest.param(lambda: _splice((0, "E"), (0, "N")), "splice needs two gluings of the same kind",
                 id="splice-kinds"),
    pytest.param(lambda: _splice((0, "E"), (1, "W")), "splice needs two disjoint gluings",
                 id="splice-one-gluing"),
    pytest.param(lambda: build_multicurves((1, 0), 0), "weight m must be at least 1",
                 id="weight-0"),
])
def test_refusals_name_what_is_wrong(call, fragment):
    with pytest.raises(ValueError) as err:
        call()
    assert fragment in str(err.value)
