"""Command-line interface: commands, exit codes, determinism."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner

import multitwist
from multitwist import formats
from multitwist.cli import main
from multitwist.graphs import LadderFamily
from multitwist.quadfield import QuadExt
from multitwist.recipe import build_multicurves, induced_subtree, loch_ness_tree
from multitwist.surfaces import RectangleComplex, RibbonData, build_surface, staircase_complex
from multitwist.svg import surface_svg

K2_GRAPH = "bipartite 1 1 1 2\nedge 0 0 1\n"
LADDER = "\n".join(["bipartite 3 4 6 2"] + [
    f"edge {e} {e if e % 2 == 0 else e + 1} {e if e % 2 else e + 1}"
    for e in range(-3, 3)]) + "\n"


@pytest.fixture
def runner():
    return CliRunner()


class TestHarmonic:
    def test_perron_k2(self, runner, tmp_path):
        gf = tmp_path / "k2.graph"
        gf.write_text(K2_GRAPH)
        res = runner.invoke(main, ["harmonic", str(gf)])
        assert res.exit_code == 0, res.output
        assert "lambda 1" in res.output

    def test_closed_form_ladder(self, runner, tmp_path):
        gf = tmp_path / "ladder.graph"
        gf.write_text(LADDER)
        res = runner.invoke(main, ["harmonic", str(gf), "--mode", "closed-form",
                                   "--lambda", "3"])
        assert res.exit_code == 0, res.output
        assert "3/2+1/2r5" in res.output  # r_plus at n = 1

    def test_malformed_edge_exits_2(self, runner, tmp_path):
        gf = tmp_path / "bad.graph"
        gf.write_text("bipartite 1 1 1 2\nedge zero 0 1\n")
        res = runner.invoke(main, ["harmonic", str(gf)])
        assert res.exit_code == 2
        assert "line 2" in res.output


class TestBuildVerify:
    def test_staircase_build_and_verify(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        res = runner.invoke(main, ["build", "--family", "staircase",
                                   "--window", "-4:5", "--lambda", "2",
                                   "-o", str(surf)])
        assert res.exit_code == 0, res.output
        assert "verification pass" in res.output
        res = runner.invoke(main, ["verify", str(surf)])
        assert res.exit_code == 0, res.output

    def test_build_and_verify_derive_no_gluing_table(self, runner, tmp_path, monkeypatch):
        """The checks read the layouts alone, is_translation included."""
        surf = tmp_path / "ln.surf"
        surf.write_text(formats.write_surface(build_multicurves(loch_ness_tree(3), 2).complex))

        def no_table(self):
            raise AssertionError("the side-gluing table was derived")

        monkeypatch.setattr(RectangleComplex, "gluings", property(no_table))
        for argv in (["build", str(surf), "--mode", "perron", "-o", str(tmp_path / "out.surf")],
                     ["verify", str(surf)], ["verify", str(surf), "--m", "2"]):
            res = runner.invoke(main, argv)
            assert res.exit_code == 0, (argv, res.exception)
            assert "translation False" in res.output

    def test_broken_corner_cycle_fails_both_counts(self, runner, tmp_path, monkeypatch):
        """A one-square torus whose one 4-quarter cycle is cut down to a
        single quarter (k = 1, odd): the partition check and Gauss-Bonnet
        both fail, and the excess prints as a fraction."""
        m = build_surface(formats.parse_graph(K2_GRAPH), RibbonData.make({0: 0}, {0: 0}))
        (cycle,) = m.corner_cycles
        broken = replace(m, corner_cycles=(cycle._replace(corners=cycle.corners[:1]),))
        monkeypatch.setattr(formats, "parse_surface", lambda text: broken)
        surf = tmp_path / "torus.surf"
        surf.write_text(formats.write_surface(m))
        res = runner.invoke(main, ["verify", str(surf)])
        assert res.exit_code == 1
        assert res.output == ("rectangles 1; cone census (quarter turns) [1]\n"
                              "chi 0; translation True\n"
                              "FAIL corner partition broken: 1 != 4\n"
                              "FAIL angle excess -3/2 != -2*chi 0\n")

    def test_tampered_height_fails_modulus(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-4:5", "--lambda", "2", "-o", str(surf)])
        text = surf.read_text().replace("h 0 1\n", "h 0 7/5\n")
        (tmp_path / "bad.surf").write_text(text)
        res = runner.invoke(main, ["verify", str(tmp_path / "bad.surf")])
        assert res.exit_code == 1
        assert "modulus" in res.output

    @pytest.mark.parametrize("edits", [
        {"lambda 3\n": "lambda 3000000000001/1000000000000\n"},
        {"lambda 3\n": "lambda 3+1/1000r2\n", "h 0 1\n": "h 0 1+1r5\n"},
    ], ids=["rational", "two-radicands"])
    def test_exact_modulus_law_has_no_tolerance(self, runner, tmp_path, edits):
        text = formats.write_surface(staircase_complex(-4, 5, 3))
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        (tmp_path / "bad.surf").write_text(text)
        res = runner.invoke(main, ["verify", str(tmp_path / "bad.surf")])
        assert res.exit_code == 1, res.output
        assert "FAIL cylinder" in res.output and "!= 1/lambda" in res.output
        assert isinstance(res.exception, SystemExit)  # reported, not a traceback

    @pytest.mark.parametrize("tol, code", [("1e-10", 0), ("1e-12", 1)])
    def test_float_modulus_law_within_tol(self, runner, tmp_path, tol, code):
        text = formats.write_surface(staircase_complex(-4, 5, 2, exact=False))
        assert "lambda 2.0\n" in text
        (tmp_path / "near.surf").write_text(text.replace("lambda 2.0\n", "lambda 2.0000000001\n"))
        res = runner.invoke(main, ["verify", str(tmp_path / "near.surf"), "--tol", tol])
        assert res.exit_code == code, res.output

    @pytest.mark.parametrize("value", ["1/0", "0", "-1", "nan", "inf"])
    def test_bad_height_value_exits_2(self, runner, tmp_path, value):
        lines = formats.write_surface(staircase_complex(-4, 5, 2)).splitlines()
        k = lines.index("h 0 1")
        lines[k] = f"h 0 {value}"
        (tmp_path / "bad.surf").write_text("\n".join(lines) + "\n")
        res = runner.invoke(main, ["verify", str(tmp_path / "bad.surf")])
        assert res.exit_code == 2, res.output
        assert f"line {k + 1}" in res.output
        assert isinstance(res.exception, SystemExit)  # reported, not a traceback

    def test_build_is_deterministic(self, runner, tmp_path):
        outs = []
        for name in ("a.surf", "b.surf"):
            surf = tmp_path / name
            res = runner.invoke(main, ["build", "--family", "staircase",
                                       "--window", "-3:4", "--lambda", "5/2",
                                       "-o", str(surf)])
            assert res.exit_code == 0
            outs.append(surf.read_bytes())
        assert outs[0] == outs[1]

    def test_float_build_of_a_rational_lambda_rounds_exact_heights(self, runner):
        res = runner.invoke(main, ["build", "--family", "staircase", "--float",
                                   "--lambda", "3"])
        assert res.exit_code == 0, res.output
        text = formats.write_surface(staircase_complex(-4, 5, 3, exact=False))
        assert res.output.startswith(text)  # the surface file, then the report

    def test_float_build_of_a_float_lambda_takes_the_float_path(self, runner):
        res = runner.invoke(main, ["build", "--family", "staircase", "--float",
                                   "--lambda", "5.55"])
        assert res.exit_code == 0, res.output
        assert "lambda 5.55" in res.output

    def test_rational_field_element_lambda_builds_as_the_rational(self, runner):
        outs = [runner.invoke(main, ["build", "--family", "staircase", "--window", "-2:3",
                                     "--lambda", lam]) for lam in ("3", "3+0r5")]
        assert [r.exit_code for r in outs] == [0, 0], outs[1].output
        assert "lambda 3\n" in outs[1].output
        assert outs[1].output == outs[0].output

    def test_exact_build_of_an_irrational_lambda_exits_2(self, runner):
        argv = ["build", "--family", "staircase", "--window", "-2:3", "--lambda", "1+1r5"]
        res = runner.invoke(main, argv)
        assert res.exit_code == 2, res.output
        assert "--exact needs a rational lambda, got 1+1r5" in res.output
        res = runner.invoke(main, argv + ["--float"])
        assert res.exit_code == 0, res.output
        assert "lambda 3.23606797749979" in res.output

    @pytest.mark.parametrize("lam", ["inf", "nan", "-inf", "1.5"])
    def test_float_build_of_a_bad_lambda_exits_2(self, runner, lam):
        res = runner.invoke(main, ["build", "--family", "staircase", "--float",
                                   "--lambda", lam])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "lam >= 2" in res.output
        assert isinstance(res.exception, SystemExit)  # reported, not a traceback

    def test_unknown_ribbon_edge_exits_2(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-4:5", "--lambda", "2", "-o", str(surf)])
        text = surf.read_text().replace("sigma_h -3 -2\n", "sigma_h 99 -3 -2\n")
        (tmp_path / "bad.surf").write_text(text)
        res = runner.invoke(main, ["verify", str(tmp_path / "bad.surf")])
        assert res.exit_code == 2, res.output
        assert "99" in res.output

    def test_weight_check_needs_a_marked_face(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-4:5", "--lambda", "2", "-o", str(surf)])
        res = runner.invoke(main, ["verify", str(surf), "--m", "1"])
        assert res.exit_code == 2, res.output
        assert "no marked face" in res.output

    @pytest.mark.parametrize("record", ["flip x E", "puncture"])
    def test_malformed_record_exits_2(self, runner, tmp_path, record):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-4:5", "--lambda", "2", "-o", str(surf)])
        text = surf.read_text()
        (tmp_path / "bad.surf").write_text(text + record + "\n")
        res = runner.invoke(main, ["verify", str(tmp_path / "bad.surf")])
        assert res.exit_code == 2, res.output
        assert f"line {len(text.splitlines()) + 1}" in res.output


class TestClassify:
    def test_parabolic_example(self, runner):
        res = runner.invoke(main, ["classify", "--word", "ab", "--lambda", "2"])
        assert res.exit_code == 0
        assert "parabolic" in res.output

    def test_hyperbolic_example(self, runner):
        res = runner.invoke(main, ["classify", "--word", "aB", "--lambda", "3"])
        assert res.exit_code == 0
        assert "trace 11" in res.output and "hyperbolic" in res.output
        assert "ks=(1, 1, 1, 0)" in res.output

    def test_long_float_word_is_classified(self, runner):
        # the float entries grow to 2e9; the product of unimodular factors
        # is unimodular, so no determinant check cancels to 0
        res = runner.invoke(main, ["classify", "--word", "aB" * 9, "--lambda", "3", "--float"])
        assert res.exit_code == 0, res.output
        assert "class hyperbolic" in res.output

    def test_irrational_lambda_skips_the_integer_form(self, runner):
        res = runner.invoke(main, ["classify", "--word", "aB", "--lambda", "1+1r5"])
        assert res.exit_code == 0, res.output
        assert res.exception is None
        assert "integer form: not checked (brenner_check needs rational lam >= 2)" in res.output
        assert "hyperbolic" in res.output and "eigendirection" in res.output

    def test_root_in_a_second_field_gives_float_eigendirections(self, runner):
        # the entries lie in Q(sqrt 6), the root of trace^2 - 4 = 672 in Q(sqrt 42)
        res = runner.invoke(main, ["classify", "--word", "aB", "--lambda", "0+2r6"])
        assert res.exit_code == 0, res.output
        assert "trace 26  class hyperbolic" in res.output
        assert res.output.count("\neigendirection ") == 2

    def test_empty_word_is_identity(self, runner):
        res = runner.invoke(main, ["classify", "--word", "", "--lambda", "2"])
        assert res.exit_code == 0
        assert "identity" in res.output

    def test_bad_letters_usage_error(self, runner):
        res = runner.invoke(main, ["classify", "--word", "xyz", "--lambda", "2"])
        assert res.exit_code == 2

    def test_no_tolerance_from_the_environment(self):
        # the default tolerance is a constant, so a stray variable is ignored
        src = os.path.dirname(os.path.dirname(multitwist.__file__))
        env = {**os.environ, "MULTITWIST_TOL": "abc",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-m", "multitwist.cli", "classify",
                              "--word", "aB", "--lambda", "3"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert "hyperbolic" in res.stdout and "Traceback" not in res.stderr


class TestFlowSvg:
    def test_flow_and_svg(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-4:5", "--lambda", "2", "-o", str(surf)])
        traj = tmp_path / "t.dump"
        res = runner.invoke(main, ["flow", str(surf), "--start", "0:1/4:1/10",
                                   "--dir", "1:1", "--length", "6",
                                   "-o", str(traj)])
        assert res.exit_code == 0, res.output
        assert traj.read_text().startswith("seg 0 ")
        svg = tmp_path / "out.svg"
        res = runner.invoke(main, ["svg", str(surf), "--traj", str(traj),
                                   "-o", str(svg)])
        assert res.exit_code == 0, res.output
        content = svg.read_text()
        assert content.startswith("<?xml") and "<svg" in content
        assert "<line" in content  # the trajectory overlay

    def test_exact_flow_cuts_in_the_field(self, runner, tmp_path):
        # direction (2, 1) over lam = 3: the speed sqrt(5) lies in Q(sqrt 5),
        # so the budget cut is exact and the dump ends at field values
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-4:5", "--lambda", "3", "-o", str(surf)])
        traj = tmp_path / "t.dump"
        res = runner.invoke(main, ["flow", str(surf), "--exact", "--start", "0:1/3:1/5",
                                   "--dir", "2:1", "--length", "6", "-o", str(traj)])
        assert res.exit_code == 0, res.output
        dump = formats.parse_trajectory(traj.read_text())
        *_, x_out, y_out, _ = dump.segments[-1]
        for v in (x_out, y_out):
            assert isinstance(v, QuadExt) and v.d == 5 and not v.is_rational()
        assert sum(seg[-1] for seg in dump.segments) == 6

    def test_svg_deterministic(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-3:4", "--lambda", "2", "-o", str(surf)])
        outs = []
        for name in ("a.svg", "b.svg"):
            f = tmp_path / name
            res = runner.invoke(main, ["svg", str(surf), "--start", "0:0.25:0.1",
                                       "--dir", "1:1", "--length", "5",
                                       "-o", str(f)])
            assert res.exit_code == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1]

    # 1:2 runs out of budget, 1:3 leaves the window (a dashed end marker)
    @pytest.mark.parametrize("direction", ["1:2", "1:3"])
    @pytest.mark.parametrize("shade", [[], ["--shade-coverage"]])
    def test_svg_of_dump_matches_svg_of_flow(self, runner, tmp_path, direction, shade):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-3:4", "--lambda", "2", "-o", str(surf)])
        flow_args = ["--start", "0:0.25:0.1", "--dir", direction, "--length", "20"]
        traj = tmp_path / "t.dump"
        res = runner.invoke(main, ["flow", str(surf), *flow_args, "-o", str(traj)])
        assert res.exit_code == 0, res.output
        from_dump = runner.invoke(main, ["svg", str(surf), "--traj", str(traj), *shade])
        from_flow = runner.invoke(main, ["svg", str(surf), *flow_args, *shade])
        assert from_dump.exit_code == 0 and from_flow.exit_code == 0
        assert "<line" in from_flow.output
        assert from_dump.output == from_flow.output

    @pytest.mark.parametrize("command, start", [("svg", "0:0.5"), ("flow", "99:0.5:0.5"),
                                                ("svg", "99:0.5:0.5")])
    def test_bad_start_exits_2(self, runner, tmp_path, command, start):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-3:4", "--lambda", "2", "-o", str(surf)])
        res = runner.invoke(main, [command, str(surf), "--start", start, "--dir", "1:1"])
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("half", [["--start", "0:0.25:0.1"], ["--dir", "1:1"]])
    def test_svg_start_and_dir_go_together(self, runner, tmp_path, half):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-3:4", "--lambda", "2", "-o", str(surf)])
        res = runner.invoke(main, ["svg", str(surf)] + half)
        assert res.exit_code == 2, res.output
        assert "--start and --dir" in res.output

    def test_svg_of_rotated_chart_and_singular_end_is_pinned(self):
        # rectangle 1 of this output sits in a chart rotated by pi (its
        # cylinder has flipped arrows); the dump crosses into it and ends
        # on its SW corner, so a point is drawn rotated and the end marked
        m = build_multicurves((1, 2), 3).complex
        assert m.h_layouts[0].orients == (1, -1)
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        dump = formats.TrajectoryDump(
            segments=((0, half, quarter, Fraction(1), half, 0.5590169943749475),
                      (1, Fraction(1), half, Fraction(0), Fraction(0), 1.118033988749895)),
            terminal="singular", detail=("1", "SW"))
        text = surface_svg(m, trajectories=[dump])
        assert '<circle cx="150.000000" cy="126.000000" r="3"' in text
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "0c411a103120c0a3e56799fccc5f8ba0fc89bfd7a4463e4841d56e9dfa9f8520")

    def test_svg_start_takes_fractions(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-3:4", "--lambda", "2", "-o", str(surf)])
        res = runner.invoke(main, ["svg", str(surf), "--start", "0:1/3:1/10",
                                   "--dir", "1:1", "--length", "5"])
        assert res.exit_code == 0, res.output
        assert "<line" in res.output


class TestMulticurve:
    def test_loch_ness_surface_file(self, runner, tmp_path):
        out = tmp_path / "mc.surf"
        res = runner.invoke(main, ["multicurve", "--family", "loch-ness",
                                   "--depth", "2", "--m", "2", "-o", str(out)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["verify", str(out), "--m", "2"])
        assert res.exit_code == 0, res.output

    def test_census_is_the_recipe_report(self, runner):
        rep = build_multicurves(loch_ness_tree(3), 2).report
        assert rep.passes
        res = runner.invoke(main, ["multicurve", "--family", "loch-ness",
                                   "--depth", "3", "--m", "2"])
        assert res.exit_code == 0, res.output
        assert f"faces {rep.face_census}; valence {rep.valence};" in res.output

    def test_deep_loch_ness_perron_pipeline(self, runner, tmp_path):
        # the Perron entries span many orders of magnitude at depth 40
        mc, surf = tmp_path / "mc.surf", tmp_path / "perron.surf"
        steps = (["multicurve", "--family", "loch-ness", "--depth", "40", "--m", "2",
                  "-o", str(mc)],
                 ["build", str(mc), "--mode", "perron", "-o", str(surf)],
                 ["verify", str(surf), "--m", "2"])
        for args in steps:
            res = runner.invoke(main, args)
            assert res.exit_code == 0, (args[0], res.output)

    def test_perron_pipeline_imports_no_numpy(self, tmp_path):
        # a fresh interpreter, so nothing another test imported counts
        mc, surf = tmp_path / "mc.surf", tmp_path / "perron.surf"
        steps = [["multicurve", "--family", "loch-ness", "--depth", "10", "--m", "2",
                  "-o", str(mc)],
                 ["build", str(mc), "--mode", "perron", "-o", str(surf)],
                 ["verify", str(surf), "--m", "2"]]
        script = (
            "import sys\n"
            "from multitwist.cli import main\n"
            f"for args in {steps!r}:\n"
            "    try:\n"
            "        main(args)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code in (0, None), (args[0], exc.code)\n"
            "print('numpy' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(multitwist.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "False"

    def test_infeasible_reports_usage_error(self, runner):
        res = runner.invoke(main, ["multicurve", "--genus", "0",
                                   "--punctures", "1", "--m", "1"])
        assert res.exit_code == 2
        assert "angle excess" in res.output

    def test_induced_tree_file(self, runner, tmp_path):
        # an induced tree's root is the str id "", written quoted
        tree = tmp_path / "t.tree"
        tree.write_text(formats.write_tree(induced_subtree(["ray:01", "cone:1"], 3)))
        res = runner.invoke(main, ["multicurve", str(tree), "--m", "2"])
        assert res.exit_code == 0, res.output

    def test_malformed_quote_exits_2(self, runner, tmp_path):
        tree = tmp_path / "bad.tree"
        tree.write_text('vertex "" root\nvertex "0 ""\nfrontier "0"\n')
        res = runner.invoke(main, ["multicurve", str(tree), "--m", "2"])
        assert res.exit_code == 2
        assert "line 2: malformed quoted vertex id" in res.output


class TestHarmonicModes:
    def test_truncated_mode_with_boundary_file(self, runner, tmp_path):
        gf = tmp_path / "ladder.graph"
        gf.write_text(LADDER)
        bf = tmp_path / "boundary.harm"
        bf.write_text("lambda 2\nh -3 1\nh 3 1\n")
        out = tmp_path / "h.harm"
        res = runner.invoke(main, ["harmonic", str(gf), "--mode", "truncated",
                                   "--lambda", "2", "--boundary", str(bf),
                                   "-o", str(out)])
        assert res.exit_code == 0, res.output
        from multitwist import formats
        h = formats.parse_harmonic(out.read_text())
        assert all(abs(v - 1) < 1e-9 for v in h.values.values())

    def test_truncated_mode_needs_boundary(self, runner, tmp_path):
        gf = tmp_path / "ladder.graph"
        gf.write_text(LADDER)
        res = runner.invoke(main, ["harmonic", str(gf), "--mode", "truncated",
                                   "--lambda", "2"])
        assert res.exit_code == 2

    def test_truncated_underflow_exits_2(self, runner, tmp_path):
        # lam = 10 on -400..400: the middle values are near 1e-400
        gf = tmp_path / "ladder.graph"
        gf.write_text(formats.write_graph(LadderFamily(-400, 400).graph()))
        bf = tmp_path / "boundary.harm"
        bf.write_text("lambda 10\nh -400 1\nh 400 1\n")
        res = runner.invoke(main, ["harmonic", str(gf), "--mode", "truncated",
                                   "--lambda", "10", "--boundary", str(bf)])
        assert res.exit_code == 2, res.output
        assert "error:" in res.output and "underflow" in res.output
        assert isinstance(res.exception, SystemExit)  # reported, not a traceback

    def test_truncated_verdict_skips_the_boundary_file(self, runner, tmp_path):
        # a ladder window, fixed at its ends and in the middle: the residual
        # at 0 is not a defect of the solve
        gf = tmp_path / "ladder.graph"
        gf.write_text(LADDER)
        bf = tmp_path / "boundary.harm"
        bf.write_text("lambda 3\nh -3 1\nh 0 1\nh 3 1\n")
        res = runner.invoke(main, ["harmonic", str(gf), "--mode", "truncated",
                                   "--lambda", "3", "--boundary", str(bf), "-o",
                                   str(tmp_path / "h.harm")])
        assert res.exit_code == 0, res.output
        assert "max residual 0.000e+00 (pass)" in res.output

    def test_truncated_verdict_on_a_recipe_graph(self, runner, tmp_path):
        # not a ladder window, so no boundary can be guessed from its shape
        surf = tmp_path / "ln.surf"
        res = runner.invoke(main, ["multicurve", "--family", "loch-ness", "--depth", "3",
                                   "--m", "2", "-o", str(surf)])
        assert res.exit_code == 0, res.output
        bf = tmp_path / "boundary.harm"
        bf.write_text("lambda 10\nh 0 1\n")
        res = runner.invoke(main, ["harmonic", str(surf), "--mode", "truncated",
                                   "--lambda", "10", "--boundary", str(bf), "-o",
                                   str(tmp_path / "h.harm")])
        assert res.exit_code == 0, res.output
        assert "(pass)" in res.output


class TestBuildModes:
    def test_closed_form_build_from_surface_file(self, runner, tmp_path):
        # strip the harmonic lines from a staircase file, rebuild closed-form
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-3:4", "--lambda", "3", "-o", str(surf)])
        bare = "\n".join(l for l in surf.read_text().splitlines()
                         if not l.startswith(("lambda", "h ")))
        bare_f = tmp_path / "bare.surf"
        bare_f.write_text(bare + "\n")
        rebuilt = tmp_path / "rebuilt.surf"
        res = runner.invoke(main, ["build", str(bare_f), "--mode", "closed-form",
                                   "--lambda", "3", "-o", str(rebuilt)])
        assert res.exit_code == 0, res.output
        assert rebuilt.read_text() == surf.read_text()

    @pytest.mark.parametrize("first", [
        pytest.param(["--family", "staircase", "--window", "-3:4", "--lambda", "3"],
                     id="exact-staircase"),
        pytest.param(["{mc}", "--mode", "perron"], id="float-perron-loch-ness"),
    ])
    def test_a_file_with_harmonic_data_rebuilds_to_the_same_bytes(self, runner, tmp_path,
                                                                 first):
        # the default --mode given keeps the file's own lambda and heights
        mc = tmp_path / "ln.mc.surf"
        mc.write_text(formats.write_surface(build_multicurves(loch_ness_tree(3), 2).complex))
        surf, again = tmp_path / "a.surf", tmp_path / "b.surf"
        res = runner.invoke(main, ["build", *(a.format(mc=mc) for a in first), "-o", str(surf)])
        assert res.exit_code == 0, res.output
        assert formats.parse_surface(surf.read_text()).harmonic is not None
        res = runner.invoke(main, ["build", str(surf), "-o", str(again)])
        assert res.exit_code == 0, res.output
        assert again.read_bytes() == surf.read_bytes()

    @pytest.mark.parametrize("mode", ["perron", "given"])
    def test_a_file_is_built_once(self, runner, tmp_path, monkeypatch, mode):
        # a multicurve file has no harmonic data: both modes take the Perron pair
        mc = tmp_path / "ln.mc.surf"
        mc.write_text(formats.write_surface(build_multicurves(loch_ness_tree(3), 2).complex))
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_surface(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("multitwist")
                    and getattr(module, "build_surface", None) is build_surface):
                monkeypatch.setattr(module, "build_surface", counted)
        out = tmp_path / "ln.surf"
        res = runner.invoke(main, ["build", str(mc), "--mode", mode, "-o", str(out)])
        assert res.exit_code == 0, res.output
        assert len(calls) == 1
        assert formats.parse_surface(out.read_text()).harmonic is not None


@pytest.mark.parametrize("command", ["harmonic", "flow", "build", "verify"])
def test_nonpositive_tolerance_exits_2(runner, tmp_path, command):
    gf = tmp_path / "k2.graph"  # also a surface file: one rectangle, no gluings
    gf.write_text(K2_GRAPH)
    surf = tmp_path / "st.surf"  # a correct exact lambda = 3 window
    res = runner.invoke(main, ["build", "--family", "staircase", "--window", "-3:4",
                               "--lambda", "3", "-o", str(surf)])
    assert res.exit_code == 0, res.output
    args = {"harmonic": ["harmonic", str(gf)],
            "flow": ["flow", str(gf), "--start", "0:1/3:1/5", "--dir", "1:1"],
            "build": ["build", "--family", "staircase", "--lambda", "3"],
            "verify": ["verify", str(surf)]}[command]
    for tol in ("0", "-1"):
        res = runner.invoke(main, args + ["--tol", tol])
        assert res.exit_code == 2, res.output
        assert "--tol" in res.output and "modulus" not in res.output


# one row per refusal path: (argv with {file} slots, exit code, fragment of
# stderr); none prints to stdout, and none ends in a traceback
_START = ["--start", "0:1/4:1/10"]
_BIG = "1" + "0" * 400
REFUSALS = {
    "harmonic-o-missing-dir": (["harmonic", "{ladder}", "-o", "{missing}"], 2,
                               "No such file or directory"),
    "build-o-missing-dir": (["build", "--family", "staircase", "-o", "{missing}"], 2,
                            "No such file or directory"),
    "flow-o-missing-dir": (["flow", "{surf}", *_START, "--dir", "1:1", "-o", "{missing}"], 2,
                           "No such file or directory"),
    "multicurve-o-missing-dir": (["multicurve", "--family", "loch-ness", "--depth", "2",
                                  "--m", "2", "-o", "{missing}"], 2,
                                 "No such file or directory"),
    "svg-o-missing-dir": (["svg", "{surf}", "-o", "{missing}"], 2, "No such file or directory"),
    # the staircase default lambda 2 stands in only for a missing --lambda
    "staircase-lambda-0": (["build", "--family", "staircase", "--lambda", "0"], 2,
                           "need lam >= 2"),
    "classify-depth-0": (["classify", "--word", "aB", "--lambda", "3", "--depth", "0"], 2,
                         "Invalid value for '--depth'"),
    "harmonic-closed-form-no-lambda": (["harmonic", "{ladder}", "--mode", "closed-form"], 2,
                                       "closed-form mode needs --lambda"),
    "build-closed-form-no-lambda": (["build", "{surf}", "--mode", "closed-form"], 2,
                                    "closed-form mode needs --lambda"),
    # a file's h records are checked whichever harmonic data the build takes
    "build-missing-h": (["build", "{noh}"], 2, "error: line 4: no value for vertex 0"),
    "build-perron-missing-h": (["build", "{noh}", "--mode", "perron"], 2,
                               "error: line 4: no value for vertex 0"),
    "build-closed-form-missing-h": (["build", "{noh}", "--mode", "closed-form", "--lambda", "2"],
                                    2, "error: line 4: no value for vertex 0"),
    "flow-negative-window": (["flow", "{surf}", *_START, "--dir", "1:1", "--window", "-2"], 2,
                             "Invalid value for '--window'"),
    # lam = 3/2 is below the spectral radius sqrt 3 of the interior path
    "truncated-positivity": (["harmonic", "{ladder}", "--mode", "truncated", "--lambda", "3/2",
                              "--boundary", "{boundary}"], 1,
                             "positivity failed at (-2, -1, 0, 1, 2)"),
    "read-a-directory": (["verify", "{tmp}"], 2, "Is a directory"),
    # edge 3 ends the open path sigma_h* 3: there is no arrow to flip
    "verify-flip-without-arrow": (["verify", "{badflip}"], 2,
                                  "line 26: flip 3 E names no arrow"),
    "exact-float-lambda": (["classify", "--word", "aB", "--lambda", "2.5"], 2,
                           "--exact needs a rational lambda, got 2.5"),
    "bad-direction": (["flow", "{surf}", *_START, "--dir", "1"], 2, "bad direction '1'"),
    # a ratio beyond float range, read without --exact
    "flow-direction-overflow": (["flow", "{surf}", "--start", "0:1/2:1/4", "--dir",
                                 "1:1" + "0" * 400], 2, "bad direction '1:1000"),
    "flow-start-overflow": (["flow", "{surf}", "--start", "0:1" + "0" * 400 + ":1/4",
                             "--dir", "1:1"], 2, "--start needs EDGE:X:Y"),
    # non-finite numbers are refused before the first crossing
    "flow-length-inf-exact": (["flow", "{surf}", *_START, "--dir", "1:2", "--length", "inf",
                               "--exact"], 2, "length budget inf is not finite"),
    "flow-length-inf": (["flow", "{surf}", *_START, "--dir", "1:2", "--length", "inf"], 2,
                        "length budget inf is not finite"),
    "flow-length-nan": (["flow", "{surf}", *_START, "--dir", "1:2", "--length", "nan"], 2,
                        "length budget nan is not finite"),
    "flow-direction-nan": (["flow", "{surf}", *_START, "--dir", "nan:1"], 2,
                           "direction (nan, 1.0) is not finite"),
    "svg-length-nan": (["svg", "{surf}", "--start", "0:0.5:0.25", "--dir", "1:1", "--length", "nan"],
                       2, "length budget nan is not finite"),
    "closed-form-off-ladder": (["harmonic", "{loch}", "--mode", "closed-form", "--lambda", "3"],
                               2, "graph is not a ladder window"),
    "closed-form-edgeless-graph": (["harmonic", "{empty}", "--mode", "closed-form",
                                    "--lambda", "3"], 2, "graph is not a ladder window"),
    # the path 0 - 3 - 2 - 1: contiguous ids and degrees <= 2, yet not the ladder
    "closed-form-path-out-of-order": (["harmonic", "{path}", "--mode", "closed-form",
                                       "--lambda", "3"], 2, "graph is not a ladder window"),
    "build-no-source": (["build"], 2, "need a surface file or --family"),
    "verify-wrong-weight": (["verify", "{loch}", "--m", "3"], 1,
                            "FAIL marked face 0 has 4 sides, expected 6"),
    "multicurve-ladder-depth-0": (["multicurve", "--family", "ladder", "--depth", "0"], 2,
                                  "error: need genus >= 1"),
    "multicurve-no-source": (["multicurve"], 2,
                             "need a tree file, --family, or --genus/--punctures"),
    # a NaN or infinite lambda is refused where the algebra coerces its
    # numbers and by the truncated solve
    "classify-lambda-nan": (["classify", "--word", "aB", "--lambda", "nan", "--float"], 2,
                            "nan is not a finite number"),
    "classify-lambda-inf": (["classify", "--word", "aB", "--lambda", "inf", "--float"], 2,
                            "inf is not a finite number"),
    "truncated-lambda-nan": (["harmonic", "{ladder}", "--mode", "truncated", "--lambda", "nan",
                              "--boundary", "{boundary}"], 2, "lam nan is not finite"),
    "truncated-lambda-inf": (["harmonic", "{ladder}", "--mode", "truncated", "--lambda", "inf",
                              "--boundary", "{boundary}"], 2, "lam inf is not finite"),
    # non-finite lambda and h records are refused where they are read
    "flow-h-inf": (["flow", "{infh}", *_START, "--dir", "1:1"], 2,
                   "h value inf at vertex 0 is not finite"),
    "verify-lambda-nan": (["verify", "{nanlam}"], 2, "line 9: lambda nan is not finite"),
    "truncated-boundary-lambda-inf": (["harmonic", "{ladder}", "--mode", "truncated",
                                       "--lambda", "3", "--boundary", "{infboundary}"], 2,
                                      "line 1: lambda inf is not finite"),
    # a dump drawn on a surface: each seg value finite, each seg edge in the surface
    "svg-traj-non-finite": (["svg", "{surf}", "--traj", "{nantraj}"], 2,
                            "error: line 1: seg value nan is not finite"),
    "svg-traj-unknown-edge": (["svg", "{surf}", "--traj", "{edgetraj}"], 2,
                              "error: line 1: seg names edge 99 that is not in the surface"),
    # a rational beyond float range is compared exactly, and refused where
    # a float is needed: the eigendirections of an irrational trace, --float,
    # the float truncated solve
    "classify-lambda-401-digits": (["classify", "--word", "aB", "--lambda", _BIG], 2,
                                   "a number is beyond float range"),
    "classify-float-lambda-401-digits": (["classify", "--word", "aB", "--lambda", _BIG,
                                          "--float"], 2, "a number is beyond float range"),
    "truncated-lambda-401-digits": (["harmonic", "{ladder}", "--mode", "truncated", "--lambda",
                                     _BIG, "--boundary", "{boundary}"], 2,
                                    "a number is beyond float range"),
    "truncated-boundary-401-digits": (["harmonic", "{ladder}", "--mode", "truncated",
                                       "--lambda", "3", "--boundary", "{bigboundary}"], 2,
                                      "a number is beyond float range"),
}


@pytest.mark.parametrize("argv, code, fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_exits_without_traceback(runner, tmp_path, argv, code, fragment):
    files = {"ladder": tmp_path / "ladder.graph", "surf": tmp_path / "st.surf",
             "loch": tmp_path / "ln.surf", "boundary": tmp_path / "b.harm",
             "empty": tmp_path / "empty.graph", "tmp": tmp_path,
             "missing": tmp_path / "missing" / "out", "badflip": tmp_path / "flip.surf",
             "infh": tmp_path / "infh.surf", "nanlam": tmp_path / "nanlam.surf",
             "infboundary": tmp_path / "inf.harm", "bigboundary": tmp_path / "big.harm",
             "path": tmp_path / "path.graph", "nantraj": tmp_path / "nan.traj",
             "edgetraj": tmp_path / "edge.traj", "noh": tmp_path / "noh.surf"}
    files["ladder"].write_text(LADDER)
    files["empty"].write_text("bipartite 0 0 0 2\n")
    files["path"].write_text("bipartite 2 2 3 2\nedge 0 0 3\nedge 1 2 3\nedge 2 2 1\n")
    files["surf"].write_text(formats.write_surface(staircase_complex(-3, 4, 2)))
    files["infh"].write_text(files["surf"].read_text().replace("\nh 0 1\n", "\nh 0 inf\n"))
    files["noh"].write_text(files["surf"].read_text().replace("\nh 0 1\n", "\n"))
    files["nanlam"].write_text(files["surf"].read_text().replace("\nlambda 2\n", "\nlambda nan\n"))
    files["infboundary"].write_text("lambda inf\nh -3 1\nh 3 1\n")
    files["bigboundary"].write_text(f"lambda 3\nh -3 {_BIG}\nh 3 1\n")
    files["badflip"].write_text(files["surf"].read_text() + "flip 3 E\n")
    files["loch"].write_text(formats.write_surface(build_multicurves(loch_ness_tree(2), 2).complex))
    files["boundary"].write_text("lambda 2\nh -3 1\nh 3 1\n")
    files["nantraj"].write_text("seg 0 nan 0.2 inf 0.4 0.5\nend budget\n")
    files["edgetraj"].write_text("seg 99 0.1 0.2 0.3 0.4 0.5\nend budget\n")
    res = runner.invoke(main, [a.format(**files) for a in argv])
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert fragment in res.stderr
    assert res.stdout == ""
    if code == 2:
        assert sum(l.lower().startswith("error:") for l in res.stderr.splitlines()) == 1


def test_unwritable_output_exits_2_in_a_fresh_interpreter(tmp_path):
    src = os.path.dirname(os.path.dirname(multitwist.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-m", "multitwist.cli", "build", "--family", "staircase",
                          "-o", str(tmp_path / "missing" / "x.surf")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 2, res.stderr
    assert "error:" in res.stderr and "Traceback" not in res.stderr


def test_large_radicand_lambda_exits_2_in_a_fresh_interpreter():
    """lam**2 - 4 = (10**30 + 5)(10**30 + 9) once sent trial division past
    20 s; the timeout makes that a failure."""
    src = os.path.dirname(os.path.dirname(multitwist.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-m", "multitwist.cli", "build", "--family", "staircase",
                          "--lambda", str(10**30 + 7)],
                         env=env, capture_output=True, text=True, timeout=10)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: radicand ") and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_a_bug_is_not_reported_as_bad_input(runner, tmp_path, monkeypatch):
    def broken(text):
        raise TypeError("a bug")

    monkeypatch.setattr(formats, "parse_surface", broken)
    surf = tmp_path / "st.surf"
    surf.write_text(formats.write_surface(staircase_complex(-3, 4, 2)))
    res = runner.invoke(main, ["verify", str(surf)])
    assert res.exit_code == 1
    assert isinstance(res.exception, TypeError) and "error:" not in res.output
