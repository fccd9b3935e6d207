"""Command-line interface: commands, exit codes, determinism."""

import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import multitwist
from multitwist import formats
from multitwist.cli import main
from multitwist.graphs import LadderFamily
from multitwist.quadfield import QuadExt
from multitwist.recipe import build_multicurves, loch_ness_tree
from multitwist.surfaces import staircase_complex

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

    def test_tampered_height_fails_modulus(self, runner, tmp_path):
        surf = tmp_path / "st.surf"
        runner.invoke(main, ["build", "--family", "staircase", "--window",
                             "-4:5", "--lambda", "2", "-o", str(surf)])
        text = surf.read_text().replace("h 0 1\n", "h 0 7/5\n")
        (tmp_path / "bad.surf").write_text(text)
        res = runner.invoke(main, ["verify", str(tmp_path / "bad.surf")])
        assert res.exit_code == 1
        assert "modulus" in res.output

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

    def test_infeasible_reports_usage_error(self, runner):
        res = runner.invoke(main, ["multicurve", "--genus", "0",
                                   "--punctures", "1", "--m", "1"])
        assert res.exit_code == 2
        assert "angle excess" in res.output


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


@pytest.mark.parametrize("command", ["harmonic", "flow", "build", "verify", "classify"])
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
            "verify": ["verify", str(surf)],
            "classify": ["classify", "--word", "aB", "--lambda", "3"]}[command]
    for tol in ("0", "-1"):
        res = runner.invoke(main, args + ["--tol", tol])
        assert res.exit_code == 2, res.output
        assert "--tol" in res.output and "modulus" not in res.output
