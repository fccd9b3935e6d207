"""The four workload jobs.  Each runs its fixed job once on seeded inputs,
timing every operation through a `Pass` and checking every output.

`mt` is a namespace of the package's modules (mt.surfaces, mt.flow, ...),
imported fresh during set-up.
"""

from __future__ import annotations

import math
import os

import inputs as I
from tracing import span_stats


def _size_label(n: int) -> str:
    return f"{n // 1000}k" if n % 1000 == 0 else str(n)


def _growth(t_small: float, t_big: float) -> float:
    """log2 of the time ratio over one doubling of the size."""
    return math.log2(t_big / t_small)


# -- shared checks ---------------------------------------------------------

def _check_modulus_law(p, mt, m, lam, exact: bool):
    bad = 0
    for direction in ("horizontal", "vertical"):
        for cyl in mt.surfaces.cylinders(m, direction):
            if cyl.truncated:
                continue
            if exact:
                bad += cyl.modulus * lam != 1
            else:
                bad += abs(float(cyl.modulus) * lam - 1.0) > 1e-12
    p.check(bad == 0, f"{bad} complete cylinders break modulus = 1/lam")


def _check_window(p, mt, m, n: int, lam, exact: bool):
    p.check(len(m.edges) == n, f"{len(m.edges)} rectangles, expected {n}")
    quarters = sum(c.k for c in m.corner_cycles)
    p.check(quarters == 4 * n, f"corner partition {quarters} != {4 * n}")
    _check_modulus_law(p, mt, m, lam, exact)


def _check_faces(p, m, weight: int, genus: int, punctures: int):
    """Recipe contract, and the surface the request asked for: the Euler
    characteristic V - n of the closed surface (n squares, 2n sides, V
    cone points) is 2 - 2g, and the punctured faces are the requested
    punctures plus the truncated ends."""
    n = len(m.edges)
    p.check(sum(c.k for c in m.corner_cycles) == 4 * n, "corner partition broken")
    marked = [c.k for c in m.corner_cycles if c.marked]
    p.check(marked == [2 * weight], f"marked faces {marked}, expected one {2 * weight}-gon")
    bound = max(8, weight)
    p.check(all(c.k <= bound for c in m.corner_cycles if not c.marked),
            "unmarked face above the side bound")
    p.check(not m.frontier, "multicurve output has frontier sides")
    chi = len(m.corner_cycles) - n
    p.check(chi == 2 - 2 * genus, f"chi {chi}, genus {genus} needs {2 - 2 * genus}")
    holes = sum(c.puncture for c in m.corner_cycles)
    p.check(holes == punctures, f"{holes} punctured faces, expected {punctures}")


def _segments_exact(traj) -> bool:
    """Every coordinate of an exact flow has an exact type.  (The value at
    a budget cut can still be rounded; `flow.exact.float_drift_max` shows
    how far the exact run ends from its float mirror.)"""
    for s in traj.segments:
        for v in (s.x_in, s.y_in, s.x_out, s.y_out):
            if isinstance(v, float):
                return False
    return True


# -- staircase -------------------------------------------------------------

def staircase(p, mt, inp, art):
    S, F, FL = mt.surfaces, mt.formats, mt.flow
    start_mark = p.mark()
    floats, exacts = {}, {}
    for n, (lo, hi) in zip(I.STAIRCASE_FLOAT_SIZES, inp["float_windows"]):
        with p.guard():
            m = p.op(f"build.float.{n}", S.staircase_complex, lo, hi, 2, exact=False)
            p.layer[f"surfaces.build.s.{_size_label(n)}"] = p.last_seconds
            _check_window(p, mt, m, n, 2.0, exact=False)
            floats[n] = m
    for n, (lo, hi) in zip(I.STAIRCASE_EXACT_SIZES, inp["exact_windows"]):
        with p.guard():
            m = p.op(f"build.exact.{n}", S.staircase_complex, lo, hi, 3)
            p.layer[f"surfaces.build_exact.s.{_size_label(n)}"] = p.last_seconds
            _check_window(p, mt, m, n, 3, exact=True)
            exacts[n] = m
    fs, es = I.STAIRCASE_FLOAT_SIZES, I.STAIRCASE_EXACT_SIZES
    if len(floats) == len(fs):
        t = [p.layer[f"surfaces.build.s.{_size_label(n)}"] for n in fs]
        p.layer["surfaces.build.growth_exp"] = _growth(t[-2], t[-1])
        p.layer["surfaces.build.rects_per_s"] = fs[-1] / t[-1]
    if len(exacts) == len(es):
        t = [p.layer[f"surfaces.build_exact.s.{_size_label(n)}"] for n in es]
        p.layer["surfaces.build_exact.growth_exp"] = _growth(t[-2], t[-1])

    inv = 0.0
    for m in (floats.get(fs[-1]), exacts.get(es[-1])):
        if m is None:
            continue
        with p.guard():
            total = 0
            for direction in ("horizontal", "vertical"):
                cyls = p.op("cylinders", S.cylinders, m, direction)
                inv += p.last_seconds
                p.check(len(cyls) == len({c.vertex for c in cyls}), "one cylinder per curve")
                total += sum(len(c.edges) for c in cyls)
            p.check(total == 2 * len(m.edges), "cylinders do not cover each rectangle twice")
            cones = p.op("cone_points", S.cone_points, m)
            inv += p.last_seconds
            p.check(sum(k for _, _, _, k in cones) == 4 * len(m.edges), "cone angles")
            chi = p.op("euler_characteristic", _euler_or_none, S, m)
            inv += p.last_seconds
            p.check(chi is None, "Euler characteristic of a window truncation must be undefined")
    p.layer["surfaces.invariants.s"] = inv

    m = floats.get(I.STAIRCASE_ROUND_TRIP)
    if m is not None:
        with p.guard():
            text = p.op("write_surface", F.write_surface, m)
            p.layer["formats.write_surface.s"] = p.last_seconds
            m2 = p.op("parse_surface", F.parse_surface, text)
            p.layer["formats.parse_surface.s"] = p.last_seconds
            p.check(m2 == m, "parse_surface(write_surface(m)) != m")

    big = floats.get(fs[-1])
    if big is not None:
        for e, fx, fy in inp["flows"]:
            with p.guard():
                traj = p.op("flow.slope1", FL.flow, big, FL.SurfacePoint(e, fx, fy),
                            (1.0, 1.0), I.STAIRCASE_FLOW_LENGTH)
                p.check(traj.terminal == "budget", f"terminal {traj.terminal}")
                # criterion 08: no visit to the start rectangle after 10% of the run
                acc, last = 0.0, 0.0
                for s in traj.segments:
                    if s.edge == e:
                        last = acc
                    acc += s.length
                p.check(last <= 0.1 * acc, "start rectangle revisited late")
    if p.tracer is not None:
        spans = p.spans_since(start_mark)
        p.layer["graphs.closed_form.s"] = span_stats(spans, "graphs.harmonic_closed_form")[1]


def _euler_or_none(S, m):
    try:
        return S.euler_characteristic(m)
    except ValueError:
        return None


# -- flow-sweep ------------------------------------------------------------

def _check_reversible(p, FL, m, traj, start, length):
    back = FL.flow(m, traj.final_point, tuple(-c for c in traj.final_direction), length)
    q = back.final_point
    ok = (back.terminal == "budget" and q.edge == start.edge
          and abs(q.x - start.x) <= 1e-7 and abs(q.y - start.y) <= 1e-7)
    p.check(ok, "flow back does not return to the start")


def flow_sweep(p, mt, inp, art):
    S, FL, MO = mt.surfaces, mt.flow, mt.mobius
    crossings = exits = trajectories = 0
    for n in I.SWEEP_WINDOWS:
        with p.guard():
            m = p.op(f"build.{n}", S.staircase_complex, -(n // 2), n - n // 2, 2, exact=False)
            t = 0.0
            cross_n = 0
            for k, (e, fx, fy, d) in enumerate(inp["windows"][n]):
                with p.guard():
                    start = FL.SurfacePoint(e, fx, fy)
                    traj = p.op("flow.sweep", FL.flow, m, start, d, I.SWEEP_LENGTH)
                    t += p.last_seconds
                    cross_n += len(traj.segments)
                    trajectories += 1
                    exits += traj.terminal == "window-exit"
                    p.check(traj.terminal in ("budget", "window-exit"), f"terminal {traj.terminal}")
                    if traj.terminal == "budget":
                        p.check(abs(traj.total_length - I.SWEEP_LENGTH) <= 1e-9 * I.SWEEP_LENGTH,
                                "trajectory length differs from the budget")
                        if k % 10 == 0:
                            _check_reversible(p, FL, m, traj, start, I.SWEEP_LENGTH)
            crossings += cross_n
            p.layer[f"flow.float.crossing_us.w{n}"] = t / cross_n * 1e6
    p.layer["flow.float.crossings"] = crossings
    ws = I.SWEEP_WINDOWS
    if all(f"flow.float.crossing_us.w{n}" in p.layer for n in ws[-2:]):
        p.layer["flow.float.growth_exp"] = _growth(p.layer[f"flow.float.crossing_us.w{ws[-2]}"],
                                                   p.layer[f"flow.float.crossing_us.w{ws[-1]}"])
    p.layer["flow.float.window_exit_ratio"] = exits / max(trajectories, 1)

    windows = {}
    for n in I.SADDLE_WINDOWS:
        with p.guard():
            windows[n] = p.op(f"build.saddle.{n}", S.staircase_complex,
                              -(n // 2), n - n // 2, 3, exact=False)
    saddle = {n: [0.0, 0, 0, math.inf] for n in windows}  # seconds, rays, found, min dist
    code_s = 0.0
    verdicts = {"yes": 0, "no": 0, "undetermined": 0}
    for letters in inp["coding_words"]:
        with p.guard():
            eig = _float_eigendirection(p, MO, letters)
            verdict = p.op("renormalizable", MO.renormalizable, eig, 3.0)
            code_s += p.last_seconds
            verdicts[verdict.verdict] += 1
    for letters in inp["saddle_words"]:
        with p.guard():
            eig = _float_eigendirection(p, MO, letters)
            for n, m in windows.items():
                rep = p.op("detect_saddle_connection", FL.detect_saddle_connection,
                           m, (eig.x, eig.y), I.SADDLE_LENGTH)
                acc = saddle[n]
                acc[0] += p.last_seconds
                acc[1] += rep.rays_launched
                acc[2] += rep.found is not None
                acc[3] = min(acc[3], rep.min_corner_distance)
                p.check(rep.rays_launched >= 1, "no separatrix launched")
                if rep.found is not None:
                    p.check(rep.found[3] <= I.SADDLE_LENGTH * (1 + 1e-9),
                            "saddle connection longer than the bound")
    for n, (sec, rays, found, dist) in saddle.items():
        p.layer[f"flow.saddle.s.w{n}"] = sec
        p.layer[f"flow.saddle.rays.w{n}"] = rays
        p.layer[f"flow.saddle.found.w{n}"] = found
        p.layer[f"flow.saddle.min_corner_distance.w{n}"] = dist
    p.layer["mobius.float.code_ms"] = code_s / len(inp["coding_words"]) * 1e3
    for v, k in verdicts.items():
        p.layer[f"mobius.float.verdicts_{v}"] = k


def _float_eigendirection(p, MO, letters):
    """Expanding eigendirection of a positive word at lam = 3.0, checked to
    be hyperbolic and fixed by the matrix."""
    mat = p.op("rho", MO.rho, MO.TwistWord.make(letters), 3.0)
    cls = p.op("classify", MO.classify, mat)
    p.check(cls == "hyperbolic", f"positive word classified {cls}")
    eig = p.op("eigendirections", MO.eigendirections, mat)[0]
    a, b, c, d = (float(v) for v in mat.entries())
    x, y = float(eig.x), float(eig.y)
    p.check(abs((a * x + b * y) * y - (c * x + d * y) * x) <= 1e-9 * (abs(a) + abs(b) + abs(c) + abs(d)),
            "expanding eigendirection is not fixed")
    return eig


# -- exact -----------------------------------------------------------------

def _beta_support(n: int) -> set:
    """Criterion 13's shrinking beta supports on the (-15, 16) staircase."""
    return {-1, 1} | {v for v in range(-15, 17) if v % 2 and abs(v) >= 2 * n + 1}


def exact(p, mt, inp, art):
    S, FL, MO = mt.surfaces, mt.flow, mt.mobius
    pairs = {}
    for lam, (lo, hi) in ((2, inp["l2_window"]), (3, inp["l3_window"])):
        with p.guard():
            ex = p.op(f"build.exact.l{lam}", S.staircase_complex, lo, hi, lam)
            _check_window(p, mt, ex, hi - lo, lam, exact=True)
            fl = p.op(f"build.float.l{lam}", S.staircase_complex, lo, hi, lam, exact=False)
            pairs[lam] = (ex, fl)
    art["l3_window"] = pairs.get(3, (None,))[0]

    ex_t = 0.0
    ex_cross = 0
    drift = 0.0
    for lam, e, fx, fy, d, length in inp["flows"]:
        if lam not in pairs:
            continue
        ex, fl = pairs[lam]
        with p.guard():
            x, y = ex.width[e] * fx, ex.height[e] * fy
            tr = p.op("flow.exact", FL.flow, ex, FL.SurfacePoint(e, x, y), d, length)
            ex_t += p.last_seconds
            ex_cross += len(tr.segments)
            p.check(_segments_exact(tr), "exact flow produced float coordinates")
            tf = p.op("flow.float", FL.flow, fl, FL.SurfacePoint(e, float(x), float(y)),
                      (float(d[0]), float(d[1])), length)
            full = min(len(tr.segments), len(tf.segments)) - 1  # crossings before the cut
            seq_e = [s.edge for s in tr.segments[:full]]
            seq_f = [s.edge for s in tf.segments[:full]]
            p.check(seq_e == seq_f and tr.terminal == tf.terminal,
                    "exact and float flows take different crossings")
            for se, sf in zip(tr.segments[:full], tf.segments[:full]):
                drift = max(drift, abs(float(se.x_out) - sf.x_out), abs(float(se.y_out) - sf.y_out))
            qe, qf = tr.final_point, tf.final_point
            drift = max(drift, abs(float(qe.x) - qf.x), abs(float(qe.y) - qf.y))
    p.layer["flow.exact.crossings"] = ex_cross
    p.layer["flow.exact.crossing_us"] = ex_t / max(ex_cross, 1) * 1e6
    p.layer["flow.exact.float_drift_max"] = drift

    with p.guard():
        st = p.op("build.exact.c13", S.staircase_complex, -15, 16, 2)
        limit = frozenset({-1, 1})
        t, stable = 0.0, []
        for w in I.TWIST_WINDOWS:
            rep = p.op("compact_open_convergence_check", FL.compact_open_convergence_check,
                       st, _beta_support, limit, window=range(-w, w + 1), n_max=10)
            t += p.last_seconds
            p.check(rep.pointwise_verified and rep.n_stable <= rep.checked_up_to,
                    "twist family not pointwise stable")
            stable.append(rep.n_stable)
        p.check(stable == sorted(stable), "n_stable not monotone in the window")
        p.layer["flow.twist.s"] = t

    code_s, steps, compared, contradictions = 0.0, 0, 0, 0
    for letters in inp["words"]:
        with p.guard():
            word = MO.TwistWord.make(letters)
            mat = p.op("rho.exact", MO.rho, word, 3)
            cls = p.op("classify.exact", MO.classify, mat)
            p.check(cls == "hyperbolic", f"positive word classified {cls}")
            br = p.op("brenner_check", MO.brenner_check, mat, 3)
            p.check(br.in_form and br.interval_ok, "integer form or interval exclusion fails")
            eig = p.op("eigendirections.exact", MO.eigendirections, mat)
            a, b, c, dd = mat.entries()
            x, y = eig[0].x, eig[0].y
            p.check(eig[0].is_exact() and (a * x + b * y) * y == (c * x + dd * y) * x,
                    "exact eigendirection is not fixed")
            verdict = p.op("renormalizable.exact", MO.renormalizable, eig[0], 3, depth=60)
            code_s += p.last_seconds
            steps += verdict.steps
            fmat = p.op("rho.float", MO.rho, word, 3.0)
            feig = p.op("eigendirections.float", MO.eigendirections, fmat)
            fverdict = p.op("renormalizable.float", MO.renormalizable, feig[0], 3.0, depth=60)
            compared += 1
            contradictions += {verdict.verdict, fverdict.verdict} == {"yes", "no"}
    p.layer["mobius.exact.code_ms"] = code_s / len(inp["words"]) * 1e3
    p.layer["mobius.exact.steps"] = steps
    p.layer["mobius.verdict_contradictions"] = contradictions
    p.layer["mobius.verdicts_compared"] = compared


# -- recipe-cli ------------------------------------------------------------

def _modulus_error(F, G, text: str) -> tuple:
    """(max |lam h(v)/(A h)(v) - 1|, max |A h - lam h|/h(v)) from a surface
    file's harmonic data; the first is the modulus-law error of vertex v's
    cylinder, which `verify` compares against its tolerance."""
    g = F.parse_graph(text)
    h = F.parse_harmonic(text)
    ah = G.apply_adjacency(g, h.values)
    lam = float(h.lam)
    mod = max(abs(lam * float(h.values[v]) / float(ah[v]) - 1.0) for v in g.vertices())
    rel = max(abs(float(ah[v]) - lam * float(h.values[v])) / float(h.values[v])
              for v in g.vertices())
    return mod, rel, g, h


# Pipelines on which `build --mode perron` is known to break the modulus
# law: `perron_pair` stops on an absolute residual while the relative
# residuals reach 4e-6.  Every other pipeline must meet the law.
PERRON_MODULUS_DEFECT = frozenset({"loch-ness.d40"})


def recipe_cli(p, mt, inp, art):
    F, G, main = mt.formats, mt.graphs, mt.cli.main
    tol = mt.cli.DEFAULT_TOL
    work = inp["workdir"]
    # (label, depth, weight, genus, punctures, multicurve arguments)
    runs = [(f"{fam}.d{depth}", depth, I.RECIPE_WEIGHT, depth, I.RECIPE_FAMILIES[fam],
             [path, "--m", str(I.RECIPE_WEIGHT)])
            for fam, depth, path in inp["trees"]]
    runs += [(f"finite.g{g}n{n}m{m}", None, m, g, n,
              ["--genus", str(g), "--punctures", str(n), "--m", str(m)])
             for g, n, m in inp["finite"]]
    per_depth = {d: [0.0, 0.0] for d in I.RECIPE_DEPTHS}  # build, verify seconds
    squares = 0
    worst_rel = 0.0
    start_mark = p.mark()
    for (label, depth, weight, genus, holes, mc_args), (pick, fx, fy, (dx, dy)) in zip(
            runs, inp["flows"]):
        base = os.path.join(work, label)
        mark = p.mark()
        with p.guard():
            code, _, _ = p.cli(main, "multicurve", mc_args + ["-o", base + ".mc.surf"])
            p.check(code == 0, f"multicurve exit {code}")
            with open(base + ".mc.surf", encoding="utf-8") as fh:
                m = F.parse_surface(fh.read())
            _check_faces(p, m, weight, genus, holes)
            if depth is not None:
                squares += len(m.edges)

            surf = base + ".surf"
            code, _, _ = p.cli(main, "build", [base + ".mc.surf", "--mode", "perron", "-o", surf])
            with open(surf, encoding="utf-8") as fh:
                text = fh.read()
            mod_err, rel, g, h = _modulus_error(F, G, text)
            worst_rel = max(worst_rel, rel)
            broken = mod_err > tol
            want = int(broken)
            if label in PERRON_MODULUS_DEFECT:
                # the known defect: counted by name while it lasts, and
                # the CLI must report it
                p.counts["recipe.perron_modulus_failures"] += broken
            else:
                p.check(not broken, f"modulus error {mod_err:.3g} above the tolerance {tol}")
            p.check(code == want, f"build exit {code}, modulus error {mod_err:.3g} expects {want}")
            code, _, _ = p.cli(main, "verify", [surf])
            p.check(code == want, f"verify exit {code}, expected {want}")
            code, _, _ = p.cli(main, "verify", [surf, "--m", str(weight)])
            p.check(code == want, f"verify --m exit {code}, expected {want}")

            edges = sorted(g.edge_map().items())
            e, (i, j) = edges[int(pick * len(edges))]
            x, y = fx * float(h.values[j]), fy * float(h.values[i])
            dump = base + ".dump"
            code, _, _ = p.cli(main, "flow", [surf, "--start", f"{e}:{x!r}:{y!r}",
                                              "--dir", f"{dx}:{dy}",
                                              "--length", repr(I.CLI_FLOW_LENGTH),
                                              "--tol", repr(I.CLI_FLOW_TOL), "-o", dump])
            p.check(code == 0, f"flow exit {code}")
            with open(dump, encoding="utf-8") as fh:
                traj = F.parse_trajectory(fh.read())
            if traj.terminal == "singular":
                # corner_tol is absolute, and the deep pipelines have sides
                # below it: a hit is valid when it lies within the tolerance
                p.counts["cli.flow_singular"] += 1
                e_end, _, _, xo, yo, _ = traj.segments[-1]
                i_end, j_end = g.edge_map()[e_end]
                w, hh = float(h.values[j_end]), float(h.values[i_end])
                dist = min(max(abs(xo - cx), abs(yo - cy)) for cx in (0.0, w) for cy in (0.0, hh))
                p.check(dist <= I.CLI_FLOW_TOL * (1 + 1e-6), f"singular end {dist:.3g} from a corner")
            else:
                length = sum(float(s[5]) for s in traj.segments)
                p.check(traj.terminal == "budget"
                        and abs(length - I.CLI_FLOW_LENGTH) <= 1e-9 * I.CLI_FLOW_LENGTH,
                        f"trajectory ends {traj.terminal} after {length}")

            picture = base + ".svg"
            code, _, _ = p.cli(main, "svg", [surf, "--traj", dump, "-o", picture])
            p.check(code == 0, f"svg exit {code}")
            with open(picture, encoding="utf-8") as fh:
                svg = fh.read()
            p.check(svg.lstrip().startswith("<?xml") and svg.rstrip().endswith("</svg>")
                    and svg.count("<rect") >= len(m.edges), "malformed svg")
        spans = p.spans_since(mark)
        if depth is not None and spans:
            per_depth[depth][0] += span_stats(spans, "recipe.build_multicurves")[1]
            per_depth[depth][1] += span_stats(spans, "recipe.verify_recipe")[1]
    p.layer["recipe.squares"] = squares
    p.layer["graphs.perron.max_rel_residual"] = worst_rel
    p.layer["cli.exit_nonzero"] = p.counts["cli.exit_nonzero"]
    p.layer["recipe.perron_modulus_failures"] = p.counts["recipe.perron_modulus_failures"]
    if p.tracer is not None:
        spans = p.spans_since(start_mark)
        for key, name in (("surfaces.pipeline_build", "surfaces.build_surface"),
                          ("graphs.perron", "graphs.perron_pair")):
            calls, seconds = span_stats(spans, name)
            p.layer[f"{key}.s"] = seconds
            if key == "surfaces.pipeline_build":
                p.layer[f"{key}.calls"] = calls
        for name in ("write_surface", "parse_surface"):
            p.layer[f"formats.{name}.s.recipe-cli"] = span_stats(spans, f"formats.{name}")[1]
        p.layer["svg.render.s"] = span_stats(spans, "svg.surface_svg")[1]
        for d, (b, v) in per_depth.items():
            p.layer[f"recipe.build.s.d{d}"] = b
            p.layer[f"recipe.verify.s.d{d}"] = v
        ds = I.RECIPE_DEPTHS
        p.layer["recipe.growth_exp"] = _growth(per_depth[ds[-2]][0], per_depth[ds[-1]][0])
        p.layer["recipe.verify.growth_exp"] = _growth(per_depth[ds[-2]][1], per_depth[ds[-1]][1])


JOBS = {
    "staircase": staircase,
    "flow-sweep": flow_sweep,
    "exact": exact,
    "recipe-cli": recipe_cli,
}
