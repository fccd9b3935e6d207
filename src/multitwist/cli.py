"""Command-line front end.

Exit codes: 0 success / verification pass, 1 verification failure,
2 bad input.  Bad input is refused in one place: the group's `invoke`
turns any ValueError (every library refusal derives from it), OSError
(a file that cannot be read or written) or OverflowError (an input number
beyond float range, met where a float is needed) into one `error:` line
and exit 2.  Other exceptions are bugs and keep their tracebacks.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import click

from . import formats, graphs, mobius, svg as svgmod
from .flow import _CORNER_TOL, SurfacePoint, coverage_stats, flow
from .quadfield import field_of

from .recipe import build_multicurves, ladder_tree, loch_ness_tree, verify_recipe
from .surfaces import _off_modulus, euler_characteristic, is_translation, staircase_complex

DEFAULT_TOL = 1e-10
_TOL = click.FloatRange(min=0, min_open=True)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(path: str, text: str):
    if path == "-":
        click.echo(text, nl=False)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_lambda(text, exact: bool):
    """lambda as written: a rational stays exact under --float too, so
    closed-form heights are computed exactly (staircase windows round them)."""
    value = formats.parse_number(text)
    if exact and isinstance(value, float):
        raise click.UsageError(f"--exact needs a rational lambda, got {text}")
    return value


def _parse_direction(text, exact: bool):
    try:
        xs, ys = text.split(":")
        if exact:
            return (formats.parse_number(xs), formats.parse_number(ys))
        return (float(formats.parse_number(xs)), float(formats.parse_number(ys)))
    except (ValueError, OverflowError) as exc:  # OverflowError: a ratio beyond float range
        raise click.UsageError(f"bad direction {text!r}: {exc}") from exc


def _parse_start(text, exact: bool) -> SurfacePoint:
    """A flow start EDGE:X:Y in chart coordinates; X and Y as floats unless
    exact.  Whether the point lies in the complex is the flow's check."""
    try:
        edge, xs, ys = text.split(":")
        x, y = formats.parse_number(xs), formats.parse_number(ys)
        if not exact:
            x, y = float(x), float(y)
        return SurfacePoint(int(edge), x, y)
    except (ValueError, OverflowError) as exc:
        raise click.UsageError(f"--start needs EDGE:X:Y, got {text!r}: {exc}") from exc


class _Commands(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            _fail(str(exc))
        except OverflowError as exc:
            _fail(f"a number is beyond float range: {exc}")


@click.group(cls=_Commands)
def main():
    """Flat surfaces from filling multicurve pairs: harmonic functions,
    multitwist matrices, straight-line flow."""


@main.command()
@click.argument("graph_file", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice(["perron", "closed-form", "truncated"]),
              default="perron", show_default=True)
@click.option("--lambda", "lam", default=None, help="stretch factor (closed-form/truncated)")
@click.option("--tol", type=_TOL, default=DEFAULT_TOL, show_default=True)
@click.option("--exact/--float", "exact", default=True)
@click.option("--boundary", type=click.Path(exists=True), default=None,
              help="harmonic file fixing boundary values (truncated mode)")
@click.option("-o", "--out", default="-")
def harmonic(graph_file, mode, lam, tol, exact, boundary, out):
    """Compute a harmonic vertex function on a configuration graph."""
    g = formats.parse_graph(_read(graph_file))
    if mode != "truncated":
        h, fixed = _harmonic_of(g, mode, lam, exact)
    else:
        if lam is None or boundary is None:
            raise click.UsageError("truncated mode needs --lambda and --boundary")
        bh = formats.parse_harmonic(_read(boundary))
        res = graphs.harmonic_truncated(g, float(formats.parse_number(lam)),
                                        {v: float(x) for v, x in bh.values.items()})
        if not res.positive:
            click.echo(f"positivity failed at {res.nonpositive_vertices}", err=True)
            sys.exit(1)
        h, fixed = res.assignment(), bh.values.keys()
    report = graphs.verify_harmonic(g, h, tol, boundary=fixed)
    _write_out(out, formats.write_harmonic(h))
    click.echo(f"max residual {report.max_residual:.3e} "
               f"({'pass' if report.passes else 'FAIL'})", err=True)
    sys.exit(0 if report.passes else 1)


def _harmonic_of(g, mode: str, lam, exact: bool):
    """Perron or closed-form harmonic data on g, and the vertices the solve
    fixed, which the residual verdict skips."""
    if mode == "perron":
        return graphs.perron_pair(g), ()
    verts = sorted(g.vertices())
    lo, hi = (verts[0], verts[-1]) if verts else (0, 0)
    # the ladder's edges n -- n + 1, compared by their end points: edge ids may differ
    if hi <= lo or sorted(ij for _, *ij in g.edges) != sorted(
            ij for _, *ij in graphs.LadderFamily(lo, hi).graph().edges):
        raise click.UsageError("graph is not a ladder window")
    if lam is None:
        raise click.UsageError("closed-form mode needs --lambda")
    fam = graphs.LadderFamily(lo, hi)
    return graphs.harmonic_closed_form(fam, _parse_lambda(lam, exact)), fam.boundary()


@main.command()
@click.argument("surface_file", type=click.Path(exists=True), required=False)
@click.option("--family", type=click.Choice(["staircase"]), default=None)
@click.option("--window", default="-4:5", show_default=True, help="LO:HI for --family")
@click.option("--lambda", "lam", default=None)
@click.option("--mode", type=click.Choice(["given", "perron", "closed-form"]),
              default="given", show_default=True)
@click.option("--exact/--float", "exact", default=True)
@click.option("--tol", type=_TOL, default=DEFAULT_TOL, show_default=True)
@click.option("-o", "--out", default="-")
def build(surface_file, family, window, lam, mode, exact, tol, out):
    """Assemble a flat surface and write its surface file."""
    if family == "staircase":
        lo, hi = (int(t) for t in window.split(":"))
        lam_v = 2 if lam is None else _parse_lambda(lam, exact)
        if exact and field_of((lam_v,)) != 0:  # its heights would need a second field
            raise click.UsageError(f"--exact needs a rational lambda, got {lam}")
        m = staircase_complex(lo, hi, lam_v, exact=exact)
    elif surface_file:
        def harmonic_of(graph, given):
            # a given file keeps its harmonic data; one without takes the Perron pair
            if mode == "given" and given is not None:
                return given
            return _harmonic_of(graph, "perron" if mode == "given" else mode, lam, exact)[0]

        m = formats._parse_surface(_read(surface_file), harmonic_of)
    else:
        raise click.UsageError("need a surface file or --family")
    _write_out(out, formats.write_surface(m))
    _verify_and_report(m, tol)


def _verify_and_report(m, tol):
    """Modulus law (exact on exact surfaces, within tol on float ones),
    corner partition, Euler count; exit 1 on failure."""
    failures = []
    if m.lam is not None:
        for direction in ("horizontal", "vertical"):
            for lay in _off_modulus(m, direction, tol):
                failures.append(f"cylinder {direction}@{lay.vertex} has modulus "
                                f"{float(lay.transverse) / float(lay.length):.6g} != 1/lambda")
    quarters = sum(c.k for c in m.corner_cycles)
    if quarters != 4 * len(m.edges):
        failures.append(f"corner partition broken: {quarters} != {4 * len(m.edges)}")
    census = sorted(c.k for c in m.corner_cycles)
    click.echo(f"rectangles {len(m.edges)}; cone census (quarter turns) {census}",
               err=True)
    if not m.frontier:
        chi = euler_characteristic(m)
        # Gauss-Bonnet: the excess sum(k/2 - 2) is -2 chi, doubled to stay in integers
        excess2 = quarters - 4 * len(m.corner_cycles)
        click.echo(f"chi {chi}; translation {is_translation(m)}", err=True)
        if excess2 != -4 * chi:
            failures.append(f"angle excess {Fraction(excess2, 2)} != -2*chi {-2 * chi}")
    for f in failures:
        click.echo(f"FAIL {f}", err=True)
    if failures:
        sys.exit(1)
    click.echo("verification pass", err=True)


@main.command()
@click.argument("surface_file", type=click.Path(exists=True))
@click.option("--tol", type=_TOL, default=DEFAULT_TOL, show_default=True)
@click.option("--m", "weight", type=int, default=None,
              help="also check the curve-recipe contract at this weight")
def verify(surface_file, tol, weight):
    """Check the invariants of a surface file."""
    m = formats.parse_surface(_read(surface_file))
    if weight is not None:
        if not any(c.marked for c in m.corner_cycles):
            _fail("no marked face for the weight check")
        rep = verify_recipe(m, weight)
        for f in rep.failures:
            click.echo(f"FAIL {f}", err=True)
        click.echo(f"recipe census {rep.face_census}, valence {rep.valence}", err=True)
        if not rep.passes:
            sys.exit(1)
    _verify_and_report(m, tol)


@main.command()
@click.option("--word", required=True, help="string over a A b B")
@click.option("--lambda", "lam", required=True)
@click.option("--exact/--float", "exact", default=True)
@click.option("--depth", type=click.IntRange(min=1), default=40, show_default=True)
def classify(word, lam, exact, depth):
    """Matrix, trace, class, and integer form of a multitwist word."""
    w = mobius.TwistWord.make(word)
    lam_v = _parse_lambda(lam, exact)
    if not exact:
        lam_v = float(lam_v)
    m = mobius.rho(w, lam_v)
    a, b, c, d = m.entries()
    cls = mobius.classify(m)
    eig = mobius.eigendirections(m)  # before any output: it may need floats
    click.echo(f"word {word or '(empty)'}  lambda {lam}")
    click.echo(f"matrix [[{formats.format_number(a)}, {formats.format_number(b)}], "
               f"[{formats.format_number(c)}, {formats.format_number(d)}]]")
    click.echo(f"trace {formats.format_number(m.trace())}  class {cls}")
    if lam_v >= 2 and not isinstance(lam_v, float):
        try:
            rep = mobius.brenner_check(m, lam_v)
        except ValueError as exc:  # an irrational lambda
            click.echo(f"integer form: not checked ({exc})")
        else:
            if rep.in_form:
                extra = "vacuous" if rep.vacuous else ("ok" if rep.interval_ok else "VIOLATED")
                click.echo(f"integer form ks={rep.ks} interval {extra}")
            else:
                click.echo("integer form: not matched")
    if eig is mobius.ALL_DIRECTIONS:
        click.echo("eigendirections: all (identity)")
    else:
        for e in eig:
            click.echo(f"eigendirection {formats.format_number(e.x)}:"
                       f"{formats.format_number(e.y)}")
        if eig and lam_v >= 2:
            verdict = mobius.renormalizable(eig[0], lam_v, depth)
            click.echo(f"leading eigendirection renormalizable: {verdict.verdict} "
                       f"({verdict.reason})")


@main.command(name="flow")
@click.argument("surface_file", type=click.Path(exists=True))
@click.option("--start", required=True, help="EDGE:X:Y chart coordinates")
@click.option("--dir", "direction", required=True, help="DX:DY")
@click.option("--length", default=100.0, show_default=True)
@click.option("--tol", type=_TOL, default=_CORNER_TOL,
              show_default=True, help="corner hit tolerance")
@click.option("--exact/--float", "exact", default=False)
@click.option("--window", type=click.IntRange(min=0), default=0,
              help="coverage window: the K central rectangles")
@click.option("-o", "--out", default="-")
def flow_cmd(surface_file, start, direction, length, tol, exact, window, out):
    """Trace the straight-line flow and dump the trajectory."""
    m = formats.parse_surface(_read(surface_file))
    p0 = _parse_start(start, exact)
    d = _parse_direction(direction, exact)
    traj = flow(m, p0, d, length, corner_tol=tol)
    _write_out(out, formats.write_trajectory(traj))
    edges = sorted(m.edges, key=lambda x: (abs(x), x))
    win = set(edges[:window]) if window else set(m.edges)
    stats = coverage_stats(traj, win)
    click.echo(f"terminal {traj.terminal} {traj.terminal_detail or ''}; "
               f"length {float(traj.total_length):.6g}; segments {len(traj.segments)}", err=True)
    click.echo(f"coverage {stats.coverage_fraction:.3f} of {len(win)} rectangles; "
               f"visits to start {stats.visits_to_start}; "
               f"min corner distance {stats.min_corner_distance:.3e}", err=True)


@main.command()
@click.argument("tree_file", type=click.Path(exists=True), required=False)
@click.option("--family", type=click.Choice(["loch-ness", "ladder"]), default=None)
@click.option("--depth", default=1, show_default=True)
@click.option("--genus", default=None, type=int, help="finite-type genus")
@click.option("--punctures", default=None, type=int, help="finite-type punctures")
@click.option("--m", "weight", default=1, show_default=True)
@click.option("-o", "--out", default="-")
def multicurve(tree_file, family, depth, genus, punctures, weight, out):
    """Generate a filling multicurve pair from a tree normal form."""
    if tree_file:
        source = formats.parse_tree(_read(tree_file))
    elif family == "loch-ness":
        source = loch_ness_tree(depth)
    elif family == "ladder":
        source = ladder_tree(depth)
    elif genus is not None and punctures is not None:
        source = (genus, punctures)
    else:
        raise click.UsageError("need a tree file, --family, or --genus/--punctures")
    result = build_multicurves(source, weight)
    _write_out(out, formats.write_surface(result.complex))
    marked = next(c.index for c in result.complex.corner_cycles if c.marked)
    click.echo(f"faces {result.report.face_census}; valence {result.report.valence}; "
               f"marked face {marked} ({2 * weight} sides); "
               f"genus {result.genus}", err=True)


@main.command(name="svg")
@click.argument("surface_file", type=click.Path(exists=True))
@click.option("--traj", "traj_files", multiple=True, type=click.Path(exists=True))
@click.option("--start", default=None, help="EDGE:X:Y to flow before rendering")
@click.option("--dir", "direction", default=None, help="DX:DY for --start")
@click.option("--length", default=50.0, show_default=True)
@click.option("--shade-coverage/--no-shade-coverage", default=False)
@click.option("-o", "--out", default="-")
def svg_cmd(surface_file, traj_files, start, direction, length, shade_coverage, out):
    """Draw the surface (rows of horizontal cylinders) with flow overlays."""
    if (start is None) != (direction is None):
        raise click.UsageError("--start and --dir go together")
    m = formats.parse_surface(_read(surface_file))
    trajs = [_read_dump(tf, m) for tf in traj_files]
    if start is not None:
        p0 = _parse_start(start, False)
        trajs.append(flow(m, p0, _parse_direction(direction, False), length))
    shade = set()
    if shade_coverage:
        for t in trajs:
            shade |= {edge for edge, *_ in t.segments}
    _write_out(out, svgmod.surface_svg(m, trajectories=trajs, shade=shade))


def _read_dump(path: str, m):
    """The trajectory dump in path, to be drawn on m: a seg record naming a
    rectangle m lacks is refused by its line."""
    text = _read(path)
    dump = formats.parse_trajectory(text)
    if not m.width.keys() >= {seg[0] for seg in dump.segments}:
        records, _ = formats._records(text, formats._TRAJECTORY)
        line, e = next((line, e) for line, (_, e, *_) in records["seg"] if int(e) not in m.width)
        raise formats.FormatError(f"seg names edge {int(e)} that is not in the surface", line)
    return dump


if __name__ == "__main__":
    main()
