"""Line-oriented text formats for graphs, harmonic data, surfaces, flows.

Every emitter is deterministic (sorted iteration, canonical number
formatting).  Each file kind declares its records once, in a table read
by one walk (_records), and every parser error names a line.  Numbers
round-trip exactly: rationals as p/q, quadratic values as a+brd (so
3/2+1/2r5 is (3 + sqrt(5))/2), floats via repr.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .graphs import BipartiteConfigGraph, GraphError, HarmonicAssignment, _trusted
from .quadfield import QuadExt
from .recipe import EndTreeSpec, TreeError, ladder_tree, loch_ness_tree
from .surfaces import RectangleComplex, RibbonData, RibbonError, build_surface, mark_faces


class FormatError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def format_number(x) -> str:
    if type(x) is float:
        return repr(x)
    if isinstance(x, QuadExt):
        if x.b == 0:
            return str(x.a)
        sign = "+" if x.b > 0 else "-"
        return f"{x.a}{sign}{abs(x.b)}r{x.d}"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def _is_ratio(s: str) -> bool:
    """s is digits, or digits/digits (decimal digits of any script)."""
    num, slash, den = s.partition("/")
    return num.isdecimal() and (not slash or den.isdecimal())


def _quad_parts(tok: str):
    """(a, sign, b, d) of a token a+brd or a-brd, where a is an optionally
    signed ratio, b a ratio and d digits; None for any other token.  d may
    end in one newline, which `int` ignores."""
    head, r, d = tok.partition("r")
    cut = max(head.rfind("+"), head.rfind("-"))
    a, b = head[:cut], head[cut + 1:]
    if (r and cut > 0 and d.removesuffix("\n").isdecimal() and _is_ratio(b)
            and _is_ratio(a[1:] if a[:1] in ("+", "-") else a)):
        return a, head[cut], b, d
    return None


def parse_number(tok: str, line: int = 0):
    """An integer or p/q token (an optional sign, then digits) as a
    Fraction, a+brd or a-brd as a QuadExt (a, b integers or ratios, d
    digits), anything else as a float; a token none of these read, or one
    with a zero denominator, is a FormatError.  Both exact forms are
    checked here before Fraction reads them, so what they accept does not
    change with the Python version.  They are built from digits, signs, /
    and r alone, so a token holding . or e can only be a float."""
    try:
        if "." in tok or "e" in tok:
            return float(tok)
        if "r" in tok:
            parts = _quad_parts(tok)
            if parts is not None:
                a, sign, b, d = parts
                b = Fraction(b)
                return QuadExt(Fraction(a), -b if sign == "-" else b, int(d))
        if _is_ratio(tok[1:] if tok[:1] in ("+", "-") else tok):
            return Fraction(tok)
        return float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad number {tok!r}", line) from exc


# Each file kind's records, tag -> (the reader that takes them, fields):
# fields is the usage text, one <field> per token, and a last token `...`
# when more fields may follow.  A tag in _ONCE may appear once in a file.
_ONCE = {"bipartite", "lambda", "marked", "end", "family"}


def _records(text: str, table: dict) -> tuple:
    """One walk over a file: (reader -> its records in file order, the
    line after the last record, where a missing record is reported).  A
    record is (line number, tokens), comments dropped; its tag and field
    count are checked against table.  The tokens are a tuple of strings,
    which the garbage collector stops tracking at its next pass, so a long
    file does not add to the collections the rest of the program pays for."""
    out = {reader: [] for reader, _ in table.values()}
    # tag -> (its reader's append, token count with the tag, more, once)
    rows = {tag: (out[reader].append, fields.count("<") + 1, fields.endswith("..."),
                  tag in _ONCE) for tag, (reader, fields) in table.items()}
    seen = set()  # once tags read so far
    end = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = tuple((raw.partition("#")[0] if "#" in raw else raw).split())
        if not toks:
            continue
        tag = toks[0]
        row = rows.get(tag)
        if row is None:
            raise FormatError(f"unknown record {tag!r}", lineno)
        add, count, more, once = row
        if len(toks) != count and not (more and len(toks) > count):
            raise FormatError(f"{tag} needs {table[tag][1]}", lineno)
        if once:
            if tag in seen:
                raise FormatError(f"more than one {tag} record", lineno)
            seen.add(tag)
        add((lineno, toks))
        end = lineno + 1
    return out, end


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise FormatError(f"bad integer {tok!r}", line) from exc


# Graph, harmonic and surface files share one table, so a graph or
# harmonic reader takes a surface file's text and skips the other records.
_SURFACE = {
    "bipartite": ("graph", "<I> <J> <edges> <bound>"), "edge": ("graph", "<id> <i> <j>"),
    "lambda": ("harmonic", "<value>"), "h": ("harmonic", "<vertex> <value>"),
    **dict.fromkeys(("sigma_h", "sigma_v", "sigma_h*", "sigma_v*"), ("ribbon", "<edge> ...")),
    "flip": ("ribbon", "<edge> <E|N>"), "puncture": ("ribbon", "<cycle>"),
    "marked": ("ribbon", "<cycle>"),
}


# -- graphs -----------------------------------------------------------------

def write_graph(g: BipartiteConfigGraph) -> str:
    lines = [f"bipartite {len(g.part_i)} {len(g.part_j)} {len(g.edges)} {g.valence_bound}"]
    for e, i, j in g.edges:
        lines.append(f"edge {e} {i} {j}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> BipartiteConfigGraph:
    records, end = _records(text, _SURFACE)
    return _read_graph(records["graph"], end)[0]


def _read_graph(records, end: int) -> tuple:
    """The graph of the bipartite and edge records, and the line of each
    edge record.  Each error names a line: that of the edge a GraphError
    names, else the header's, or end for a missing header."""
    header = None
    edges = {}
    where = {}  # edge id -> line
    for lineno, toks in records:
        if toks[0] == "bipartite":
            header = tuple(_int(t, lineno) for t in toks[1:]) + (lineno,)
        else:
            _, e, i, j = toks
            try:
                e, i, j = int(e), int(i), int(j)
            except ValueError:  # the walk over the tokens that names the fault
                e, i, j = (_int(t, lineno) for t in toks[1:])
            if e in edges:
                raise FormatError(f"duplicate edge id {e}", lineno)
            edges[e] = (i, j)
            where[e] = lineno
    if header is None:
        raise FormatError("missing bipartite header", end)
    ni, nj, ne, bound, head = header
    part_i = {i for i, _ in edges.values()}
    part_j = {j for _, j in edges.values()}
    if (len(part_i), len(part_j), len(edges)) != (ni, nj, ne):
        raise FormatError(f"header {header[:3]} does not match edge records "
                          f"({len(part_i)}, {len(part_j)}, {len(edges)})", head)
    try:
        return BipartiteConfigGraph.make(part_i, part_j, edges, bound), where
    except GraphError as exc:
        raise FormatError(str(exc), where.get(exc.edge, head)) from exc


# -- harmonic assignments ---------------------------------------------------

def write_harmonic(h: HarmonicAssignment) -> str:
    lines = [f"lambda {format_number(h.lam)}"]
    for v in sorted(h.values):
        lines.append(f"h {v} {format_number(h.values[v])}")
    return "\n".join(lines) + "\n"


def parse_harmonic(text: str) -> HarmonicAssignment:
    records, end = _records(text, _SURFACE)
    return _read_harmonic(records["harmonic"], end)


def _read_harmonic(records, end: int) -> HarmonicAssignment:
    lam = None
    values = {}
    for lineno, toks in records:
        if toks[0] == "lambda":
            lam = parse_number(toks[1], lineno)
            if isinstance(lam, float) and not math.isfinite(lam):
                raise FormatError(f"lambda {toks[1]} is not finite", lineno)
        else:
            v = _int(toks[1], lineno)
            if v in values:
                raise FormatError(f"duplicate h record for vertex {v}", lineno)
            value = parse_number(toks[2], lineno)
            if not value > 0:  # NaN included
                raise FormatError(f"h value {toks[2]} at vertex {v} must be positive", lineno)
            if value == math.inf:
                raise FormatError(f"h value {toks[2]} at vertex {v} is not finite", lineno)
            values[v] = value
    if lam is None:
        raise FormatError("missing lambda record", end)
    if not values:
        raise FormatError("no h records", end)
    return _trusted(lam, values)


# -- surfaces ---------------------------------------------------------------

def write_surface(m: RectangleComplex) -> str:
    lines = [write_graph(m.graph).rstrip("\n")]
    if m.harmonic is not None:
        lines.append(write_harmonic(m.harmonic).rstrip("\n"))
    # one record per cylinder, open chains (`tag* e1 e2 ...`) before cycles
    # (`tag e1 e2 ...`), each family in order of first edge
    for tag, layouts in (("sigma_h", m.h_layouts), ("sigma_v", m.v_layouts)):
        for lay in sorted(layouts.values(), key=lambda c: (c.closed, c.edges[0])):
            lines.append(f"{tag}{'' if lay.closed else '*'} " + " ".join(map(str, lay.edges)))
    for e, side in sorted(m.ribbon.flips):
        lines.append(f"flip {e} {side}")
    for c in m.corner_cycles:
        if c.puncture:
            lines.append(f"puncture {c.index}")
        if c.marked:
            lines.append(f"marked {c.index}")
    return "\n".join(lines) + "\n"


def parse_surface(text: str) -> RectangleComplex:
    return _parse_surface(text)


def _parse_surface(text: str, harmonic_of=None) -> RectangleComplex:
    """parse_surface, built with harmonic_of(graph, the file's harmonic data
    or None) when that is given; the file's h records are checked either way."""
    # the text is walked once; its records are dropped before the build
    records, end = _records(text, _SURFACE)
    graph, harmonic, sigma, flips, named, faces = _read_surface(records, end)
    del records
    if harmonic is not None:  # a vertex without an h record: the first edge record naming it
        v = next((v for v in graph.vertices() if v not in harmonic.values), None)
        if v is not None:
            emap = graph.edge_map()
            raise FormatError(f"no value for vertex {v}",
                              min(line for e, line in named["edge"].items() if v in emap[e]))
    if harmonic_of is not None:
        harmonic = harmonic_of(graph, harmonic)
    try:
        m = build_surface(graph, RibbonData.make(sigma["sigma_h"], sigma["sigma_v"], flips),
                          harmonic=harmonic)
    except RibbonError as exc:
        # the sigma record that names the edge at fault, else its edge record
        line = named.get(exc.record, {}).get(exc.edge) or named["edge"].get(exc.edge, end)
        raise FormatError(str(exc), line) from exc
    flagged = {"puncture": [], "marked": []}
    for tag, idx, line in faces:
        if not 0 <= idx < len(m.corner_cycles):
            raise FormatError(f"{tag} cycle {idx} out of range", line)
        flagged[tag].append(idx)
    return mark_faces(m, flagged["puncture"], *flagged["marked"])


def _read_surface(records, end: int) -> tuple:
    """A surface file's records, read by the graph, harmonic and ribbon
    readers in turn: (graph, harmonic data or None without lambda and h
    records, the sigma_h and sigma_v successor maps, the flips (keys of a
    dict), the line of the record naming each edge in each map and in the
    graph, face marks as (tag, cycle index, line))."""
    graph, where = _read_graph(records["graph"], end)  # where has one key per graph edge
    harmonic = _read_harmonic(records["harmonic"], end) if records["harmonic"] else None

    def edge(tok, tag, line):
        e = _int(tok, line)
        if e not in where:
            raise FormatError(f"{tag} names edge {e} that is not in the graph", line)
        return e

    sigma = {"sigma_h": {}, "sigma_v": {}}
    # edge, or (edge, side) for a flip -> line of the record naming it
    named = {"sigma_h": {}, "sigma_v": {}, "flip": {}, "edge": where}
    flips = named["flip"]
    faces = []  # (tag, cycle index, line)
    for lineno, toks in records["ribbon"]:
        tag = toks[0]
        if tag == "flip":
            if toks[2] not in ("E", "N"):
                raise FormatError("flip needs <edge> <E|N>", lineno)
            flip = (edge(toks[1], tag, lineno), toks[2])
            if flip in flips:
                raise FormatError(f"flip {flip[0]} {flip[1]} named twice", lineno)
            flips[flip] = lineno
        elif tag.startswith("sigma"):
            name = tag.rstrip("*")
            lines, target = named[name], sigma[name]
            try:
                seq = [*map(int, toks[1:])]
            except ValueError:
                seq = None
            if seq is None or not all(map(where.__contains__, seq)):
                seq = [edge(t, name, lineno) for t in toks[1:]]  # names the token at fault
            # each edge's arrow to the next; a cycle's last edge goes to its first
            prev = None if tag.endswith("*") else seq[-1]
            for e in seq:
                if e in lines:
                    raise FormatError(f"{name} names edge {e} twice", lineno)
                lines[e] = lineno
                if prev is not None:
                    target[prev] = e
                prev = e
        else:
            faces.append((tag, _int(toks[1], lineno), lineno))
    return graph, harmonic, sigma, flips, named, faces


# -- trajectories -----------------------------------------------------------

class TrajectoryDump(NamedTuple):
    """File-level view of a trajectory: segments plus the terminal event."""

    segments: tuple  # (edge, x_in, y_in, x_out, y_out, length)
    terminal: str
    detail: tuple


def dump_of(traj) -> TrajectoryDump:
    segs = tuple((s.edge, s.x_in, s.y_in, s.x_out, s.y_out, s.length)
                 for s in traj.segments)
    detail = traj.terminal_detail
    if detail is None:
        detail = ()
    elif isinstance(detail, tuple):
        detail = tuple(str(x) for x in detail)
    else:
        detail = (str(detail),)
    return TrajectoryDump(segments=segs, terminal=traj.terminal, detail=detail)


def write_trajectory(traj_or_dump) -> str:
    dump = traj_or_dump if isinstance(traj_or_dump, TrajectoryDump) else dump_of(traj_or_dump)
    f = format_number
    lines = [f"seg {e} {f(xi)} {f(yi)} {f(xo)} {f(yo)} {f(ln)}"
             for e, xi, yi, xo, yo, ln in dump.segments]
    lines.append(" ".join(("end", dump.terminal) + dump.detail))
    return "\n".join(lines) + "\n"


_TRAJECTORY = {"seg": ("seg", "<edge> <x_in> <y_in> <x_out> <y_out> <length>"),
               "end": ("end", "<terminal> ...")}


def parse_trajectory(text: str) -> TrajectoryDump:
    """A trajectory dump; a seg value must be finite."""
    records, end = _records(text, _TRAJECTORY)
    num, finite = parse_number, math.isfinite
    segs = []
    for lineno, (_, e, t1, t2, t3, t4, t5) in records["seg"]:
        e = _int(e, lineno)
        x1, y1, x2, y2, ln = vals = (num(t1, lineno), num(t2, lineno), num(t3, lineno),
                                     num(t4, lineno), num(t5, lineno))
        # only a float can be infinite or NaN
        if (type(x1) is float and not finite(x1) or type(y1) is float and not finite(y1)
                or type(x2) is float and not finite(x2) or type(y2) is float and not finite(y2)
                or type(ln) is float and not finite(ln)):
            tok = next(t for t, v in zip((t1, t2, t3, t4, t5), vals)
                       if type(v) is float and not finite(v))
            raise FormatError(f"seg value {tok} is not finite", lineno)
        segs.append((e, x1, y1, x2, y2, ln))
    if not records["end"]:
        raise FormatError("missing end record", end)
    (_, (_, terminal, *detail)), = records["end"]
    return TrajectoryDump(segments=tuple(segs), terminal=terminal, detail=tuple(detail))


# -- trees ------------------------------------------------------------------

# A str vertex id is written in double quotes, so "" and "0" keep their
# type; a bare token reads as an int when it is -?\d+ and as a str
# otherwise, as files written before ids were quoted expect.  A quoted id
# cannot hold a quote, a # or whitespace, which the line reader would cut.
_QUOTED_ID = re.compile(r'"([^"#\s]*)"')


def _id_token(v) -> str:
    if isinstance(v, str):
        tok = f'"{v}"'
        if not _QUOTED_ID.fullmatch(tok):
            raise ValueError(f"vertex id {v!r} holds a quote, a # or whitespace")
        return tok
    if isinstance(v, int):
        return str(v)
    raise ValueError(f"vertex id {v!r} is neither an int nor a str")


def _vertex_id(tok: str, line: int):
    quoted = _QUOTED_ID.fullmatch(tok)
    if quoted:
        return quoted.group(1)
    if '"' in tok:
        raise FormatError(f"malformed quoted vertex id {tok!r}", line)
    return int(tok) if re.fullmatch(r"-?\d+", tok) else tok


def write_tree(spec) -> str:
    if spec.family in ("loch-ness", "ladder"):
        return f"family {spec.family} {len(spec.genus_marks)}\n"
    lines = [f"vertex {_id_token(spec.root)} root"]
    for c, p in spec.parents:
        lines.append(f"vertex {_id_token(c)} {_id_token(p)}")
    for tag, ids in (("puncture", spec.punctures), ("genus-mark", spec.genus_marks),
                     ("frontier", spec.frontier)):
        lines += [f"{tag} {_id_token(v)}" for v in sorted(ids, key=repr)]
    return "\n".join(lines) + "\n"


_TREE = {"family": ("family", "<tag> <depth>"), "vertex": ("vertex", "<id> <parent|root>"),
         **dict.fromkeys(("puncture", "genus-mark", "frontier"), ("mark", "<vertex>"))}


def parse_tree(text: str):
    """A tree file: one family record, or an explicit tree of vertex and
    mark records.  Each error names a line: that of the record of the
    vertex or mark at fault, or the line after the last record for a
    missing root."""
    records, end = _records(text, _TREE)
    if records["family"]:
        (lineno, (_, tag, depth)), = records["family"]
        others = records["vertex"] + records["mark"]
        if others:  # the family record or the first other, whichever comes later
            raise FormatError("a family record must be the only record",
                              max(lineno, min(line for line, _ in others)))
        depth = _int(depth, lineno)
        make = {"loch-ness": loch_ness_tree, "ladder": ladder_tree}.get(tag)
        if make is None:
            raise FormatError(f"unknown family {tag!r}", lineno)
        try:
            return make(depth)
        except ValueError as exc:  # a depth the family does not have
            raise FormatError(str(exc), lineno) from exc
    root = None
    parents = {}
    where = {"vertex": {}, "puncture": {}, "genus-mark": {}, "frontier": {}}  # tag -> vertex -> line
    for lineno, (tag, tok, *parent) in records["vertex"] + records["mark"]:
        v = _vertex_id(tok, lineno)
        if v in where[tag]:
            raise FormatError(f"{tag} {tok} named twice", lineno)
        where[tag][v] = lineno
        if parent == ["root"]:
            if root is not None:
                raise FormatError("more than one root vertex", lineno)
            root = v
        elif parent:
            parents[v] = _vertex_id(parent[0], lineno)
    if root is None:
        raise FormatError("missing root vertex", end)
    try:
        return EndTreeSpec.make(root, parents, punctures=where["puncture"],
                                genus_marks=where["genus-mark"], frontier=where["frontier"])
    except TreeError as exc:
        raise FormatError(str(exc), where[exc.record].get(exc.vertex, end)) from exc

