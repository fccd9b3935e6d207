"""File formats: round trips, exact-value serialization, error reporting."""

import hashlib
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from multitwist import formats
from multitwist.cli import main
from multitwist.flow import SurfacePoint, flow
from multitwist.graphs import (BipartiteConfigGraph, HarmonicAssignment, LadderFamily,
                               harmonic_closed_form, perron_pair)
from multitwist.quadfield import QuadExt
from multitwist.recipe import EndTreeSpec, build_multicurves, ladder_tree, loch_ness_tree
from multitwist.surfaces import RibbonData, build_surface, mark_faces, square_torus, staircase_complex
from multitwist.svg import surface_svg
from test_recipe import _TREE_GRID
from test_surfaces import _build, square_tiled


class TestNumbers:
    @pytest.mark.parametrize("x", [
        Fraction(3, 7), Fraction(-12, 5), 0, 17,
        QuadExt(Fraction(3, 2), Fraction(1, 2), 5),
        QuadExt(Fraction(-1, 3), Fraction(-2, 7), 13),
        1.5, -0.333, 2.718281828459045, 1e-17,
    ])
    def test_round_trip(self, x):
        tok = formats.format_number(x)
        back = formats.parse_number(tok)
        if isinstance(x, float):
            assert back == x
        else:
            assert back == (Fraction(x) if isinstance(x, int) else x)

    def test_bad_number_reports_line(self):
        with pytest.raises(formats.FormatError):
            formats.parse_number("3r", line=7)

    @pytest.mark.parametrize("tok, want", [
        ("17", Fraction(17)), ("+3", Fraction(3)), ("-0", Fraction(0)), ("-12/5", Fraction(-12, 5)),
        ("1+1r5", QuadExt(1, 1, 5)), ("-1/3-2/7r13", QuadExt(Fraction(-1, 3), Fraction(-2, 7), 13)),
        ("1+2r4", QuadExt(5)), ("1e5", 1e5), ("inf", float("inf")), ("1_0", 10.0), ("5.", 5.0),
    ])
    def test_number_forms(self, tok, want):
        got = formats.parse_number(tok)
        assert type(got) is type(want) and got == want

    @pytest.mark.parametrize("tok", ["", "+", "++1", "1/", "/2", "1 /2", "0x10", "1+r5", "1r5",
                                     "+1r5", "1+1r", "1+1r5r", "1+1R5", "1.5+1r5", "1+1r-5",
                                     "1+-1r5", "1+1/2/3r5", "3/0", "1+1/0r5",
                                     # Fraction reads these on some Pythons only
                                     "1_000/3", "1/ 2", "1 / 2"])
    def test_rejected_tokens_name_their_line(self, tok):
        with pytest.raises(formats.FormatError) as err:
            formats.parse_number(tok, line=7)
        assert str(err.value) == f"line 7: bad number {tok!r}" and err.value.line == 7


def _reference_parse_number(tok: str, line: int = 0):
    """parse_number as it read tokens before its float shortcut: the exact
    forms are tried first, float() reads the rest."""
    def is_ratio(s):
        num, slash, den = s.partition("/")
        return num.isdecimal() and (not slash or den.isdecimal())

    try:
        if "r" in tok:
            head, _, d = tok.partition("r")
            cut = max(head.rfind("+"), head.rfind("-"))
            a, b = head[:cut], head[cut + 1:]
            if (cut > 0 and d.removesuffix("\n").isdecimal() and is_ratio(b)
                    and is_ratio(a[1:] if a[:1] in ("+", "-") else a)):
                b = Fraction(b)
                return QuadExt(Fraction(a), -b if head[cut] == "-" else b, int(d))
        if is_ratio(tok[1:] if tok[:1] in ("+", "-") else tok):
            return Fraction(tok)
        return float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise formats.FormatError(f"bad number {tok!r}", line) from exc


def _outcome(parse, tok):
    """(kind, value) of parse(tok, 7): a float as its repr, so that the sign
    of zero and NaN compare; an error as its text."""
    try:
        x = parse(tok, 7)
    except formats.FormatError as err:
        return "error", str(err)
    return type(x).__name__, repr(x) if isinstance(x, float) else x


# float reprs, their other spellings, and tokens mixing the characters the
# exact forms are built from with those of floats
NUMBER_TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "+NaN", "inf", "-inf", "+Infinity", "-iNfInItY", "1e308",
                     "1e309", "-1e309", "5e-324", "-0.0", "+0.0", "0e0", "1E5", "2.2250738585072014e-308"]),
    st.text(alphabet="0123456789.er/+-_", max_size=12))


class TestNumberShortcut:
    @settings(max_examples=500)
    @given(NUMBER_TOKENS)
    def test_parse_number_reads_as_before(self, tok):
        assert _outcome(formats.parse_number, tok) == _outcome(_reference_parse_number, tok)

    @given(st.floats())
    def test_format_number_of_a_float_is_its_repr(self, x):
        assert formats.format_number(x) == repr(x)


class TestGraphFormat:
    def test_round_trip(self):
        g = BipartiteConfigGraph.make([0, 2], [1, 3],
                                      {0: (0, 1), 1: (2, 1), 2: (2, 3), 3: (0, 3)}, 2)
        assert formats.parse_graph(formats.write_graph(g)) == g

    def test_malformed_edge_line_number(self):
        text = "bipartite 1 1 1 2\nedge 0 zero 1\n"
        with pytest.raises(formats.FormatError, match="line 2"):
            formats.parse_graph(text)

    def test_header_mismatch(self):
        text = "bipartite 2 1 1 2\nedge 0 0 1\n"
        with pytest.raises(formats.FormatError, match="does not match"):
            formats.parse_graph(text)


class TestHarmonicFormat:
    def test_exact_round_trip(self):
        h = harmonic_closed_form(LadderFamily(-3, 3), 3)
        back = formats.parse_harmonic(formats.write_harmonic(h))
        assert back.lam == h.lam
        assert back.values == dict(h.values)

    def test_float_round_trip(self):
        h = HarmonicAssignment(lam=2 ** 0.5, values={0: 1.0, 1: 2 ** -0.5})
        back = formats.parse_harmonic(formats.write_harmonic(h))
        assert back.lam == h.lam and back.values == h.values

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "1-1r2"])
    def test_non_positive_value_names_its_line(self, value):
        with pytest.raises(formats.FormatError) as err:
            formats.parse_harmonic(f"lambda 2\nh 0 1\nh 1 {value}\n")
        assert err.value.line == 3 and "must be positive" in str(err.value)


class TestSurfaceFormat:
    @pytest.mark.parametrize("make", [
        square_torus,
        lambda: staircase_complex(-3, 4, 2),
        lambda: staircase_complex(-2, 3, 3),            # exact quadratic dims
        lambda: staircase_complex(-2, 3, 3, exact=False),
    ])
    def test_round_trip(self, make):
        m = make()
        text = formats.write_surface(m)
        back = formats.parse_surface(text)
        assert back.width == m.width and back.height == m.height
        assert back.gluings == m.gluings
        assert back.frontier == m.frontier
        assert formats.write_surface(back) == text  # byte-stable

    def test_marks_round_trip(self):
        g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
        rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=[(0, "N"), (1, "N")])
        # cycle 3 holds quarter (0, SW), cycle 0 quarter (0, NE)
        m = mark_faces(build_surface(g, rib, HarmonicAssignment(lam=2, values={0: 1, 1: 1})),
                       [3], 0)
        back = formats.parse_surface(formats.write_surface(m))
        assert [c.puncture for c in back.corner_cycles] == [c.puncture for c in m.corner_cycles]
        assert [c.marked for c in back.corner_cycles] == [c.marked for c in m.corner_cycles]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), partial=st.booleans())
    def test_square_tiled_round_trip(self, data, partial):
        """parse_surface inverts write_surface on square-tiled complexes,
        closed or window-truncated, with a drawn set of faces punctured and
        at most one marked."""
        m = _build(data.draw(square_tiled(partial)))
        faces = range(len(m.corner_cycles))
        punctured = data.draw(st.sets(st.sampled_from(faces)))
        marked = data.draw(st.sampled_from([None, *faces]))
        m = mark_faces(m, sorted(punctured), marked)
        assert formats.parse_surface(formats.write_surface(m)) == m

    @pytest.mark.parametrize("source, m", [
        ((1, 2), 3),
        (loch_ness_tree(2), 2),
        (ladder_tree(3), 2),
    ], ids=["finite", "loch-ness", "ladder"])
    def test_multicurve_output_round_trips(self, source, m):
        out = build_multicurves(source, m)
        text = formats.write_surface(out.complex)
        back = formats.parse_surface(text)
        assert formats.write_surface(back) == text

    def test_flip_lines(self):
        m = staircase_complex(-2, 3, 2)
        text = formats.write_surface(m)
        assert "sigma_h" in text and "sigma_v" in text
        assert "sigma_h*" in text  # window-truncated cylinders

    def test_parse_error_names_line(self):
        text = "bipartite 1 1 1 2\nedge 0 0 1\nflip 0 Q\n"
        with pytest.raises(formats.FormatError, match="line 3"):
            formats.parse_surface(text)

    @pytest.mark.parametrize("old, new, message", [
        ("sigma_h -3 -2\n", "sigma_h 99 -3 -2\n", "sigma_h names edge 99 "),
        ("sigma_v 0 1\n", "sigma_v 0 1 99\n", "sigma_v names edge 99 "),
        ("sigma_v 2 3\n", "sigma_v 2 3\nflip 99 N\n", "flip names edge 99 "),
        ("sigma_v -4 -3\n", "sigma_v 0 1 0\n", "sigma_v names edge 0 twice"),
        ("sigma_v 2 3\n", "sigma_v 2 3\nflip 2 N\nflip 2 N\n", "flip 2 N named twice"),
        # edges -4 and 4 make up the open paths sigma_h* -4 and sigma_v* 4
        ("sigma_v 2 3\n", "sigma_v 2 3\nflip -4 E\n", "flip -4 E names no arrow"),
        ("sigma_v 2 3\n", "sigma_v 2 3\nflip 2 N\nflip 3 N\nflip 4 N\n",
         "flip 4 N names no arrow"),
    ], ids=["sigma_h", "sigma_v", "flip", "repeated-sigma_v", "repeated-flip",
            "flip-without-arrow-E", "flip-without-arrow-N"])
    def test_unknown_edge_in_ribbon(self, old, new, message):
        text = formats.write_surface(staircase_complex(-4, 5, 2))
        assert old in text
        with pytest.raises(formats.FormatError, match=message) as err:
            formats.parse_surface(text.replace(old, new))
        # the record at fault is the last line of new
        line = text.splitlines().index(old.strip()) + len(new.splitlines())
        assert err.value.line == line

    @pytest.mark.parametrize("old, new, message, record", [
        ("sigma_v 2 3\n", "sigma_v 2 3\nflip 2 N\n", "odd number of flips", "sigma_v 2 3"),
        ("sigma_v -4 -3\nsigma_v -2 -1\n", "sigma_v -4 -3 -2 -1\n", "mixes fibers",
         "sigma_v -4 -3 -2 -1"),
        ("sigma_v 0 1\n", "sigma_v 0\nsigma_v 1\n", "split across several", "sigma_v 1"),
    ], ids=["odd-flips", "mixed-fibers", "split-fiber"])
    def test_ribbon_error_names_sigma_record(self, old, new, message, record):
        text = formats.write_surface(staircase_complex(-4, 5, 2))
        assert old in text
        bad = text.replace(old, new)
        with pytest.raises(formats.FormatError, match=message) as err:
            formats.parse_surface(bad)
        # the line is the sigma record that names the component at fault
        assert bad.splitlines()[err.value.line - 1] == record


SURFACE = "bipartite 1 1 1 2\nedge 0 0 1\nsigma_h 0\nsigma_v 0\n"
STAIR = staircase_complex(-3, 4, 3)
STAIRCASE = formats.write_surface(STAIR)
NO_LAMBDA = "".join(ln for ln in STAIRCASE.splitlines(True) if not ln.startswith("lambda"))


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("parser, text, line", [
    ("parse_surface", SURFACE + "flip x E\n", 5),
    ("parse_surface", SURFACE + "puncture x\n", 5),
    ("parse_surface", SURFACE + "puncture\n", 5),
    ("parse_harmonic", "lambda 2\nh x 1\n", 2),
    ("parse_harmonic", "lambda\nh 0 1\n", 1),
    ("parse_harmonic", "lambda 2\nh 0 1\nh 0 5\n", 3),
    ("parse_surface", SURFACE + "puncture 9\n", 5),
    ("parse_surface", SURFACE + "marked 0\nmarked 0\n", 6),
    ("parse_graph", "bipartite a 1 1 2\nedge 0 0 1\n", 1),
    ("parse_trajectory", "seg 0 0 0 0 0 0\nend\n", 2),
    ("parse_tree", "family loch-ness x\n", 1),
    ("parse_graph", "bipartite 9 9 9 9\nbipartite 1 1 1 2\nedge 0 0 1\n", 2),
    ("parse_harmonic", "lambda 2\nlambda 3\nh 0 1\n", 2),
    ("parse_trajectory", "seg 0 0 0 1 1 1\nend budget\nend singular 0 NE\n", 3),
    ("parse_tree", "family loch-ness 3\nfamily ladder 2\n", 2),
    ("parse_tree", "vertex 0 root\nvertex 1 root\n", 2),
    ("parse_tree", "vertex 0 root\nvertex 2 0\nvertex 2 1\nvertex 1 0\nfrontier 2\n", 3),
    ("parse_tree", "family loch-ness 3\nvertex 0 root\nbogus\n", 3),
    ("parse_tree", "family ladder 2\nvertex 0 root\n", 2),
    ("parse_tree", "vertex 0 root\nvertex 1 0\nfrontier 1\nfamily loch-ness 3\n", 4),
    ("parse_surface", NO_LAMBDA, len(NO_LAMBDA.splitlines()) + 1),
    ("parse_tree", "vertex 0 root\nvertex 1 0\npuncture 1\npuncture 1\n", 4),
    ("parse_tree", "vertex 0 root\nvertex 1 0\ngenus-mark 1\nfrontier 1\ngenus-mark 1\n", 5),
    ("parse_tree", "vertex 0 root\nvertex 1 0\nfrontier 1\nfrontier 1\n", 4),
    ("parse_tree", "family loch-ness -1\n", 1),
    ("parse_tree", "family ladder 0\n", 1),
    ("parse_surface", _edit(formats.write_surface(staircase_complex(-4, 5, 3)),
                            "edge 4 4 5\n", "edge 4 4 99\n"), 10),
], ids=["flip-edge", "puncture-index", "bare-puncture", "h-vertex", "bare-lambda",
        "repeated-h", "puncture-range", "second-marked",
        "bipartite-header", "bare-end", "family-depth",
        "second-bipartite", "second-lambda", "second-end", "second-family", "second-root",
        "vertex-twice", "record-after-family", "tree-after-family", "family-after-tree",
        "h-without-lambda", "puncture-twice", "genus-mark-twice", "frontier-twice",
        "loch-ness-depth", "ladder-depth", "edge-vertex-without-value"])
def test_malformed_record_names_line(parser, text, line):
    with pytest.raises(formats.FormatError, match=f"^line {line}: "):
        getattr(formats, parser)(text)


@pytest.mark.parametrize("parser, text, line, message", [
    ("parse_surface", _edit(STAIRCASE, "h -2 ", "# h -2 "), 2, "no value for vertex -2"),
    ("parse_surface", _edit(STAIRCASE, "sigma_h -3 -2\n", ""), 3,
     "vertex -2 split across several sigma_h components"),
    ("parse_trajectory", "seg 0 0 0 1 1 1\n# cut\n", 2, "missing end record"),
    ("parse_tree", "vertex 1 0\n\n", 2, "missing root vertex"),
    ("parse_tree", "vertex 0 root\nvertex 1 0\nvertex 2 0\nvertex 3 0\nfrontier 1\n", 1,
     "root degree must be at most 2"),
    ("parse_tree", "vertex 0 root\nvertex 1 0\nvertex 2 3\nfrontier 1\n", 3,
     "vertex 2 is not connected to the root"),
    ("parse_tree", "vertex 0 root\nvertex 1 0\nvertex 2 1\npuncture 1\nfrontier 2\n", 4,
     "puncture mark 1 is not a leaf"),
    ("parse_tree", "vertex 0 root\nvertex 1 0\ngenus-mark 1\nfrontier 1\n", 3,
     "genus mark 1 sits on a leaf"),
    ("parse_tree", 'vertex "" root\nvertex "a" ""\nvertex "b" ""\ngenus-mark "b"\n'
     'genus-mark "a"\nfrontier "a"\nfrontier "b"\n', 5, "genus mark a sits on a leaf"),
    ("parse_tree", "vertex 0 root\nvertex 1 0\nfrontier 1\nfrontier 9\n", 4,
     "frontier vertex 9 not in the tree"),
    ("parse_tree", "vertex 0 root\nvertex 2 1\nvertex 1 0\nfrontier 1\n", 2,
     "leaves [2] are neither punctures nor frontier"),
    ("parse_tree", "# a family the format does not know\nfamily torus 3\n", 2,
     "unknown family 'torus'"),
], ids=["surface-h-missing", "surface-sigma-missing", "trajectory-end", "tree-root",
        "root-degree", "disconnected", "puncture", "genus-mark", "first-genus-mark", "frontier",
        "bare-leaf", "unknown-family"])
def test_whole_file_errors_name_the_record_at_fault(parser, text, line, message):
    with pytest.raises(formats.FormatError) as err:
        getattr(formats, parser)(text)
    assert str(err.value) == f"line {line}: {message}"


@st.composite
def config_graphs(draw):
    """A connected bipartite multigraph: a random spanning tree, then extra
    parallel or new edges, ids of any sign, a bound at or above the
    largest degree."""
    part_i = draw(st.lists(st.integers(-20, 20).map(lambda k: 2 * k), min_size=1,
                           max_size=5, unique=True))
    part_j = draw(st.lists(st.integers(-20, 20).map(lambda k: 2 * k + 1), min_size=1,
                           max_size=5, unique=True))
    pairs = [(part_i[0], part_j[0])]
    joined = {0: part_i[:1], 1: part_j[:1]}  # by parity
    for v in draw(st.permutations(part_i[1:] + part_j[1:])):
        w = draw(st.sampled_from(joined[1 - v % 2]))
        pairs.append((v, w) if v % 2 == 0 else (w, v))
        joined[v % 2].append(v)
    pairs += draw(st.lists(st.tuples(st.sampled_from(part_i), st.sampled_from(part_j)),
                           max_size=6))
    ids = draw(st.lists(st.integers(-50, 50), min_size=len(pairs), max_size=len(pairs),
                        unique=True))
    degree = max(sum(v in ij for ij in pairs) for v in part_i + part_j)
    bound = degree + draw(st.integers(0, 2))
    return BipartiteConfigGraph.make(part_i, part_j, dict(zip(ids, pairs)), bound)


RATIOS = st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9))


def _positive_quads():
    return st.builds(QuadExt, RATIOS, RATIOS.filter(bool),
                     st.sampled_from([2, 3, 5, 7])).filter(lambda x: x > 0)


# every value a lambda record accepts: ratios, finite floats, quadratic numbers
LAMBDAS = st.one_of(RATIOS, st.floats(allow_nan=False, allow_infinity=False), _positive_quads())
POSITIVE = st.one_of(RATIOS.filter(lambda x: x > 0),
                     st.floats(min_value=0, exclude_min=True, allow_infinity=False),
                     _positive_quads())
HARMONIC = st.builds(HarmonicAssignment, LAMBDAS,
                     st.dictionaries(st.integers(-99, 99), POSITIVE, min_size=1, max_size=8))
BAD_TOKENS = st.one_of(st.sampled_from(["x", "", "-", "1/0", "1+1r", "nan", "-1", "0", "3",
                                        "1_0", "1e400", "bipartite", "edge", "h", "#"]),
                       st.integers(-30, 30).map(str), st.text(max_size=4))


@st.composite
def edited(draw, text):
    """text with a few of its lines dropped, repeated, edited token by
    token or joined by random lines."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "repeat", "token", "insert"]))
        if action == "insert" or k == len(lines):
            lines.insert(k, draw(st.text(max_size=20)))
        elif action == "drop":
            del lines[k]
        elif action == "repeat":
            lines.insert(k, lines[k])
        else:
            toks = lines[k].split() or [""]
            toks[draw(st.integers(0, len(toks) - 1))] = draw(BAD_TOKENS)
            lines[k] = " ".join(toks)
    return "\n".join(lines)


# sources for the edited-file fuzzing: exact and float staircases, a
# multicurve output, flows ending at a window edge, at the budget and at a corner
SURFACES = [STAIRCASE, formats.write_surface(staircase_complex(-3, 4, 2, exact=False)),
            formats.write_surface(build_multicurves((1, 2), 3).complex)]
TRAJECTORIES = [formats.write_trajectory(flow(STAIR, SurfacePoint(*p), d, 30))
                for p, d in (((0, Fraction(1, 3), Fraction(1, 5)), (2, 1)),
                             ((1, 0.25, 0.5), (1.0, -3.0)),
                             ((0, STAIR.width[0] / 2, Fraction(1, 2)), (STAIR.width[0], 1)))]


def _parses_or_names_a_line(parse, text):
    """True if text parses; False if it raises a FormatError naming a line
    of the text or the one after it; anything else fails."""
    try:
        parse(text)
        return True
    except formats.FormatError as err:
        assert 1 <= err.line <= len(text.splitlines()) + 1, str(err)
        assert str(err).startswith(f"line {err.line}: ")
        return False


class TestParserFuzz:
    @given(config_graphs())
    def test_graph_round_trip(self, g):
        assert formats.parse_graph(formats.write_graph(g)) == g

    @given(HARMONIC)
    def test_harmonic_round_trip(self, h):
        back = formats.parse_harmonic(formats.write_harmonic(h))
        assert back.lam == h.lam and back.values == h.values

    @given(st.data())
    def test_edited_graph_parses_or_names_a_line(self, data):
        text = data.draw(edited(formats.write_graph(data.draw(config_graphs()))))
        _parses_or_names_a_line(formats.parse_graph, text)

    @given(st.data())
    def test_edited_harmonic_parses_or_names_a_line(self, data):
        text = data.draw(edited(formats.write_harmonic(data.draw(HARMONIC))))
        _parses_or_names_a_line(formats.parse_harmonic, text)

    @given(st.data())
    def test_edited_surface_parses_or_names_a_line(self, data):
        text = data.draw(edited(data.draw(st.sampled_from(SURFACES))))
        _parses_or_names_a_line(formats.parse_surface, text)

    @given(st.data())
    def test_edited_trajectory_parses_or_names_a_line(self, data):
        text = data.draw(edited(data.draw(st.sampled_from(TRAJECTORIES))))
        _parses_or_names_a_line(formats.parse_trajectory, text)

    @given(st.data())
    def test_edited_tree_parses_or_names_a_line(self, data):
        text = data.draw(edited(formats.write_tree(data.draw(st.sampled_from(_TREE_GRID)))))
        _parses_or_names_a_line(formats.parse_tree, text)

    @given(st.text())
    def test_any_text_parses_or_names_a_line(self, text):
        for parse in (formats.parse_graph, formats.parse_harmonic, formats.parse_surface,
                      formats.parse_trajectory, formats.parse_tree):
            _parses_or_names_a_line(parse, text)

    @staticmethod
    def _cli(args, files):
        """The CLI's result on args, run where files (name -> text) exist."""
        runner = CliRunner()
        with runner.isolated_filesystem():
            for name, text in files.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            return runner.invoke(main, args)

    @settings(max_examples=40)
    @given(st.data())
    def test_cli_harmonic_exits_2_on_a_malformed_graph(self, data):
        text = data.draw(edited(formats.write_graph(data.draw(config_graphs()))))
        assume(not _parses_or_names_a_line(formats.parse_graph, text))
        res = self._cli(["harmonic", "g.graph"], {"g.graph": text})
        assert res.exit_code == 2, res.output
        assert "error: line " in res.output

    @settings(max_examples=20)
    @given(st.data())
    def test_cli_multicurve_exits_2_on_a_malformed_tree(self, data):
        text = data.draw(edited(formats.write_tree(data.draw(st.sampled_from(_TREE_GRID)))))
        assume(not _parses_or_names_a_line(formats.parse_tree, text))
        res = self._cli(["multicurve", "t.tree", "--m", "2"], {"t.tree": text})
        assert res.exit_code == 2, res.output
        assert "error: line " in res.output

    @settings(max_examples=20)
    @given(st.data())
    def test_cli_svg_exits_2_on_a_malformed_trajectory(self, data):
        text = data.draw(edited(data.draw(st.sampled_from(TRAJECTORIES))))
        # a dump that parses is malformed for the surface when it names a
        # rectangle the surface lacks
        assume(not _parses_or_names_a_line(formats.parse_trajectory, text)
               or not {s[0] for s in formats.parse_trajectory(text).segments} <= STAIR.width.keys())
        res = self._cli(["svg", "s.surf", "--traj", "t.traj"], {"s.surf": STAIRCASE, "t.traj": text})
        assert res.exit_code == 2, res.output
        assert "error: line " in res.output

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "missing bipartite header"),
        ("edge 0 0 1\n# end\n", 2, "missing bipartite header"),
        ("bipartite 1 1 1 0\nedge 0 0 1\n", 1, "valence bound must be positive"),
        ("bipartite 1 1 1 2\nedge 0 1 1\n", 2, "parts I and J overlap"),
        ("bipartite 2 1 2 2\nedge 4 0 1\nedge 3 1 1\n", 3, "parts I and J overlap"),
        ("bipartite 1 1 1 2\nedge 0 3 1\n", 2, "part-I vertex 3 must have an even id"),
        ("bipartite 1 1 1 2\nedge 0 0 2\n", 2, "part-J vertex 2 must have an odd id"),
        ("bipartite 1 1 3 2\nedge 0 0 1\nedge 1 0 1\nedge 2 0 1\n", 4,
         "vertex 0 has degree 3 > bound 2"),
        ("edge 0 0 1\nedge 1 2 3\nbipartite 2 2 2 1\n", 3, "graph is not connected"),
    ])
    def test_whole_graph_errors_name_a_line(self, text, line, message):
        with pytest.raises(formats.FormatError) as err:
            formats.parse_graph(text)
        assert str(err.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("text, line, message", [
        ("h 0 1\n", 2, "missing lambda record"),
        ("lambda 2\n\n# no values\n", 2, "no h records"),
    ])
    def test_missing_harmonic_records_name_the_end(self, text, line, message):
        with pytest.raises(formats.FormatError) as err:
            formats.parse_harmonic(text)
        assert str(err.value) == f"line {line}: {message}"


class TestTrajectoryFormat:
    def test_round_trip(self):
        t = square_torus()
        traj = flow(t, SurfacePoint(0, Fraction(1, 4), Fraction(0)),
                    (Fraction(1), Fraction(1)), 3.0)
        text = formats.write_trajectory(traj)
        dump = formats.parse_trajectory(text)
        assert formats.write_trajectory(dump) == text
        assert dump.terminal == traj.terminal
        assert len(dump.segments) == len(traj.segments)
        assert dump.segments[0][1] == Fraction(1, 4)

    @pytest.mark.parametrize("field", range(5))
    @pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "-Infinity", "1e400"])
    def test_non_finite_seg_value_names_its_line(self, field, tok):
        values = ["0.1", "0.2", "0.3", "0.4", "0.5"]
        values[field] = tok
        text = f"seg 0 0.1 0.2 0.3 0.4 0.5\n# x\nseg 1 {' '.join(values)}\nend budget\n"
        with pytest.raises(formats.FormatError) as err:
            formats.parse_trajectory(text)
        assert str(err.value) == f"line 3: seg value {tok} is not finite"

    def test_exact_seg_values_beyond_float_range_are_finite(self):
        big = "1" + "0" * 400
        dump = formats.parse_trajectory(f"seg 0 {big} 1/3 {big}/7 1+1r5 0.5\nend budget\n")
        assert dump.segments[0][1:4] == (Fraction(10 ** 400), Fraction(1, 3),
                                          Fraction(10 ** 400, 7))


class TestTreeFormat:
    def test_family_line(self):
        t = formats.parse_tree("family loch-ness 3\n")
        assert t.family == "loch-ness"
        assert len(t.genus_marks) == 3
        text = formats.write_tree(t)
        assert "family loch-ness 3" in text

    def test_explicit_tree_round_trip(self):
        t = ladder_tree(2)
        explicit = formats.write_tree(loch_ness_tree(2))
        assert "family" in explicit
        spec = formats.parse_tree(
            "vertex 0 root\nvertex 1 0\nvertex 2 1\npuncture 2\ngenus-mark 0\n")
        assert spec.punctures == {2}
        assert spec.genus_marks == {0}
        back = formats.parse_tree(formats.write_tree(spec))
        assert back == spec
        assert t.family == "ladder"

    def test_unknown_record(self):
        with pytest.raises(formats.FormatError, match="line 1"):
            formats.parse_tree("vortex 0 root\n")

    def test_str_ids_keep_their_type(self):
        # "", "0" and "-3" are str ids, written quoted; 0 and -3 stay ints
        spec = EndTreeSpec.make("", {"0": "", 0: "", "-3": "0", -3: "0"},
                                punctures={"-3", 0}, genus_marks={"", "0"}, frontier={-3})
        lines = formats.write_tree(spec).splitlines()
        assert 'vertex "" root' in lines and 'vertex -3 "0"' in lines
        assert formats.parse_tree("\n".join(lines)) == spec

    def test_bare_ids_keep_their_meaning(self):
        spec = formats.parse_tree("vertex r root\nvertex 7 r\nvertex -2 r\n"
                                  "frontier 7\npuncture -2\n")
        assert spec.root == "r" and spec.parent_map() == {7: "r", -2: "r"}

    @pytest.mark.parametrize("token", ['"a', 'a"', '"a"b"', '""""', '"'])
    def test_malformed_quote_names_its_line(self, token):
        with pytest.raises(formats.FormatError, match="^line 2: malformed quoted vertex id"):
            formats.parse_tree(f'vertex "" root\nvertex {token} ""\n')

    @pytest.mark.parametrize("vertex", ["a b", 'say"hi"', "#1", 1.5])
    def test_unwritable_id_is_refused(self, vertex):
        with pytest.raises(ValueError, match="vertex id"):
            formats.write_tree(EndTreeSpec.make(vertex, {}, frontier={vertex}))


def _pinned_corpus():
    """(name, complex, trajectories) whose dumps and pictures are pinned:
    float staircase flows ending at a window edge, at the budget and at a
    corner, a Fraction flow on the square torus, a Q(sqrt 5) flow, and
    float flows on a Perron recipe surface through reversing gluings."""
    fl = staircase_complex(-4, 5, 2, exact=False)
    floats = [flow(fl, SurfacePoint(*p), d, length) for p, d, length in (
        ((0, 0.25, 0.5), (1.0, 0.7), 40.0), ((3, 0.1, 0.9), (-0.3, 1.0), 200.0),
        ((-2, 0.5, 0.5), (1.0, -2.0), 15.0), ((0, 0.5, 0.5), (1.0, 1.0), 50.0))]
    torus = square_torus()
    fractions = [flow(torus, SurfacePoint(0, Fraction(1, 3), Fraction(1, 5)), (3, 4),
                      Fraction(17, 2))]
    quad = staircase_complex(-8, 9, 3)
    quads = [flow(quad, SurfacePoint(0, Fraction(1, 3), Fraction(1, 5)), (1, 2), 20)]
    r = build_multicurves(loch_ness_tree(3), 2).complex
    rec = build_surface(r.graph, r.ribbon, harmonic=perron_pair(r.graph))
    recipe = [flow(rec, SurfacePoint(0, rec.width[0] / 3, rec.height[0] / 4), d, 30.0)
              for d in ((1.0, 0.7), (-1.0, 0.45))]
    assert all(any(s.dir_in != t.direction for s in t.segments) for t in recipe)
    return [("float", fl, floats), ("fraction", torus, fractions), ("quad", quad, quads),
            ("recipe", rec, recipe)]


# sha256 of the corpus's trajectory dumps, then its picture with the
# visited rectangles shaded
PINNED = {
    "float": "f6edb18e9a74844c2b68de369827d7e0c018a6ccbca09cdaefe800261bff7a49",
    "fraction": "29b714659536e642a352e8d585e58a63d486c88a773ad584d50f716fd5254f2a",
    "quad": "84995e8ad5848a91c02915e13467451315f570d49b93b8178cf5f824023c0131",
    "recipe": "237d2d6b308b5dd6fc8728cbd83f1aa3979221917c5c36c8a5df9a7aa2e9456a",
}


@pytest.mark.parametrize("name, m, trajs", [pytest.param(*c, id=c[0]) for c in _pinned_corpus()])
def test_trajectory_dumps_and_pictures_keep_their_bytes(name, m, trajs):
    dumps = [formats.write_trajectory(t) for t in trajs]
    shade = {s.edge for t in trajs for s in t.segments}
    picture = surface_svg(m, trajectories=trajs, shade=shade)
    # the svg command draws parsed dumps: the same picture
    assert surface_svg(m, [formats.parse_trajectory(d) for d in dumps], shade) == picture
    digest = hashlib.sha256("".join(dumps + [picture]).encode("utf-8")).hexdigest()
    assert digest == PINNED[name]
