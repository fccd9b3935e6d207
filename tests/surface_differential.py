"""Differential dump of surface construction and surface files, for comparing
two checkouts.

    PYTHONPATH=src python3 tests/surface_differential.py [--records] > surfaces.txt

Prints one line per section: its name, its record count and a SHA-256 of
the records (with --records, every record follows on its own line).  The
last line digests the whole dump.  Run it on two checkouts and compare the
outputs with diff: equal dumps mean the two build, write and read the same
surfaces and raise the same errors.

A surface record is its `write_surface` text, the reprs of its side
lengths, gluing table, sorted frontier, corner cycles and cylinder layouts.
An error record is the exception's type and message, and for a
`FormatError` its line.  The sections:

- staircase: `staircase_complex` windows, exact and float, at lambda in
  {2, 3, 5/2, 10/3, 7}, centred on 0, with lo > 0 and with hi < 0;
- multicurves: `build_multicurves` outputs on finite requests and on
  loch-ness and ladder trees, a double cover and a Perron-valued build;
- parse: `parse_surface` on the text of every surface above, and on a
  corpus of malformed files made by editing those texts one record at a
  time;
- numbers: `parse_number` on a corpus of edge tokens.

It is not collected by pytest and takes a few seconds.
"""

from __future__ import annotations

from fractions import Fraction

from differential import record, run_sections
from multitwist.formats import parse_number, parse_surface, write_surface
from multitwist.graphs import perron_pair
from multitwist.recipe import build_multicurves, ladder_tree, loch_ness_tree
from multitwist.surfaces import build_surface, orientation_double_cover, staircase_complex

LAMS = (2, 3, Fraction(5, 2), Fraction(10, 3), 7)
WINDOWS = ((-20, 21), (-7, 6), (5, 30), (-30, -5), (0, 1), (-1, 0))
REQUESTS = (((1, 1), 1), ((1, 2), 3), ((2, 0), 2), ((0, 4), 1), ((2, 3), 4))
TREES = ((loch_ness_tree, 3, 2), (ladder_tree, 3, 1), (loch_ness_tree, 5, 3))
# replacement tokens for the malformed corpus
BAD_TOKENS = ("x", "", "-", "1.5", "99", "-99", "1/0", "3r", "1+1r", "nan", "0")
NUMBER_TOKENS = (
    "0", "-0", "+3", "17", "-12", "0017", "3/7", "-12/5", "+1/2", "3/0", "1/", "/2", "1//2",
    "1.5", "-0.333", "1e5", "1E-17", ".5", "5.", "inf", "-inf", "Infinity", "nan", "NaN",
    "1_0", "1_000/3", "_1", "1__0", "0x10", "", "+", "-", "++1", "--1", " 3", "3 ", "1 /2",
    "1+1r5", "1-1r5", "3/2+1/2r5", "-1/3-2/7r13", "+1+2r3", "1+2r4", "1+2r1", "1+0r5",
    "0+1r0", "1+1r5\n", "1+1r5r", "1+1R5", "1+r5", "+1r5", "1r5", "1+1/0r5", "1/0+2/0r5",
    "1+1/2/3r5", "1.5+1r5", "1+1.5r5", "1e1+1r5", "1+1r-5", "1+1r+5", "1+-1r5", "3r",
    "r", "1+1r", "٣", "٣/٤", "1+١r٥", "²", "1²", "12\n",
)


def _surface(m) -> str:
    return "\n".join((write_surface(m), repr(m.width), repr(m.height),
                      repr(list(m.gluings.items())), repr(sorted(m.frontier)),
                      repr(m.corner_cycles), repr(list(m.h_layouts.items())),
                      repr(list(m.v_layouts.items()))))


def _staircases():
    for lam in LAMS:
        for lo, hi in WINDOWS:
            for exact in (True, False):
                yield f"staircase {lam} [{lo},{hi}] exact={exact}", staircase_complex(lo, hi, lam, exact)


def _multicurves():
    for request, m in REQUESTS:
        yield f"multicurves {request} m={m}", build_multicurves(request, m).complex
    for tree, depth, m in TREES:
        yield f"multicurves {tree.__name__}({depth}) m={m}", build_multicurves(tree(depth), m).complex
    m = build_multicurves((1, 2), 3).complex
    yield "double cover (1, 2) m=3", orientation_double_cover(m)
    g = m.graph
    yield "perron (1, 2) m=3", build_surface(g, m.ribbon, perron_pair(g))


def _surfaces(section):
    for label, m in section():
        yield f"{label}\n{_surface(m)}"


def _malformed(text: str):
    """Edits of a surface file, one record at a time: a dropped line, a
    repeated line, each token replaced by each bad token, and a few foreign
    records."""
    lines = text.splitlines()
    for k in range(len(lines)):
        yield f"drop {k}", "\n".join(lines[:k] + lines[k + 1:])
        yield f"repeat {k}", "\n".join(lines[:k + 1] + lines[k:])
        toks = lines[k].split()
        for i in range(len(toks)):
            for bad in BAD_TOKENS:
                edited = " ".join(toks[:i] + [bad] + toks[i + 1:])
                yield f"line {k} token {i} -> {bad!r}", "\n".join(lines[:k] + [edited] + lines[k + 1:])
    for extra in ("flip 0 E", "flip 0 W", "puncture 0", "marked 0", "marked 1\nmarked 0",
                  "lambda 2", "h 0 1", "bogus 1", "sigma_h", "# comment only", "edge 0 0 1"):
        yield f"append {extra!r}", text + extra + "\n"


def _parses():
    small = [("staircase 3 [-4,5] exact", staircase_complex(-4, 5, 3)),
             ("staircase 2 [-3,4] float", staircase_complex(-3, 4, 2, exact=False)),
             ("staircase 5/2 [2,6] exact", staircase_complex(2, 6, Fraction(5, 2))),
             ("multicurves (1, 2) m=3", build_multicurves((1, 2), 3).complex)]
    for label, m in [*_staircases(), *_multicurves()]:
        yield f"{label}: {record(lambda: _surface(parse_surface(write_surface(m))))}"
    for label, m in small:
        for edit, text in _malformed(write_surface(m)):
            yield f"{label} {edit}: {record(lambda: _surface(parse_surface(text)))}"


def _numbers():
    for tok in NUMBER_TOKENS:
        for line in (0, 7):
            def read(tok=tok, line=line):
                x = parse_number(tok, line)
                return f"{type(x).__name__} {x!r}"
            yield f"{tok!r} line {line}: {record(read)}"


SECTIONS = (("staircase", lambda: _surfaces(_staircases)),
            ("multicurves", lambda: _surfaces(_multicurves)),
            ("parse", _parses), ("numbers", _numbers))


if __name__ == "__main__":
    run_sections(__doc__, SECTIONS)
