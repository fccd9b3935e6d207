"""Differential dump of the algebra layer, for comparing two checkouts.

    PYTHONPATH=src python3 tests/algebra_differential.py [--records] > algebra.txt

Prints one line per section: its name, its record count and a SHA-256 of
the records (with --records, every record follows on its own line).  A
record is the repr of a result, or the type and message of the exception
it raised.  The last line digests the whole dump.  Run it on two checkouts
and compare the outputs with diff: equal dumps mean the two compute the
same values, of the same types, and raise the same errors.

The sections:

- mobius: `rho`, `classify`, `eigendirections`, `brenner_check`,
  `renormalizable` (depth 20, or 60 on positive words) and `close_to` for
  every freely reduced word of length up to 6, at lambda in {2, 3, 5/2,
  3/2, 1, 3.0, 2.5, 2.0, 1.5, 1 + sqrt 5}; `close_to` pairs each
  eigendirection with the axes, the diagonal, its float copy and the
  eigendirections of the same matrix;
- mobius edges: `MobiusClass.make` and `is_identity` on exact, float and
  mixed entries near determinant 1;
- twist: `twist_action` for both families, powers -2, -1, 1, 2, 3, a
  grid of points with boundary and interior coordinates, with and without
  a support, on exact and float lambda = 2 and lambda = 3 staircase
  windows (whose extreme cylinders are window-truncated, so some calls
  raise);
- flipped twist: the same on the double-edge complex at lambda = 2 with
  flips on N, on E and on both, exact and float (rotated charts);
- convergence: `compact_open_convergence_check` reports for shrinking beta
  supports on exact and float staircases;
- long words: `rho`, `classify` and `eigendirections` of (aB)^k and
  (aaB)^k for k = 4..15 at lambda in {3, 3.0, 5.0}, whose float entries
  grow past 1e25.

It is not collected by pytest and takes under a minute.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from differential import record, run_sections
from multitwist.flow import SurfacePoint, compact_open_convergence_check, twist_action
from multitwist.graphs import BipartiteConfigGraph, HarmonicAssignment
from multitwist.mobius import (ALL_DIRECTIONS, MobiusClass, ProjectiveDirection, TwistWord,
                               brenner_check, classify, eigendirections, renormalizable,
                               rho)
from multitwist.quadfield import QuadExt
from multitwist.surfaces import RibbonData, build_surface, staircase_complex

LAMS = (2, 3, Fraction(5, 2), Fraction(3, 2), 1, 3.0, 2.5, 2.0, 1.5, QuadExt(1, 1, 5))
MAX_WORD = 6
RENORM_DEPTH = 20
RENORM_DEPTH_POSITIVE = 60
POWERS = (-2, -1, 1, 2, 3)
GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(3, 4), Fraction(1))
LONG_LAMS = (3, 3.0, 5.0)
LONG_POWERS = range(4, 16)
FLIP_SETS = (((0, "N"), (1, "N")), ((0, "E"), (1, "E")),
             ((0, "N"), (1, "N"), (0, "E"), (1, "E")))


def _record(fn, *args, **kwargs) -> str:
    return record(lambda: repr(fn(*args, **kwargs)))


def _words():
    for n in range(MAX_WORD + 1):
        for letters in itertools.product((1, -1, 2, -2), repeat=n):
            if all(x != -y for x, y in zip(letters, letters[1:])):
                yield TwistWord.make(letters)


def _mobius():
    axes = (ProjectiveDirection.make(1, 0), ProjectiveDirection.make(0, 1),
            ProjectiveDirection.make(1, 1), ProjectiveDirection.make(1.0, 1.0))
    for lam in LAMS:
        for word in _words():
            tag = f"{lam!r} {word}"
            m = rho(word, lam)
            yield f"{tag} rho {m!r}"
            yield f"{tag} classify {_record(classify, m)}"
            yield f"{tag} brenner {_record(brenner_check, m, lam)}"
            eig = eigendirections(m)
            if eig is ALL_DIRECTIONS:
                yield f"{tag} eig all"
                continue
            yield f"{tag} eig {eig!r}"
            depth = RENORM_DEPTH_POSITIVE if word.positive_semigroup else RENORM_DEPTH
            for k, d in enumerate(eig):
                yield f"{tag} renorm{k} {_record(renormalizable, d, lam, depth=depth)}"
                copy = ProjectiveDirection.make(float(d.x), float(d.y))
                others = axes + (copy,) + tuple(eig)
                yield f"{tag} close{k} " + " ".join(_record(d.close_to, o) for o in others)


def _mobius_edges():
    near = (0, 1e-13, -1e-13, 1e-11, 1e-9)
    for eps in near:
        for one in (1, Fraction(1), 1.0, QuadExt(1)):
            d = one + eps
            yield f"make {one!r}+{eps!r} {_record(MobiusClass.make, one, 0, 0, d)}"
            yield f"make-float {one!r}+{eps!r} {_record(MobiusClass.make, 1.0, 0.0, 0.0, d)}"
            m = MobiusClass(d, 0, 0, one)
            yield f"is_identity {m!r} {_record(m.is_identity)} {_record(classify, m)}"


def _points(m, edges):
    for e in edges:
        w, h = m.width[e], m.height[e]
        for fx, fy in itertools.product(GRID, GRID):
            if isinstance(w, float):
                yield SurfacePoint(e, w * float(fx), h * float(fy))
            else:
                yield SurfacePoint(e, w * fx, h * fy)


def _twists(m, label, supports):
    edges = sorted(m.width)
    for p in _points(m, edges):
        for family, power, support in itertools.product(("alpha", "beta"), POWERS, supports):
            tag = f"{label} {family} {power} {sorted(support) if support else None} {p!r}"
            yield f"{tag} {_record(twist_action, m, family, p, power, support=support)}"


def _staircases():
    for lam, exact in ((2, True), (3, True), (2, False), (3, False)):
        label = f"staircase l{lam} {'exact' if exact else 'float'}"
        yield label, staircase_complex(-4, 5, lam, exact)


def _twist():
    for label, m in _staircases():
        yield from _twists(m, label, (None, frozenset({-2, 0, 2}), frozenset({-1, 3})))


def _flipped_twist():
    g = BipartiteConfigGraph.make([0], [1], {0: (0, 1), 1: (0, 1)}, 4)
    for flips in FLIP_SETS:
        for lam, one in ((2, 1), (2.0, 1.0)):
            rib = RibbonData.make({0: 1, 1: 0}, {0: 1, 1: 0}, flips=flips)
            m = build_surface(g, rib, HarmonicAssignment(lam=lam, values={0: one, 1: one}))
            yield from _twists(m, f"flips {flips} l{lam!r}", (None, frozenset({0, 1})))


def _convergence():
    for lo, hi, lam, exact in ((-13, 14, 2, True), (-13, 14, 2, False), (-9, 10, 3, True)):
        m = staircase_complex(lo, hi, lam, exact)
        limit = frozenset({-1, 1})
        for offset in (1, 5, 11):
            def beta_n(n, offset=offset):
                return limit | {v for v in range(lo, hi + 1) if v % 2 and abs(v) >= 2 * n + offset}
            for w in (1, 2, 3):
                rep = _record(compact_open_convergence_check, m, beta_n, limit,
                              window=range(-w, w + 1), n_max=6)
                yield f"l{lam} {exact} [{lo},{hi}) +{offset} w{w} {rep}"


def _long_words():
    for lam in LONG_LAMS:
        for period, k in itertools.product(("aB", "aaB"), LONG_POWERS):
            tag = f"{lam!r} ({period})^{k}"
            word = TwistWord.make(period * k)
            yield f"{tag} rho {_record(rho, word, lam)}"
            yield f"{tag} classify {_record(lambda: classify(rho(word, lam)))}"
            yield f"{tag} eig {_record(lambda: eigendirections(rho(word, lam)))}"


SECTIONS = (("mobius", _mobius), ("mobius-edges", _mobius_edges), ("twist", _twist),
            ("flipped-twist", _flipped_twist), ("convergence", _convergence),
            ("long-words", _long_words))


if __name__ == "__main__":
    run_sections(__doc__, SECTIONS)
