"""Differential dump of straight-line flows, for comparing two checkouts.

    PYTHONPATH=src python3 tests/flow_differential.py [--segments] > flows.txt

Flows a fixed, seeded set of trajectories and prints one line per
trajectory: its label, the repr of its terminal, terminal detail,
min_corner_distance, final point and final direction, its segment count
and a SHA-256 of the reprs of its segments (with --segments, every
segment's repr follows on its own line).  The last line digests the whole
dump.  Run it on two checkouts and compare the outputs with diff: equal
dumps mean the two take the same crossings with the same numbers.

The set: 900 float flows on lambda = 2 staircase windows of 200, 400 and
800 rectangles, 30 float flows on an exact lambda = 3 window, every
separatrix that the saddle searches for the 30 positive words of length 5
launch on lambda = 3 windows of 17, 33 and 65 rectangles (and each
search's report),
exact flows on lambda = 2 and lambda = 3 windows and on the unit
torus, including rays that end exactly on a corner, and float flows on
recipe outputs with flipped arrows (genus 1 with 2 punctures at weight 3,
loch-ness depth 10 at weight 2), whose reversing gluings the staircase
windows lack.  It is not collected by pytest and takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

from multitwist.flow import (SurfacePoint, detect_saddle_connection, flow,
                             separatrices)
from multitwist.mobius import TwistWord, eigendirections, rho
from multitwist.recipe import build_multicurves, loch_ness_tree
from multitwist.surfaces import square_torus, staircase_complex

SEED = 20201
SWEEP_WINDOWS = (200, 400, 800)
SWEEP_FLOWS = 300
SWEEP_LENGTH = 60.0
SADDLE_WINDOWS = (17, 33, 65)
SADDLE_LENGTH = 40.0
EXACT_DIRECTIONS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
RECIPE_FLOWS = 30
RECIPE_LENGTH = 40.0


def _trajectories():
    """(label, trajectory) pairs, or (label, report) for saddle searches."""
    rng = random.Random(SEED)

    def interior():
        return rng.uniform(0.05, 0.95)

    for n in SWEEP_WINDOWS:
        m = staircase_complex(-(n // 2), n - n // 2, 2, exact=False)
        for k in range(SWEEP_FLOWS):
            angle = 0.05 + (k + rng.random()) * (math.pi / 2 - 0.1) / SWEEP_FLOWS
            d = (rng.choice((1, -1)) * math.cos(angle), rng.choice((1, -1)) * math.sin(angle))
            p = SurfacePoint(rng.randint(-10, 10), interior(), interior())
            yield f"sweep w{n} #{k}", flow(m, p, d, SWEEP_LENGTH)

    ex3 = staircase_complex(-20, 21, 3)
    for k in range(30):
        e = rng.randint(-3, 3)
        p = SurfacePoint(e, float(ex3.width[e]) * interior(), float(ex3.height[e]) * interior())
        d = (math.cos(k + 0.5), math.sin(k + 0.5))
        yield f"float-on-exact #{k}", flow(ex3, p, d, 15.0)

    words = [w for w in itertools.product((1, -2), repeat=5) if 1 in w and -2 in w]
    windows = {n: staircase_complex(-(n // 2), n - n // 2, 3, exact=False)
               for n in SADDLE_WINDOWS}
    for word in words:
        eig = eigendirections(rho(TwistWord.make(word), 3.0))[0]
        d = (eig.x, eig.y)
        for n, m in windows.items():
            rep = detect_saddle_connection(m, d, SADDLE_LENGTH)
            yield f"saddle w{n} {word}", rep
            rays = ((c, r, ray) for c in m.corner_cycles if not c.puncture
                    for r, ray in enumerate(separatrices(m, c.index, d)))
            for c, r, (pos, chart_dir) in itertools.islice(rays, rep.rays_launched):
                yield (f"ray w{n} {word} c{c.index} r{r}",
                       flow(m, pos, chart_dir, SADDLE_LENGTH, _allow_corner_start=True))

    for lam, lo, hi, length in ((2, -250, 250, 40), (3, -40, 40, 12)):
        m = staircase_complex(lo, hi, lam)
        for dx, dy in EXACT_DIRECTIONS:
            sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
            fx, fy = Fraction(rng.randint(1, 96), 97), Fraction(rng.randint(1, 88), 89)
            p = SurfacePoint(0, m.width[0] * fx, m.height[0] * fy)
            yield f"exact l{lam} ({sx * dx},{sy * dy})", flow(m, p, (sx * dx, sy * dy), length)

    torus = square_torus()
    for dx, dy in ((1, 1), (1, -1), (-1, 1), (-1, -1), (2, 1), (1, 2), (3, 1),
                   (-1, 2), (3, -1), (1, 0), (0, 1)):
        for x, y in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0)),
                     (Fraction(1, 4), Fraction(3, 4))):
            yield (f"torus ({dx},{dy}) from ({x},{y})",
                   flow(torus, SurfacePoint(0, x, y), (Fraction(dx), Fraction(dy)), 5))

    for name, source, weight in (("g1n2m3", (1, 2), 3), ("loch-ness d10 m2", loch_ness_tree(10), 2)):
        m = build_multicurves(source, weight).complex
        edges = sorted(m.width)
        for k in range(RECIPE_FLOWS):
            angle = rng.uniform(0, 2 * math.pi)
            e = rng.choice(edges)
            p = SurfacePoint(e, m.width[e] * interior(), m.height[e] * interior())
            yield f"recipe {name} #{k}", flow(m, p, (math.cos(angle), math.sin(angle)), RECIPE_LENGTH)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--segments", action="store_true", help="print every segment's repr")
    args = ap.parse_args()
    whole = hashlib.sha256()
    for label, t in _trajectories():
        if not hasattr(t, "segments"):  # a saddle search report
            line = f"{label}: {t!r}"
            seg_lines = []
        else:
            seg_lines = [repr(s) for s in t.segments]
            digest = hashlib.sha256("\n".join(seg_lines).encode()).hexdigest()[:16]
            line = (f"{label}: {t.terminal!r} {t.terminal_detail!r} "
                    f"{t.min_corner_distance!r} {t.final_point!r} {t.final_direction!r} "
                    f"{len(seg_lines)} {digest}")
        for text in [line] + (seg_lines if args.segments else []):
            whole.update(text.encode() + b"\n")
            print(text)
    print(f"dump sha256 {whole.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
