"""Seeded input generation: the seed feeds only this module.

Sizes are fixed per workload; the seed picks start points, directions,
words and finite cases.  Choices are spread over fixed grids (one
direction per grid cell, a fixed word length, every direction of a fixed
set) so that the amount of work, and hence the timings, hardly depend on
the seed while the inputs themselves do.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from fractions import Fraction

# staircase: float windows over lam = 2 and exact Q(sqrt 5) windows over lam = 3
STAIRCASE_FLOAT_SIZES = (500, 1000, 2000)
STAIRCASE_EXACT_SIZES = (250, 500, 1000)
STAIRCASE_ROUND_TRIP = 1000
STAIRCASE_FLOWS = 10
STAIRCASE_FLOW_LENGTH = 600.0  # sqrt(2)*600 crossings stay inside the 2k window

# flow-sweep
SWEEP_WINDOWS = (200, 400, 800)
SWEEP_TRAJECTORIES = 300
SWEEP_LENGTH = 60.0
CODING_WORDS = 100
CODING_WORD_LENGTH = 8
SADDLE_WINDOWS = (17, 33, 65)
SADDLE_WORD_LENGTH = 5
SADDLE_LENGTH = 40.0

# exact
EXACT_L2_WINDOW = 500
EXACT_L3_WINDOW = 80
EXACT_DIRECTIONS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
EXACT_L2_LENGTH = 120.0
EXACT_L3_LENGTH = 20.0
EXACT_WORDS = 24
EXACT_WORD_LENGTH = 6
TWIST_WINDOWS = (1, 2, 3)

# recipe-cli
RECIPE_DEPTHS = (10, 20, 40)
# truncated ends of each tree family; a family's tree of depth d has genus d
RECIPE_FAMILIES = {"loch-ness": 1, "ladder": 2}
RECIPE_WEIGHT = 2
FINITE_CASES = ((1, 0, 2), (2, 0, 2), (2, 0, 3), (3, 0, 2), (3, 0, 3),
                (1, 3, 2), (2, 2, 3), (2, 1, 2))
FINITE_PICK = 3
CLI_FLOW_LENGTH = 30.0
CLI_FLOW_TOL = 1e-9


def _window(n: int, rng: random.Random, shift: int = 0) -> tuple:
    """A window of n rectangles around the centre, moved by up to `shift`."""
    lo = -(n // 2) + (rng.randint(-shift, shift) if shift else 0)
    return lo, lo + n


def positive_words(length: int) -> list:
    """Every word of the given length over {a, B^-1} = letters (1, -2) that
    uses both letters (these are hyperbolic, criterion 05)."""
    return [w for w in itertools.product((1, -2), repeat=length) if 1 in w and -2 in w]


def _interior(rng: random.Random) -> float:
    return rng.uniform(0.05, 0.95)


def staircase(rng: random.Random) -> dict:
    return {
        "float_windows": [_window(n, rng, 4) for n in STAIRCASE_FLOAT_SIZES],
        "exact_windows": [_window(n, rng, 4) for n in STAIRCASE_EXACT_SIZES],
        "flows": [(rng.randint(-2, 2), _interior(rng), _interior(rng))
                  for _ in range(STAIRCASE_FLOWS)],
    }


def flow_sweep(rng: random.Random) -> dict:
    windows = {}
    for n in SWEEP_WINDOWS:
        starts = []
        for k in range(SWEEP_TRAJECTORIES):
            # one direction per cell of a grid over (0.05, pi/2 - 0.05), then a
            # seeded quadrant
            angle = 0.05 + (k + rng.random()) * (math.pi / 2 - 0.1) / SWEEP_TRAJECTORIES
            sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
            starts.append((rng.randint(-10, 10), _interior(rng), _interior(rng),
                           (sx * math.cos(angle), sy * math.sin(angle))))
        windows[n] = starts
    coding = positive_words(CODING_WORD_LENGTH)
    # Saddle searches use every positive word of one length, not a seeded
    # sample: a search costs far more when no ray finds a connection early,
    # and a seeded sample of 100 words moved the pass time by 9% between seeds.
    return {"windows": windows,
            "coding_words": [rng.choice(coding) for _ in range(CODING_WORDS)],
            "saddle_words": positive_words(SADDLE_WORD_LENGTH)}


def _rational_start(rng: random.Random) -> tuple:
    """Edge and chart fractions with prime denominators 97 and 89, so that no
    small-integer direction meets a corner of a unit-square staircase."""
    return (rng.randint(-5, 5), Fraction(rng.randint(1, 96), 97),
            Fraction(rng.randint(1, 88), 89))


def exact(rng: random.Random) -> dict:
    # lam = 2: every direction of the set once, seeded signs and starts; the
    # rectangles are unit squares, so the work does not depend on the start.
    # lam = 3: every signed direction from rectangle 0 only; from other
    # rectangles some directions circle a thin cylinder for thousands of
    # crossings, which made the pass time depend on the seed.
    flows = []
    for dx, dy in EXACT_DIRECTIONS:
        e, fx, fy = _rational_start(rng)
        d = (rng.choice((1, -1)) * dx, rng.choice((1, -1)) * dy)
        flows.append((2, e, fx, fy, d, EXACT_L2_LENGTH))
    for dx, dy in EXACT_DIRECTIONS:
        for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            _, fx, fy = _rational_start(rng)
            flows.append((3, 0, fx, fy, (sx * dx, sy * dy), EXACT_L3_LENGTH))
    return {
        "l2_window": _window(EXACT_L2_WINDOW, rng),
        "l3_window": _window(EXACT_L3_WINDOW, rng),
        "flows": flows,
        # short words: the exact coding cost of a word varies less at length 6
        "words": rng.sample(positive_words(EXACT_WORD_LENGTH), EXACT_WORDS),
    }


def recipe_cli(rng: random.Random, workdir: str, formats, recipe) -> dict:
    """Tree files written with `formats.write_tree`, finite cases and the
    relative flow starts/directions of every pipeline run."""
    trees = []
    for family in RECIPE_FAMILIES:
        build = recipe.loch_ness_tree if family == "loch-ness" else recipe.ladder_tree
        for depth in RECIPE_DEPTHS:
            path = os.path.join(workdir, f"{family}-{depth}.tree")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(formats.write_tree(build(depth)))
            trees.append((family, depth, path))
    finite = rng.sample(FINITE_CASES, FINITE_PICK)
    n_runs = len(trees) + len(finite)
    flows = [(rng.random(), _interior(rng), _interior(rng),
              (rng.randint(1, 3), rng.choice((-1, 1)) * rng.randint(1, 3)))
             for _ in range(n_runs)]
    return {"trees": trees, "finite": finite, "flows": flows, "workdir": workdir}


def make(workload: str, seed: int, workdir: str, mt) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "staircase":
        return staircase(rng)
    if workload == "flow-sweep":
        return flow_sweep(rng)
    if workload == "exact":
        return exact(rng)
    if workload == "recipe-cli":
        return recipe_cli(rng, workdir, mt.formats, mt.recipe)
    raise ValueError(f"unknown workload {workload!r}")
