"""Differential dump of the recipe layer, for comparing two checkouts.

    PYTHONPATH=src python3 tests/recipe_differential.py [--records] > recipe.txt

Prints one line per section: its name, its record count and a SHA-256 of
the records (with --records, every record follows on its own line).  The
last line digests the whole dump.  Run it on two checkouts and compare the
outputs with diff: equal dumps mean the two assemble the same filling pairs,
refuse the same requests with the same messages and read trees the same
way.  Every set is sorted before it is printed, so the dump does not depend
on the hash seed.

The sections:

- builds: `build_multicurves` on every finite request (genus <= 5, at most
  8 punctures, m <= 10) and on loch-ness and ladder trees of depth <= 12 at
  m <= 7; a record is the `write_surface` text, the genus, the sorted
  `end_faces` and the `RecipeReport`, or the text of the `RecipeError`;
- trees: for the address sets of the tree grid in tests/test_recipe.py,
  at depths 1, 3 and 6, and for loch-ness and ladder trees of depth 1, 2
  and 5, the tree, its `simplify_tree`, the `surgery` counts (its own
  marks, every vertex with one or two children, a leaf, a vertex not in
  the tree) and the `write_tree` -> `parse_tree` round trip.

After the digest lines it prints to stderr the wall time of the builds
section and how many complexes that section built (calls to
`recipe.build_surface`), so the work of the assembly shows without a
profiler and the dump on stdout still diffs clean.  It is not collected
by pytest and takes a few seconds.
"""

from __future__ import annotations

import sys

from differential import record, run_sections
from multitwist import recipe
from multitwist.formats import parse_tree, write_surface, write_tree
from multitwist.recipe import (RecipeError, build_multicurves, induced_subtree, ladder_tree,
                               loch_ness_tree, simplify_tree, surgery)

MAX_GENUS, MAX_PUNCTURES, MAX_WEIGHT = 5, 8, 10
MAX_DEPTH, MAX_TREE_WEIGHT = 12, 7
ADDRESSES = (["000"], ["cone:"], ["000000", "00001"], ["cone:0", "ray:1"],
             ["0" * 6] + [("0" * k) + "1" for k in (2, 4)],
             ["cone:01", "ray:1", "ray:0011"], ["1101", "cone:100", "0"])
TREE_DEPTHS = (1, 3, 6)
FAMILY_DEPTHS = (1, 2, 5)


def _sorted(values) -> list:
    return sorted(values, key=repr)


def _build(source, m) -> str:
    try:
        out = build_multicurves(source, m)
    except RecipeError as exc:
        return f"RecipeError: {exc}"
    return "\n".join((write_surface(out.complex), f"genus {out.genus}",
                      f"end faces {sorted(out.end_faces)}", repr(out.report)))


def _builds():
    for g in range(MAX_GENUS + 1):
        for n in range(MAX_PUNCTURES + 1):
            for m in range(1, MAX_WEIGHT + 1):
                yield f"finite ({g}, {n}) m={m}\n{record(_build, (g, n), m)}"
    for tree in (loch_ness_tree, ladder_tree):
        for depth in range(1, MAX_DEPTH + 1):
            for m in range(1, MAX_TREE_WEIGHT + 1):
                yield f"{tree.__name__}({depth}) m={m}\n{record(_build, tree(depth), m)}"


def _tree(t) -> str:
    return (f"root {t.root!r} parents {list(t.parents)} punctures {_sorted(t.punctures)} "
            f"marks {_sorted(t.genus_marks)} frontier {_sorted(t.frontier)} "
            f"family {t.family} simple {t.is_simple()}")


def _surgery(t, marks=None) -> str:
    g = surgery(t, marks)
    return (f"triangles {g.triangles} genus {g.genus()} punctures {sorted(g.punctures)} "
            f"frontier {sorted(g.frontier)}")


def _trees():
    grid = [(f"induced {addrs} depth {depth}", induced_subtree(addrs, depth))
            for addrs in ADDRESSES for depth in TREE_DEPTHS]
    grid += [(f"{tree.__name__}({depth})", tree(depth))
             for tree in (loch_ness_tree, ladder_tree) for depth in FAMILY_DEPTHS]
    for label, t in grid:
        ch = t.children()
        inner = [v for v in t.vertices() if len(ch[v]) in (1, 2)]
        leaf = _sorted(t.leaves())[0]
        yield "\n".join((
            label, _tree(t),
            f"simplified {record(lambda: _tree(simplify_tree(t)))}",
            f"surgery {record(_surgery, t)}",
            f"surgery inner {record(_surgery, t, inner)}",
            f"surgery leaf {record(_surgery, t, [leaf])}",
            f"surgery stranger {record(_surgery, t, ['stranger'])}",
            f"round trip {record(lambda: _tree(parse_tree(write_tree(t))))}"))


SECTIONS = (("builds", _builds), ("trees", _trees))


def main():
    builds = [0]
    build_surface = recipe.build_surface

    def counted(*args, **kwargs):
        builds[0] += 1
        return build_surface(*args, **kwargs)

    recipe.build_surface = counted
    seconds = run_sections(__doc__, SECTIONS)["builds"]
    # only the builds section builds complexes; trees reads trees alone
    print(f"builds section: {seconds:.2f} s, {builds[0]} complexes built", file=sys.stderr)


if __name__ == "__main__":
    main()
