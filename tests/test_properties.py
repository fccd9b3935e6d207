"""Randomized structural invariants over the geometric core.

Random ribbon data (seeded) exercises the orientation walk, corner-cycle
machinery, and double covers far beyond the hand-built examples:

  - corner quarters partition 4 * (#rectangles),
  - angle excess equals -2 * chi,
  - the number of odd cones (angle an odd multiple of pi) is even,
  - half-translation complexes satisfy Riemann-Hurwitz under the
    orientation double cover, with branch points exactly the odd cones,
  - cylinders biject with curves in both directions,
  - one cut per curve family decides essentiality as one cut per curve does,
    and its walk on integer slots agrees with a walk on named halves.
"""

import math
import random
from fractions import Fraction

import pytest

from multitwist.flow import SurfacePoint, flow
from multitwist.graphs import BipartiteConfigGraph
from multitwist.recipe import (_inessential_curves, build_multicurves, curve_is_essential,
                               ladder_tree, loch_ness_tree)
from multitwist.surfaces import (
    OPPOSITE,
    RibbonData,
    build_surface,
    cylinders,
    euler_characteristic,
    is_translation,
    mark_faces,
    orientation_double_cover,
    staircase_complex,
)


def random_complex(rng, n):
    """Random connected complex on n squares, or None when disconnected."""
    def random_perm_with_flips(axis):
        perm = list(range(n))
        rng.shuffle(perm)
        mapping = {i: perm[i] for i in range(n)}
        flips = []
        seen = set()
        for s in range(n):
            if s in seen:
                continue
            cyc = [s]
            seen.add(s)
            cur = mapping[s]
            while cur != s:
                cyc.append(cur)
                seen.add(cur)
                cur = mapping[cur]
            k = rng.randint(0, len(cyc) // 2)
            for e in rng.sample(cyc, 2 * k):
                flips.append((e, axis))
        return mapping, flips

    h_map, h_flips = random_perm_with_flips("E")
    v_map, v_flips = random_perm_with_flips("N")
    i_of, j_of = {}, {}
    for k, cyc in enumerate(_cycles(h_map)):
        for s in cyc:
            i_of[s] = 2 * k
    for k, cyc in enumerate(_cycles(v_map)):
        for s in cyc:
            j_of[s] = 2 * k + 1
    deg = {}
    for s in range(n):
        deg[i_of[s]] = deg.get(i_of[s], 0) + 1
        deg[j_of[s]] = deg.get(j_of[s], 0) + 1
    try:
        g = BipartiteConfigGraph.make(set(i_of.values()), set(j_of.values()),
                                      {s: (i_of[s], j_of[s]) for s in range(n)},
                                      valence_bound=max(deg.values()))
    except ValueError:
        return None  # disconnected sample
    rib = RibbonData.make(h_map, v_map, h_flips + v_flips)
    return build_surface(g, rib)


def _cycles(mapping):
    seen, out = set(), []
    for s in sorted(mapping):
        if s in seen:
            continue
        cyc = [s]
        seen.add(s)
        cur = mapping[s]
        while cur != s:
            cyc.append(cur)
            seen.add(cur)
            cur = mapping[cur]
        out.append(cyc)
    return out


def _samples(count=150, max_squares=8, seed=414213):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_complex(rng, rng.randint(1, max_squares))
        if m is not None:
            out.append(m)
    return out


SAMPLES = _samples()


def test_corner_partition_everywhere():
    for m in SAMPLES:
        assert sum(c.k for c in m.corner_cycles) == 4 * len(m.edges)


def test_angle_excess_is_minus_two_chi():
    for m in SAMPLES:
        chi = euler_characteristic(m)
        excess = sum(Fraction(c.k, 2) - 2 for c in m.corner_cycles)
        assert excess == -2 * chi


def test_odd_cone_count_is_even():
    for m in SAMPLES:
        odd = sum(1 for c in m.corner_cycles if c.k % 4 == 2)
        assert odd % 2 == 0


def test_cylinders_biject_with_curves():
    for m in SAMPLES:
        assert len(cylinders(m, "horizontal")) == len(m.graph.part_i)
        assert len(cylinders(m, "vertical")) == len(m.graph.part_j)
        for d in ("horizontal", "vertical"):
            covered = sorted(e for cyl in cylinders(m, d) for e in cyl.edges)
            assert covered == sorted(m.edges)


def test_double_cover_riemann_hurwitz():
    covered = 0
    for m in SAMPLES:
        if is_translation(m):
            continue
        cov = orientation_double_cover(m)
        assert is_translation(cov)
        odd = sum(1 for c in m.corner_cycles if c.k % 4 == 2)
        assert euler_characteristic(cov) == 2 * euler_characteristic(m) - odd
        assert len(cov.edges) == 2 * len(m.edges)
        # angle bookkeeping: every even cone doubles up, every odd one
        # lifts to a single cone of twice the angle
        base_even = sorted(c.k for c in m.corner_cycles if c.k % 4 == 0)
        base_odd = sorted(2 * c.k for c in m.corner_cycles if c.k % 4 == 2)
        lifted = sorted(c.k for c in cov.corner_cycles)
        assert lifted == sorted(base_even + base_even + base_odd)
        covered += 1
    assert covered >= 30  # the sampler produces plenty of flipped complexes


def test_exact_flow_reverses_through_flips():
    rng = random.Random(99)
    checked = 0
    for m in SAMPLES:
        if checked >= 25:
            break
        if is_translation(m) or len(m.edges) < 2:
            continue
        e = sorted(m.edges)[0]
        p0 = SurfacePoint(e, Fraction(1, 3), Fraction(2, 7))
        d = (Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5)))
        fwd = flow(m, p0, d, 15.0)
        if fwd.terminal != "budget":
            continue
        back = flow(m, fwd.final_point,
                    (-fwd.final_direction[0], -fwd.final_direction[1]),
                    fwd.total_length)
        assert back.final_point.edge == p0.edge
        assert back.final_point.x == p0.x and back.final_point.y == p0.y
        checked += 1
    assert checked >= 10


def test_lambda_zero_on_trivalent_tree():
    """Bounded-valence graph where the positivity threshold sits above 2."""
    from multitwist.graphs import harmonic_truncated, lambda_zero
    from multitwist.recipe import induced_subtree

    # depth-5 binary tree as a bipartite graph: vertices by depth parity
    t = induced_subtree(["cone:"], depth=5)
    verts = sorted(t.vertices())
    ids = {}
    evens, odds = set(), set()
    for v in verts:
        if len(v) % 2 == 0:
            ids[v] = 2 * len(evens)
            evens.add(ids[v])
        else:
            ids[v] = 2 * len(odds) + 1
            odds.add(ids[v])
    edges = {k: (ids[c], ids[p]) if len(c) % 2 == 0 else (ids[p], ids[c])
             for k, (c, p) in enumerate(sorted(t.parent_map().items()))}
    g = BipartiteConfigGraph.make(evens, odds, edges, valence_bound=3)
    boundary = {ids[v]: 1.0 for v in t.leaves()}
    lz = lambda_zero(g, boundary)
    assert lz == pytest.approx(math.sqrt(6), rel=1e-12)
    res = harmonic_truncated(g, lz + 1e-3, boundary)
    assert res.positive


def _cut_along_one_core(m, vertex):
    """True iff the vertex's core bounds a disc or once-punctured disc, found
    by cutting along that core alone: squares of its cylinder split in two
    halves, every other square stays whole (complete complexes only)."""
    k = vertex % 2  # 0: horizontal core, halves N/S; 1: vertical, halves E/W
    cut = ("N", "S") if k == 0 else ("E", "W")
    cyl = set((m.h_layouts, m.v_layouts)[k][vertex].edges)
    cells = [(e, c) for e in m.edges for c in (cut if e in cyl else ("",))]
    parent = {x: x for x in cells}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    sides = []  # glued pieces of sides, as pairs of cells
    for (e, s), (e2, s2, rev) in m.gluings.items():
        if (e, s) > (e2, s2):
            continue
        if e in cyl and s not in cut:  # along the cut cylinder: two half-sides
            sides += [((e, c), (e2, OPPOSITE[c] if rev else c)) for c in cut]
        else:
            sides.append(((e, s if e in cyl else ""), (e2, s2 if e2 in cyl else "")))
    for a, b in sides:
        parent[find(a)] = find(b)
    pieces = {find(x) for x in cells}
    if len(pieces) == 1:
        return False
    for piece in pieces:
        chi = sum(1 for x in cells if find(x) == piece)
        chi -= sum(1 for a, _ in sides if find(a) == piece)
        holes = 0
        for cyc in m.corner_cycles:
            e, corner = cyc.corners[0]
            if find((e, corner[k] if e in cyl else "")) == piece:
                chi += 1
                holes += cyc.puncture or cyc.marked
        if chi == 1 and holes <= 1:
            return True
    return False


def test_essentiality_matches_single_cut_oracle():
    """One cut per family gives the verdicts of one cut per curve, on random
    complexes with random punctures and a random marked point."""
    rng = random.Random(271828)
    with_inessential = 0
    for _ in range(1200):
        m = random_complex(rng, rng.randint(1, 9))
        if m is None:
            continue
        faces = range(len(m.corner_cycles))
        m = mark_faces(m, [i for i in faces if rng.random() < 0.4],
                       rng.choice(faces) if rng.random() < 0.5 else None)
        inessential = {v for v in m.graph.vertices() if _cut_along_one_core(m, v)}
        assert inessential == {v for v in m.graph.vertices() if not curve_is_essential(m, v)}
        with_inessential += bool(inessential)
    assert with_inessential >= 50


def _dict_inessential_curves(m):
    """The reference for recipe._inessential_curves: the same cut, with the
    bridge search run on every half, named (edge, side), its links read off
    the gluing table, and everything kept in dicts."""
    out = set()
    for k, cut, layouts in ((0, ("N", "S"), m.h_layouts), (1, ("E", "W"), m.v_layouts)):
        adj = {(e, c): [] for e in m.edges for c in cut}  # halves, named by a side
        chi, holes = dict.fromkeys(adj, 1), dict.fromkeys(adj, 0)
        links = [((lay.edges[0], cut[0]), (lay.edges[0], cut[1]), v)  # cores
                 for v, lay in layouts.items()]
        for (e, s), (e2, s2, rev) in m.gluings.items():  # like or crossed halves
            if (e, s) < (e2, s2):
                links += [((e, s), (e2, s2), None)] if s in cut else [
                    ((e, c), (e2, OPPOSITE[c] if rev else c), None) for c in cut]
        for i, (a, b, v) in enumerate(links):
            chi[a] -= v is None or not layouts[v].closed  # a gluing, or an open core
            adj[a].append((b, i))
            adj[b].append((a, i))
        for c in m.corner_cycles:
            x = (c.corners[0][0], c.corners[0][1][k])
            chi[x] += 1
            holes[x] += c.puncture or c.marked
        total = (sum(chi.values()), sum(holes.values()))
        rank, tree, stack = {}, {}, [(next(iter(adj)), None, None)]
        while stack:  # depth first: every link off the tree joins x to an ancestor
            x, p, i = stack.pop()
            if x not in rank:
                rank[x], tree[x] = len(rank), (p, i)
                stack += [(y, x, j) for y, j in adj[x]]
        low = dict(rank)
        for x in list(rank)[:0:-1]:  # descendants first; the root has no tree link
            p, i = tree[x]
            low[x] = min([low[x]] + [rank[y] for y, j in adj[x] if j != i])
            a, _, v = links[i]
            if low[x] == rank[x] and v is not None:  # core v is a bridge
                sides = [[chi[x], holes[x]], [total[0] - chi[x], total[1] - holes[x]]]
                sides[a != x][0] += not layouts[v].closed  # v is cut, not glued
                if any(c == 1 and h <= 1 for c, h in sides):
                    out.add(v)
            low[p] = min(low[p], low[x])
            chi[p] += chi[x]
            holes[p] += holes[x]
    return out


def _random_flags(rng, m):
    """m with each corner cycle punctured at a random rate and, half the
    time, one marked at random."""
    faces = range(len(m.corner_cycles))
    rate = rng.random()
    return mark_faces(m, [i for i in faces if rng.random() < rate],
                      rng.choice(faces) if rng.random() < 0.5 else None)


def _assert_slot_walk_matches(m, rng, flaggings):
    """The slot walk and the reference agree on m as given and on
    flaggings random re-flaggings of it; returns how many of those
    complexes had an inessential curve."""
    found = 0
    for x in [m] + [_random_flags(rng, m) for _ in range(flaggings)]:
        expected = _dict_inessential_curves(x)
        assert _inessential_curves(x) == expected
        found += bool(expected)
    return found


def test_slot_walk_matches_reference_on_random_complexes():
    rng = random.Random(161803)
    found = checked = 0
    while checked < 400:
        m = random_complex(rng, rng.randint(1, 12))
        if m is not None:
            found += _assert_slot_walk_matches(m, rng, 1)
            checked += 1
    assert found >= 50


@pytest.mark.parametrize("tree", [loch_ness_tree, ladder_tree])
@pytest.mark.parametrize("depth", [10, 20])
def test_slot_walk_matches_reference_on_recipe_outputs(tree, depth):
    """Recipe outputs keep every curve essential as built; at weight 1
    random re-flaggings leave some bigon empty, so some curve inessential."""
    rng = random.Random(depth)
    for weight in (1, 2, 3):
        m = build_multicurves(tree(depth), weight).complex
        assert not _inessential_curves(m)
        found = _assert_slot_walk_matches(m, rng, 6)
        assert found >= 1 or weight > 1


@pytest.mark.parametrize("lo, hi", [(-4, 5), (0, 1), (-1, 0), (3, 12), (-12, -3), (-20, 21)])
def test_slot_walk_matches_reference_on_staircase_windows(lo, hi):
    """Windows have open cores at both ends, which the single-cut oracle
    does not cover."""
    rng = random.Random(hi - lo)
    m = staircase_complex(lo, hi, 3)
    assert any(not lay.closed for lay in m.h_layouts.values())
    _assert_slot_walk_matches(m, rng, 8)
