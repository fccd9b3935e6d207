"""Bipartite configuration graphs and their harmonic vertex functions.

A configuration graph records how two families of curves intersect: one
vertex per curve, split into parts I and J, and one edge per intersection
point (so parallel edges matter).  The adjacency operator sums a vertex
function over neighbours with edge multiplicity,

    (A f)(v) = sum over edges {v,w} of f(w),

and a positive f with A f = lam * f prescribes compatible cylinder heights
for the flat-surface builder: the cylinder over each curve then has modulus
1/lam in both directions.

Vertex ids follow the even/odd convention used by the file format: curves
in part I get even ids, curves in part J get odd ids.

Every linear solve (truncated solves, Perron pairs, lambda_0) runs on one
sparse LDL^T factor of lam I - A_int (`_Elimination`), in plain field
arithmetic, so a bounded-valence graph costs memory linear in its size.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from .quadfield import _ZERO, QuadExt, _field, _squarefree_split


class GraphError(ValueError):
    """A configuration graph that breaks a rule of BipartiteConfigGraph.

    edge, when set, is an edge at fault (the least edge id at a vertex at
    fault, or the edge that takes a vertex past the bound), so a parser
    can point at the record that named it.
    """

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


@dataclass(frozen=True)  # not a NamedTuple: it has the hidden _incident field
class BipartiteConfigGraph:
    """Finite bipartite multigraph with bounded valence.

    edges maps edge id -> (i, j) with i in part_i (even ids) and j in
    part_j (odd ids).  The graph must be connected and every vertex degree,
    counted with multiplicity, must stay within valence_bound.
    """

    part_i: frozenset
    part_j: frozenset
    edges: tuple  # ((edge_id, i, j), ...) sorted by edge id
    valence_bound: int
    _incident: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def make(part_i, part_j, edges: Mapping[int, tuple], valence_bound: int) -> "BipartiteConfigGraph":
        part_i = frozenset(int(v) for v in part_i)
        part_j = frozenset(int(v) for v in part_j)
        rows = tuple(sorted((int(e), int(i), int(j)) for e, (i, j) in edges.items()))
        g = BipartiteConfigGraph(part_i, part_j, rows, int(valence_bound))
        g._validate()
        return g

    def _validate(self):
        """Check the graph's rules and fill _incident.  The rows must be
        sorted by edge id, as make sorts them: a duplicate id then sits next
        to its twin, and each vertex's incidences are appended in sorted
        order, so neither needs a set or a sort here."""
        overlap = self.part_i & self.part_j
        if overlap:
            raise GraphError("parts I and J overlap", self._first_edge(min(overlap)))
        for v in self.part_i:
            if v % 2:
                raise GraphError(f"part-I vertex {v} must have an even id", self._first_edge(v))
        for v in self.part_j:
            if v % 2 == 0:
                raise GraphError(f"part-J vertex {v} must have an odd id", self._first_edge(v))
        if self.valence_bound < 1:
            raise GraphError("valence bound must be positive")
        inc: dict = {v: [] for v in self.vertices()}
        prev = None
        for e, i, j in self.edges:
            if e == prev:
                raise GraphError(f"duplicate edge id {e}", e)
            prev = e
            if i not in self.part_i or j not in self.part_j:
                raise GraphError(f"edge {e}=({i},{j}) does not join I to J", e)
            inc[i].append((e, j))
            inc[j].append((e, i))
        for v, lst in inc.items():
            if len(lst) > self.valence_bound:
                raise GraphError(f"vertex {v} has degree {len(lst)} > bound {self.valence_bound}",
                                 lst[self.valence_bound][0])
            self._incident[v] = tuple(lst)
        if len(_components(inc)) > 1:
            raise GraphError("graph is not connected")

    def _first_edge(self, v):
        """The least edge id at v, or None if v has no edge."""
        return next((e for e, i, j in self.edges if v in (i, j)), None)

    def vertices(self) -> frozenset:
        return self.part_i | self.part_j

    def incident(self, v) -> tuple:
        """Sorted (edge_id, other_endpoint) pairs at v."""
        return self._incident[v]

    def degree(self, v) -> int:
        return len(self._incident[v])

    def edge_map(self) -> dict:
        return {e: (i, j) for e, i, j in self.edges}


@dataclass(frozen=True)  # not a NamedTuple: __post_init__ checks it, _trusted sets its fields
class HarmonicAssignment:
    """A candidate lam-harmonic function: strictly positive vertex values,
    and a lam and values that are finite (a file record could not hold
    them otherwise)."""

    lam: object
    values: Mapping

    def __post_init__(self):
        if isinstance(self.lam, float) and not math.isfinite(self.lam):
            raise ValueError(f"harmonic lam {self.lam} is not finite")
        if not all(v > 0 for v in self.values.values()):
            bad = sorted(v for v, x in self.values.items() if not x > 0)
            raise ValueError(f"harmonic values must be positive; offending vertices {bad}")
        bad = sorted(v for v, x in self.values.items() if isinstance(x, float) and x == math.inf)
        if bad:
            raise ValueError(f"harmonic values must be finite; offending vertices {bad}")

    def __getitem__(self, v):
        return self.values[v]


@dataclass(frozen=True)  # not a NamedTuple: __post_init__ checks the window
class LadderFamily:
    """Materialized window of the bi-infinite path (the staircase graph).

    Vertices are the integers lo..hi with an edge n -- n+1 for each n; edge
    ids equal their left endpoint.  Even vertices form part I.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError("window must contain at least one edge")

    def graph(self) -> BipartiteConfigGraph:
        verts = range(self.lo, self.hi + 1)
        edges = {n: ((n, n + 1) if n % 2 == 0 else (n + 1, n)) for n in range(self.lo, self.hi)}
        return BipartiteConfigGraph.make(
            part_i=[v for v in verts if v % 2 == 0],
            part_j=[v for v in verts if v % 2],
            edges=edges,
            valence_bound=2,
        )

    def boundary(self) -> tuple:
        return (self.lo, self.hi)

    def interior(self) -> tuple:
        return tuple(range(self.lo + 1, self.hi))


def apply_adjacency(g: BipartiteConfigGraph, f: Mapping) -> dict:
    """Adjacency operator: v -> sum of f over neighbours with multiplicity."""
    missing = [v for v in g.vertices() if v not in f]
    if missing:
        raise ValueError(f"function not defined on vertices {sorted(missing)}")
    return {v: sum((f[w] for _, w in g.incident(v)), start=0) for v in g.vertices()}


def perron_pair(g: BipartiteConfigGraph) -> HarmonicAssignment:
    """Dominant eigenpair (lam, h) with h > 0, normalized to max value 1.

    No eigensolver: h is the truncated solve with h(v0) = 1 as its only
    boundary value, and lam the root of r(lam) = (A h)(v0) - lam, found by
    safeguarded Newton steps inside a Collatz-Wielandt bracket (see
    `_perron_root`).  Strict interlacing gives rho(A) > rho(A - v0) on a
    connected graph, so near the root every pivot of that solve is
    positive and every value is relative-accurate.  A Perron entry below
    the float range (about 2.2e-308 of the largest) raises ValueError.
    """
    if not g.edges:
        raise ValueError("graph needs at least one edge")
    lam, values = _perron_root(_adjacency(g))
    _refuse_underflow(values.values())
    return _trusted(lam, values)


# power sweeps on A + I before the Newton steps of `_perron_root`
_SWEEPS = 8


def _perron_root(nbrs: Mapping) -> tuple:
    """(rho(A), h) on the connected graph with adjacency nbrs: h > 0 with
    A h = rho h up to rounding and max value exactly 1.

    A few sweeps of A + I from the constant function (A alone flips sign
    between the parts of a bipartite graph) give x > 0, the
    Collatz-Wielandt bracket min (A x)/x <= rho <= max (A x)/x, and the
    pin v0, x's largest entry.  For lam > rho(A - v0) the pinned solve
    h_lam is positive and r(lam) = (A h_lam)(v0) - lam is convex and
    decreasing with root rho, so Newton steps from the bracket's top
    converge.  Should the solve's largest entry lie elsewhere, h is solved
    again pinned there: the pin carries the residual of lam, which is then
    relative to the largest value.
    """
    verts = list(nbrs)
    at = {v: k for k, v in enumerate(verts)}
    rows = [[at[w] for w in nbrs[v]] for v in verts]
    x = [1.0] * len(verts)
    for _ in range(_SWEEPS):
        x = [t + sum(map(x.__getitem__, row)) for t, row in zip(x, rows)]
        top = max(x)
        x = [t / top for t in x]
    ratios = [sum(map(x.__getitem__, row)) / t for t, row in zip(x, rows)]
    v0 = verts[x.index(max(x))]
    lo, hi = min(ratios), max(ratios)
    lam, lo, hi, h = _pinned_newton(nbrs, v0, hi, lo, hi)
    top = max(h, key=h.get)
    if h[top] > h[v0]:
        lam, lo, hi, h = _pinned_newton(nbrs, top, lam, lo, hi)
    scale = max(h.values())  # 1 but for a tie broken by rounding
    return lam, h if scale == 1 else {v: t / scale for v, t in h.items()}


def _pinned_newton(nbrs: Mapping, v0, lam, lo, hi) -> tuple:
    """(lam, lo, hi, h): Newton steps on r(lam) = (A h_lam)(v0) - lam from
    lam in the bracket [lo, hi] of rho, h_lam the solve pinned at
    h(v0) = 1; lam and h are those of the last positive factor.

    r'(lam) = -|h_lam|^2 (as d h_lam / d lam = -(lam I - A_int)^-1 h_lam
    and A is symmetric), so a step costs one factor.  A solve tightens the
    bracket by the sign of r; a factor with a pivot <= 0 puts lam below
    rho(A - v0) < rho, so lam becomes the bracket's bottom.  A step that
    leaves the bracket, or follows such a factor, bisects instead.  The
    steps stop where lam no longer moves in floats.
    """
    elim = _Elimination(nbrs, {v0: 1})
    best = None
    while True:
        entries = elim.factor(lam)
        step = None
        if elim.positive(entries):
            sol = elim.solve(entries, elim.coupling)
            best = lam, sol
            r = sum(sol[elim.pos[w]] for w in nbrs[v0]) - lam
            if r == 0:
                break
            if r > 0:
                lo = lam
            else:
                hi = lam
            step = lam + r / (1 + sum(t * t for t in sol))
            if step == lam:
                break
        else:
            lo = lam
        if step is None or not lo < step < hi:
            step = (lo + hi) / 2
            if not lo < step < hi:
                break
        lam = step
    lam, sol = best
    return lam, lo, hi, {v0: 1.0, **elim.values(sol)}


def _refuse_underflow(values):
    """Raise if a float value lies below the float range."""
    tiny = min(values)
    if isinstance(tiny, float) and tiny < sys.float_info.min:
        raise ValueError(f"positive solution underflows: smallest value {tiny:.3g} "
                         f"is below the float range ({sys.float_info.min:.3g})")


def _trusted(lam, values) -> HarmonicAssignment:
    """A HarmonicAssignment whose values are positive by construction,
    made without running the per-value check again."""
    h = object.__new__(HarmonicAssignment)
    object.__setattr__(h, "lam", lam)
    object.__setattr__(h, "values", values)
    return h


def _lucas_pair(p: int, q2: int, disc: int, n: int) -> tuple:
    """(V_n, U_n) of the Lucas sequences x_{k+1} = p x_k - q2 x_{k-1} with
    V_0, V_1 = 2, p and U_0, U_1 = 0, 1, by squaring on alpha^n =
    (V_n + U_n sqrt(disc)) / 2, where disc = p^2 - 4 q2."""
    out, base = (2, 0), (p, 1)
    while n:
        if n & 1:
            out = ((out[0] * base[0] + disc * out[1] * base[1]) // 2,
                   (out[0] * base[1] + out[1] * base[0]) // 2)
        base = ((base[0] * base[0] + disc * base[1] * base[1]) // 2, base[0] * base[1])
        n >>= 1
    return out


def harmonic_closed_form(fam: LadderFamily, lam) -> HarmonicAssignment:
    """h(n) = r^n on the ladder window, r the larger root of r + 1/r = lam.

    Exact (quadratic-field) values when lam is an int or a Fraction; floats
    when lam is a float or irrational.  Below lam = 2 the bi-infinite path
    carries no positive harmonic function, so that is a domain error, as is
    a lam that is not finite.  At lam = 2 the function is constant 1, one
    shared QuadExt(1).

    For lam = p/q > 2 in lowest terms, r = (p + sqrt(D)) / (2q) with
    D = p^2 - 4q^2 = s^2 d, d squarefree, and

        r^n = (V_n + U_n s sqrt(d)) / (2 q^n),    r^-n = (V_n - U_n s sqrt(d)) / (2 q^n),

    the second being the conjugate of the first since r times its
    conjugate is 1.  V_n and U_n are the integer Lucas sequences of
    x_{n+1} = p x_n - q^2 x_{n-1} (V_0, V_1 = 2, p; U_0, U_1 = 0, 1), run
    over the |n| the window covers, so each height costs a few integer
    operations and two Fractions, whatever its size.  When D is a square
    (lam = 5/2, 10/3, ...) r is rational and the heights are QuadExt with
    d = 0.  The exact heights are powers of r > 0, so positive by
    construction; only the float path checks its values.
    """
    try:
        lam_q = None if isinstance(lam, float) else Fraction(lam)
    except (TypeError, ValueError):
        lam_q = None
    if lam_q is not None:
        if lam_q < 2:
            raise ValueError("ladder harmonic functions need lam >= 2")
        if lam_q == 2:
            return _trusted(QuadExt(2), dict.fromkeys(range(fam.lo, fam.hi + 1), QuadExt(1)))
        p, q = lam_q.numerator, lam_q.denominator
        q2 = q * q
        disc = p * p - 4 * q2
        s, d = _squarefree_split(disc)
        if d == 1:  # r is rational: s sqrt(d) is the integer sqrt(disc)
            s, d = math.isqrt(disc), 0
        lo, hi = fam.lo, fam.hi
        first = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        (v, u), (v1, u1) = (_lucas_pair(p, q2, disc, k) for k in (first, first + 1))
        den = 2 * q ** first
        powers = []  # (r^k, r^-k) for k = first .. max |n|
        for _ in range(first, max(abs(lo), abs(hi)) + 1):
            if d:
                a, b = Fraction(v, den), Fraction(u * s, den)
                powers.append((_field(a, b, d), _field(a, -b, d)))
            else:
                powers.append((_field(Fraction(v + u * s, den), _ZERO, 0),
                               _field(Fraction(v - u * s, den), _ZERO, 0)))
            v, v1 = v1, p * v1 - q2 * v
            u, u1 = u1, p * u1 - q2 * u
            den *= q
        values = {n: powers[abs(n) - first][n < 0] for n in range(lo, hi + 1)}
        return _trusted(QuadExt(lam_q), values)
    lam_f = float(lam)
    if not (math.isfinite(lam_f) and lam_f >= 2):
        raise ValueError(f"ladder harmonic functions need a finite lam >= 2, got {lam_f}")
    r = (lam_f + (lam_f * lam_f - 4.0) ** 0.5) / 2.0
    try:
        values = {n: r ** float(n) for n in range(fam.lo, fam.hi + 1)}
    except OverflowError as exc:
        raise ValueError(f"heights r^n overflow a float on [{fam.lo}, {fam.hi}]") from exc
    return HarmonicAssignment(lam=lam_f, values=values)


class TruncatedHarmonicResult(NamedTuple):
    """Solution of the interior harmonic system on a finite truncation."""

    lam: object
    values: dict
    positive: bool
    nonpositive_vertices: tuple

    def assignment(self) -> HarmonicAssignment:
        if not self.positive:
            raise ValueError(f"solution not positive at {self.nonpositive_vertices}")
        return HarmonicAssignment(lam=self.lam, values=self.values)


def _adjacency(g: BipartiteConfigGraph) -> dict:
    """v -> neighbours of v, one entry per edge (so with multiplicity),
    vertices sorted."""
    return {v: [w for _, w in g.incident(v)] for v in sorted(g.vertices())}


def _components(incident: Mapping) -> list:
    """The vertex lists of the connected components of a graph given by its
    incidence table, vertex -> (edge, other end) pairs: one depth-first
    walk per component, started at its first vertex in table order."""
    seen, parts = set(), []
    for v in incident:
        if v in seen:
            continue
        seen.add(v)
        stack, part = [v], [v]
        while stack:
            for _, w in incident[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    part.append(w)
        parts.append(part)
    return parts


def _checked_adjacency(g: BipartiteConfigGraph, boundary: Mapping) -> dict:
    """g's adjacency, once the boundary of a truncated solve is checked:
    at least one vertex, each in g with a positive value."""
    if not boundary:
        raise ValueError("truncated solve needs at least one boundary vertex")
    nbrs = _adjacency(g)
    for v, x in boundary.items():
        if v not in nbrs:
            raise ValueError(f"boundary vertex {v} not in graph")
        if not x > 0:
            raise ValueError(f"boundary value at {v} must be positive")
    return nbrs


class _Elimination:
    """Sparse LDL^T factor of lam I - A_int for any lam, where A_int is the
    adjacency among the vertices of nbrs outside `boundary`.

    The interior is ordered once, from the structure alone, by minimum
    degree: the elimination game eliminates a vertex of least degree in
    the current graph (ties by id) and joins its remaining neighbours into
    a clique, and that clique is the vertex's column of L.  Entries sit in
    one flat list: pivot k at index k, column k of L at start[k] ..
    start[k + 1] - 1 (each entry's row in `rows`).  `updates[k]` lists
    column k's Schur-complement update as (target, L entry, offset in the
    column) triples.  The arithmetic is plain + - * /, so floats and
    Fractions run through it alike.
    """

    def __init__(self, nbrs: Mapping, boundary: Mapping):
        sets = {v: {w for w in ws if w not in boundary}
                for v, ws in nbrs.items() if v not in boundary}
        heap = [(len(s), v) for v, s in sets.items()]
        heapq.heapify(heap)
        order, cliques = [], []
        while heap:
            d, v = heapq.heappop(heap)
            s = sets.get(v)
            if s is None or len(s) != d:
                continue  # eliminated already, or a stale degree
            del sets[v]
            order.append(v)
            cliques.append(s)
            for u in s:
                su = sets[u]
                su.discard(v)
                if len(s) > 1:
                    su |= s
                    su.discard(u)
                heapq.heappush(heap, (len(su), u))
        n = len(order)
        self.order, self.pos = order, {v: k for k, v in enumerate(order)}
        self.coupling = [0] * n
        for w, x in boundary.items():
            for v in nbrs[w]:
                if v in self.pos:
                    self.coupling[self.pos[v]] += x
        self.rows, self.start, self.init, where = list(range(n)), [n], [], {}
        for k, s in enumerate(cliques):
            ws = nbrs[order[k]]
            for i in sorted(map(self.pos.__getitem__, s)):
                where[k, i] = len(self.rows)
                self.rows.append(i)
                self.init.append(-ws.count(order[i]))  # 0 where the factor fills in
            self.start.append(len(self.rows))
        self.updates = []
        for k in range(n):
            lo, hi = self.start[k], self.start[k + 1]
            self.updates.append([(where[self.rows[p], self.rows[q]] if q > p else self.rows[p],
                                  p, q - lo)
                                 for p in range(lo, hi) for q in range(p, hi)])

    def factor(self, lam) -> list:
        """The entries for lam: pivots first, then L.  A zero pivot raises;
        negative ones do not, so an indefinite system still solves."""
        entries = [lam] * len(self.order) + self.init
        start = self.start
        for k, update in enumerate(self.updates):
            d = entries[k]
            if d == 0:
                raise ValueError(f"degenerate truncation: zero pivot at vertex {self.order[k]}")
            lo, hi = start[k], start[k + 1]
            column = entries[lo:hi]
            for p in range(lo, hi):
                entries[p] /= d
            for t, p, q in update:
                entries[t] -= entries[p] * column[q]
        return entries

    def positive(self, entries) -> bool:
        """Every pivot > 0: lam I - A_int is positive definite."""
        return all(d > 0 for d in entries[:len(self.order)])

    def solve(self, entries, rhs) -> list:
        """x with (lam I - A_int) x = rhs, both in elimination order."""
        x = list(rhs)
        rows, start = self.rows, self.start
        n = len(x)
        for k in range(n):
            xk = x[k]
            if xk:
                for p in range(start[k], start[k + 1]):
                    x[rows[p]] -= entries[p] * xk
        for k in range(n - 1, -1, -1):
            t = x[k] / entries[k]
            for p in range(start[k], start[k + 1]):
                t -= entries[p] * x[rows[p]]
            x[k] = t
        return x

    def values(self, sol) -> dict:
        """vertex -> value of a solution, vertices sorted."""
        return {v: sol[self.pos[v]] for v in sorted(self.order)}


def harmonic_truncated(g: BipartiteConfigGraph, lam, boundary: Mapping) -> TruncatedHarmonicResult:
    """Solve (A h)(v) = lam h(v) on interior vertices with fixed boundary.

    boundary maps the designated boundary vertices (at least one) to their
    positive values; every other vertex is interior.  The interior system
    is (lam I - A_int) h = (boundary sums), solved through a sparse LDL^T
    factor in the arithmetic of lam and the boundary values, so Fractions
    give the exact solution.  By Perron-Frobenius theory for M-matrices,
    on a connected graph the solution is positive exactly when lam I -
    A_int is positive definite, that is when every pivot is positive, so
    `positive` does not depend on how small the solution is.  A zero pivot
    raises; loss of positivity is reported, not raised.  A positive float
    solution with a value below the float range (sys.float_info.min, about
    2.2e-308) raises ValueError rather than return underflowed values, and
    a NaN or infinite lam raises ValueError before the solve.
    """
    if isinstance(lam, float) and not math.isfinite(lam):
        raise ValueError(f"lam {lam} is not finite")
    elim = _Elimination(_checked_adjacency(g, boundary), boundary)
    entries = elim.factor(lam)
    positive = elim.positive(entries)
    sol = elim.solve(entries, elim.coupling)
    if positive and sol:
        _refuse_underflow(sol)
    interior = elim.values(sol)
    bad = tuple(v for v, x in interior.items() if not x > 0)
    return TruncatedHarmonicResult(lam, {**boundary, **interior}, positive, bad)


class HarmonicReport(NamedTuple):
    """Relative residuals |A h - lam h| / h, vertex by vertex."""

    passes: bool
    max_residual: float
    per_vertex: dict


def verify_harmonic(g: BipartiteConfigGraph, h: HarmonicAssignment, tol: float,
                    boundary=()) -> HarmonicReport:
    """Check A h = lam h on g; boundary vertices are reported but not judged."""
    adj = apply_adjacency(g, h.values)
    boundary = frozenset(boundary)
    per = {}
    for v in g.vertices():
        r = adj[v] - h.lam * h[v]
        per[v] = abs(r) / h[v]
    judged = [float(per[v]) for v in per if v not in boundary]
    worst = max(judged) if judged else 0.0
    return HarmonicReport(passes=worst <= tol, max_residual=worst, per_vertex=per)


def lambda_zero(g: BipartiteConfigGraph, boundary: Mapping) -> float:
    """Least lam >= 2 from which truncated solves with this boundary are positive.

    By the Perron-Frobenius verdict of harmonic_truncated, a solve is
    positive exactly when lam > rho(A_int), so this is max(2, rho(A_int)),
    the largest rho over the connected components of A_int, each found as
    `perron_pair` finds it.  At lam = rho(A_int) > 2 itself the system is
    singular; every larger lam is positive, though a solve can still raise
    when its values fall below the float range.
    """
    interior = {v: [(e, w) for e, w in g.incident(v) if w not in boundary]
                for v in _checked_adjacency(g, boundary) if v not in boundary}
    return max([2.0] + [_perron_root({v: [w for _, w in interior[v]] for v in part})[0]
                        for part in _components(interior)])
