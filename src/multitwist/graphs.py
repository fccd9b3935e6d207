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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .quadfield import QuadExt, root_plus

DENSE_SOLVE_LIMIT = 2000  # interior size above which the solver switches to conjugate gradients


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
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
        if self.part_i & self.part_j:
            raise ValueError("parts I and J overlap")
        for v in self.part_i:
            if v % 2:
                raise ValueError(f"part-I vertex {v} must have an even id")
        for v in self.part_j:
            if v % 2 == 0:
                raise ValueError(f"part-J vertex {v} must have an odd id")
        if self.valence_bound < 1:
            raise ValueError("valence bound must be positive")
        seen = set()
        inc: dict = {v: [] for v in self.vertices()}
        for e, i, j in self.edges:
            if e in seen:
                raise ValueError(f"duplicate edge id {e}")
            seen.add(e)
            if i not in self.part_i or j not in self.part_j:
                raise ValueError(f"edge {e}=({i},{j}) does not join I to J")
            inc[i].append((e, j))
            inc[j].append((e, i))
        for v, lst in inc.items():
            if len(lst) > self.valence_bound:
                raise ValueError(f"vertex {v} has degree {len(lst)} > bound {self.valence_bound}")
            self._incident[v] = tuple(sorted(lst))
        if self.vertices() and not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self) -> bool:
        verts = self.vertices()
        start = next(iter(verts))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for _, w in self._incident[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def vertices(self) -> frozenset:
        return self.part_i | self.part_j

    def incident(self, v) -> tuple:
        """Sorted (edge_id, other_endpoint) pairs at v."""
        return self._incident[v]

    def degree(self, v) -> int:
        return len(self._incident[v])

    def edge_map(self) -> dict:
        return {e: (i, j) for e, i, j in self.edges}

    def adjacency_matrix(self) -> tuple[np.ndarray, list]:
        """Dense adjacency with multiplicity; returns (matrix, vertex order)."""
        order = sorted(self.vertices())
        idx = {v: k for k, v in enumerate(order)}
        a = np.zeros((len(order), len(order)))
        for _, i, j in self.edges:
            a[idx[i], idx[j]] += 1.0
            a[idx[j], idx[i]] += 1.0
        return a, order


@dataclass(frozen=True)
class HarmonicAssignment:
    """A candidate lam-harmonic function: strictly positive vertex values."""

    lam: object
    values: Mapping

    def __post_init__(self):
        if not all(v > 0 for v in self.values.values()):
            bad = sorted(v for v, x in self.values.items() if not x > 0)
            raise ValueError(f"harmonic values must be positive; offending vertices {bad}")

    def __getitem__(self, v):
        return self.values[v]


@dataclass(frozen=True)
class LadderFamily:
    """Materialized window of the bi-infinite path (the staircase graph).

    Vertices are the integers lo..hi with an edge n -- n+1 for each n; edge
    ids equal their left endpoint.  Even vertices form part I.
    """

    lo: int
    hi: int
    family: str = "ladder"

    def __post_init__(self):
        if self.family != "ladder":
            raise ValueError(f"unknown periodic family {self.family!r}")
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


def perron_pair(g: BipartiteConfigGraph, tol: float = 1e-12, max_iter: int = 50000) -> HarmonicAssignment:
    """Dominant eigenpair (lam, h) with h > 0, normalized to max value 1.

    Power iteration runs on A + I rather than A: connected bipartite
    adjacency matrices are 2-periodic, so plain iterates oscillate between
    the parts, while the shift makes the matrix primitive without moving
    the eigenvectors.  The start vector is constant 1 (inside the positive
    cone), normalization is by the max entry.
    """
    if not g.edges:
        raise ValueError("graph needs at least one edge")
    a, order = g.adjacency_matrix()
    x = np.ones(len(order))
    lam = 1.0
    residual = np.inf
    for _ in range(max_iter):
        y = a @ x + x
        y /= y.max()
        lam = float(y @ (a @ y)) / float(y @ y)
        residual = float(np.max(np.abs(a @ y - lam * y)))
        x = y
        if residual <= tol:
            values = {v: float(x[k]) for k, v in enumerate(order)}
            return HarmonicAssignment(lam=lam, values=values)
    raise ConvergenceError(f"power iteration did not reach tol={tol}", residual)


def harmonic_closed_form(fam: LadderFamily, lam) -> HarmonicAssignment:
    """h(n) = r^n on the ladder window, r the larger root of r + 1/r = lam.

    Exact (quadratic-field) values when lam is rational; floats otherwise.
    Below lam = 2 the bi-infinite path carries no positive harmonic
    function, so that is a domain error.  At lam = 2 the function is
    constant 1.
    """
    try:
        lam_q = Fraction(lam)
    except (TypeError, ValueError):
        lam_q = None
    if lam_q is not None:
        if lam_q < 2:
            raise ValueError("ladder harmonic functions need lam >= 2")
        if lam_q == 2:
            values = {n: QuadExt(1) for n in range(fam.lo, fam.hi + 1)}
            return HarmonicAssignment(lam=QuadExt(2), values=values)
        r = root_plus(lam_q)
        values = {n: r ** n for n in range(fam.lo, fam.hi + 1)}
        return HarmonicAssignment(lam=QuadExt(lam_q), values=values)
    lam_f = float(lam)
    if lam_f < 2:
        raise ValueError("ladder harmonic functions need lam >= 2")
    r = (lam_f + (lam_f * lam_f - 4.0) ** 0.5) / 2.0
    return HarmonicAssignment(lam=lam_f, values={n: r ** float(n) for n in range(fam.lo, fam.hi + 1)})


@dataclass(frozen=True)
class TruncatedHarmonicResult:
    """Solution of the interior harmonic system on a finite truncation."""

    lam: float
    values: dict
    positive: bool
    nonpositive_vertices: tuple
    max_interior_residual: float

    def assignment(self) -> HarmonicAssignment:
        if not self.positive:
            raise ValueError(f"solution not positive at {self.nonpositive_vertices}")
        return HarmonicAssignment(lam=self.lam, values=self.values)


def harmonic_truncated(g: BipartiteConfigGraph, lam, boundary: Mapping) -> TruncatedHarmonicResult:
    """Solve (A h)(v) = lam h(v) on interior vertices with fixed boundary.

    boundary maps the designated boundary vertices to their (positive)
    values; every other vertex is interior.  Small systems use a direct
    dense solve, larger ones conjugate gradients.  A singular system
    raises; loss of positivity is reported, not raised.
    """
    lam = float(lam)
    for v, x in boundary.items():
        if v not in g.vertices():
            raise ValueError(f"boundary vertex {v} not in graph")
        if not x > 0:
            raise ValueError(f"boundary value at {v} must be positive")
    interior = sorted(v for v in g.vertices() if v not in boundary)
    if not interior:
        values = {v: float(x) for v, x in boundary.items()}
        return TruncatedHarmonicResult(lam, values, True, (), 0.0)
    idx = {v: k for k, v in enumerate(interior)}
    n = len(interior)
    rhs = np.zeros(n)
    mat = np.zeros((n, n))
    for v in interior:
        k = idx[v]
        mat[k, k] -= lam
        for _, w in g.incident(v):
            if w in idx:
                mat[k, idx[w]] += 1.0
            else:
                rhs[k] -= float(boundary[w])
    if n <= DENSE_SOLVE_LIMIT:
        try:
            sol = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"degenerate truncation: interior system singular ({exc})") from exc
    else:
        sol = _conjugate_gradient(mat, rhs)
    values = {v: float(x) for v, x in boundary.items()}
    values.update({v: float(sol[idx[v]]) for v in interior})
    adj = apply_adjacency(g, values)
    resid = max(abs(adj[v] - lam * values[v]) for v in interior)
    bad = tuple(v for v in interior if not values[v] > 0)
    return TruncatedHarmonicResult(lam, values, not bad, bad, float(resid))


def _conjugate_gradient(mat: np.ndarray, rhs: np.ndarray,
                        tol: float = 1e-12) -> np.ndarray:
    """Solve the symmetric interior system iteratively.

    lam*I - A_interior is positive definite whenever lam clears the window's
    interior spectral radius, which holds for every lam >= 2 truncation of a
    bounded-valence graph; flipping signs makes plain CG applicable.
    """
    a = -mat  # lam*I - A
    b = -rhs
    x = np.zeros_like(b)
    r = b - a @ x
    p = r.copy()
    rs = float(r @ r)
    scale = max(float(np.max(np.abs(b))), 1.0)
    for _ in range(2 * len(b) + 100):
        ap = a @ p
        denom = float(p @ ap)
        if denom <= 0:
            raise ValueError("degenerate truncation: interior system not definite")
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r @ r)
        if rs_new ** 0.5 <= tol * scale:
            return x
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise ConvergenceError("conjugate gradient stalled", rs ** 0.5)


@dataclass(frozen=True)
class HarmonicReport:
    """Relative residuals |A h - lam h| / h, vertex by vertex."""

    passes: bool
    max_residual: float
    per_vertex: dict
    skipped: tuple

    def worst(self):
        if not self.per_vertex:
            return None
        return max(self.per_vertex, key=lambda v: self.per_vertex[v])


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
    return HarmonicReport(passes=worst <= tol, max_residual=worst,
                          per_vertex=per, skipped=tuple(sorted(boundary)))


def lambda_zero(g: BipartiteConfigGraph, boundary: Mapping, tol: float = 1e-6) -> float:
    """Bisect for the least lam in [2, valence_bound] with a positive truncated solve.

    Existence of positive harmonic functions for all large lam is taken as
    given for bounded-valence graphs; this only locates the numerical
    threshold on the window at hand.
    """
    lo, hi = 2.0, float(g.valence_bound)

    def positive(lam: float) -> bool:
        try:
            return harmonic_truncated(g, lam, boundary).positive
        except ValueError:
            return False

    if positive(lo):
        return lo
    if not positive(hi):
        raise ValueError(f"no positive solve up to valence bound {hi}")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return hi
