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

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .quadfield import QuadExt, root_plus


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


def perron_pair(g: BipartiteConfigGraph) -> HarmonicAssignment:
    """Dominant eigenpair (lam, h) with h > 0, normalized to max value 1.

    lam and the vertex v0 with the largest Perron entry come from a
    symmetric eigensolver; h is then the truncated solve with h(v0) = 1 as
    its only boundary value.  Strict interlacing gives lam > rho(A - v0) on
    a connected graph, so the Perron-Frobenius verdict of that solve holds
    and every value is relative-accurate.  A Perron entry below the float
    range (about 2.2e-308 of the largest) raises ValueError.
    """
    if not g.edges:
        raise ValueError("graph needs at least one edge")
    a, order = g.adjacency_matrix()
    eigvals, eigvecs = np.linalg.eigh(a)
    v0 = order[int(np.argmax(np.abs(eigvecs[:, -1])))]
    return harmonic_truncated(g, float(eigvals[-1]), {v0: 1.0}).assignment()


def harmonic_closed_form(fam: LadderFamily, lam) -> HarmonicAssignment:
    """h(n) = r^n on the ladder window, r the larger root of r + 1/r = lam.

    Exact (quadratic-field) values when lam is an int or a Fraction; floats
    when lam is a float or irrational.  The exact heights cost one field
    multiply per vertex: r^lo once, then h(n + 1) = h(n) * r.  Below lam = 2
    the bi-infinite path carries no positive harmonic function, so that is
    a domain error, as is a lam that is not finite.  At lam = 2 the
    function is constant 1.
    """
    try:
        lam_q = None if isinstance(lam, float) else Fraction(lam)
    except (TypeError, ValueError):
        lam_q = None
    if lam_q is not None:
        if lam_q < 2:
            raise ValueError("ladder harmonic functions need lam >= 2")
        if lam_q == 2:
            values = {n: QuadExt(1) for n in range(fam.lo, fam.hi + 1)}
            return HarmonicAssignment(lam=QuadExt(2), values=values)
        r = root_plus(lam_q)
        values = {fam.lo: r ** fam.lo}
        for n in range(fam.lo + 1, fam.hi + 1):
            values[n] = values[n - 1] * r
        return HarmonicAssignment(lam=QuadExt(lam_q), values=values)
    lam_f = float(lam)
    if not (math.isfinite(lam_f) and lam_f >= 2):
        raise ValueError(f"ladder harmonic functions need a finite lam >= 2, got {lam_f}")
    r = (lam_f + (lam_f * lam_f - 4.0) ** 0.5) / 2.0
    try:
        values = {n: r ** float(n) for n in range(fam.lo, fam.hi + 1)}
    except OverflowError as exc:
        raise ValueError(f"heights r^n overflow a float on [{fam.lo}, {fam.hi}]") from exc
    return HarmonicAssignment(lam=lam_f, values=values)


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


def _interior_system(g: BipartiteConfigGraph, boundary: Mapping) -> tuple:
    """(interior vertices, A restricted to them, boundary sum at each)."""
    if not boundary:
        raise ValueError("truncated solve needs at least one boundary vertex")
    for v, x in boundary.items():
        if v not in g.vertices():
            raise ValueError(f"boundary vertex {v} not in graph")
        if not x > 0:
            raise ValueError(f"boundary value at {v} must be positive")
    interior = sorted(v for v in g.vertices() if v not in boundary)
    idx = {v: k for k, v in enumerate(interior)}
    a_int = np.zeros((len(interior), len(interior)))
    coupling = np.zeros(len(interior))
    for v in interior:
        for _, w in g.incident(v):
            if w in idx:
                a_int[idx[v], idx[w]] += 1.0
            else:
                coupling[idx[v]] += float(boundary[w])
    return interior, a_int, coupling


def harmonic_truncated(g: BipartiteConfigGraph, lam, boundary: Mapping) -> TruncatedHarmonicResult:
    """Solve (A h)(v) = lam h(v) on interior vertices with fixed boundary.

    boundary maps the designated boundary vertices (at least one) to their
    positive values; every other vertex is interior.  The interior system
    is (lam I - A_int) h = (boundary sums).  By Perron-Frobenius theory for
    M-matrices, on a connected graph its solution is positive exactly when
    lam I - A_int is positive definite, so `positive` comes from a Cholesky
    factorization and does not depend on how small the solution is.  A
    singular system raises; loss of positivity is reported, not raised.  A
    positive solution with a value below the float range
    (sys.float_info.min, about 2.2e-308) raises ValueError rather than
    return underflowed values.
    """
    lam = float(lam)
    interior, mat, coupling = _interior_system(g, boundary)
    mat *= -1.0  # lam I - A_int, formed in place
    mat[np.diag_indices_from(mat)] += lam
    try:
        np.linalg.cholesky(mat)
        positive = True
    except np.linalg.LinAlgError:
        positive = False
    try:
        sol = np.linalg.solve(mat, coupling)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate truncation: interior system singular ({exc})") from exc
    if positive and np.any(sol < sys.float_info.min):
        raise ValueError(f"positive solution underflows: smallest value {sol.min():.3g} "
                         f"is below the float range ({sys.float_info.min:.3g})")
    values = {v: float(x) for v, x in boundary.items()}
    values.update(zip(interior, sol.tolist()))
    adj = apply_adjacency(g, values)
    resid = max((abs(adj[v] - lam * values[v]) for v in interior), default=0.0)
    bad = tuple(v for v in interior if not values[v] > 0)
    return TruncatedHarmonicResult(lam, values, positive, bad, float(resid))


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


def lambda_zero(g: BipartiteConfigGraph, boundary: Mapping) -> float:
    """Least lam >= 2 from which truncated solves with this boundary are positive.

    By the Perron-Frobenius verdict of harmonic_truncated, a solve is
    positive exactly when lam > rho(A_int), so this is max(2, rho(A_int)),
    read off a symmetric eigensolver.  At lam = rho(A_int) > 2 itself the
    system is singular; every larger lam is positive, though a solve can
    still raise when its values fall below the float range.
    """
    interior, a_int, _ = _interior_system(g, boundary)
    rho = np.linalg.eigvalsh(a_int)[-1] if interior else 0.0
    return max(2.0, float(rho))
