"""Shared generators and checkers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from curvejoin import Curve, Dataset, ScoredCandidate, snap_signature
from curvejoin.lsh import _draw_grids


def curve1(cid: int, values) -> Curve:
    """1-D curve from a flat list of values."""
    return Curve(cid, np.asarray(values, dtype=np.float64).reshape(-1, 1))


def curve(cid: int, points) -> Curve:
    return Curve(cid, np.asarray(points, dtype=np.float64))


def random_walk_curve(rng, cid: int, m: int, d: int, step: float = 1.0,
                      start=None) -> Curve:
    if start is None:
        start = rng.normal(size=d) * 2.0
    steps = rng.normal(size=(m, d)) * step
    steps[0] = 0.0
    return Curve(cid, np.asarray(start) + np.cumsum(steps, axis=0))


def perturbed_copy(rng, c: Curve, cid: int, amp: float) -> Curve:
    """Copy of c with every vertex moved by at most amp (Frechet <= amp)."""
    offs = rng.normal(size=c.vertices.shape)
    norms = np.linalg.norm(offs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    offs = offs / norms * rng.uniform(0.0, amp, size=(len(c), 1))
    return Curve(cid, c.vertices + offs)


def random_pair(rng, d: int, m_max: int = 8):
    """A random curve pair plus a radius likely to sit near the boundary."""
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(1, m_max + 1))
    p = random_walk_curve(rng, 0, m, d, step=float(rng.uniform(0.2, 2.0)))
    if rng.random() < 0.5:
        q = perturbed_copy(rng, p, 1, amp=float(rng.uniform(0.05, 1.0)))
        if n < m:
            q = Curve(1, q.vertices[sorted(rng.choice(m, size=n, replace=False))])
    else:
        q = random_walk_curve(rng, 1, n, d, step=float(rng.uniform(0.2, 2.0)),
                              start=p.vertices[0] + rng.normal(size=d) * 0.3)
    return p, q


def assert_valid_witness(p: Curve, q: Curve, r: float, witness) -> None:
    """A witness must be a monotone traversal from start to start-to-end
    whose matched positions never exceed distance r, with no curve vertex
    strictly inside any step (so the max over steps is at the endpoints)."""
    assert witness, "empty witness"
    assert witness[0] == (0.0, 0.0)
    assert witness[-1] == (float(len(p) - 1), float(len(q) - 1))
    for (a1, b1), (a2, b2) in zip(witness, witness[1:]):
        assert a2 >= a1 and b2 >= b1, "witness not monotone"
        assert a2 > a1 or b2 > b1, "witness stalls"
        assert a1 == a2 or math.floor(a1) + 1 >= a2, "vertex inside step (p)"
        assert b1 == b2 or math.floor(b1) + 1 >= b2, "vertex inside step (q)"
    for a, b in witness:
        pa = _eval(p.vertices, a)
        qb = _eval(q.vertices, b)
        assert np.linalg.norm(pa - qb) <= r + 1e-12


def _eval(V: np.ndarray, u: float) -> np.ndarray:
    i0 = min(int(math.floor(u)), len(V) - 2) if len(V) > 1 else 0
    i0 = max(i0, 0)
    frac = u - i0
    if len(V) == 1:
        return V[0]
    return V[i0] + frac * (V[i0 + 1] - V[i0])


def dataset_of(curves) -> Dataset:
    return Dataset(list(curves))


def clustered_dataset(rng, clusters: int, per_cluster: int, d: int, r: float,
                      m: int = 6, with_ring: bool = True,
                      ring: str = "translate"):
    """Clusters of near-duplicates, optionally ringed by borderline curves.

    Within a cluster every copy stays within 0.02*r of its center, so
    copy-copy pairs are Near at radius r. The ring curve shifts the center
    by exactly 2r, either as a whole ("translate") or at the final vertex
    only ("last-vertex"); both keep it Far from every cluster member via
    the endpoint gap, yet close enough to collide in coarse grids. The
    last-vertex style collides far more often, which matters for narrow
    1-d grids. Clusters sit 100*r apart. Returns the dataset and the
    analytic Near pair set."""
    curves = []
    truth = set()
    cid = 0
    for ci in range(clusters):
        start = np.zeros(d)
        start[0] = ci * 100.0 * r
        center = random_walk_curve(rng, -1, m, d, step=3.0 * r, start=start)
        members = []
        for _ in range(per_cluster):
            curves.append(perturbed_copy(rng, center, cid, amp=0.02 * r))
            members.append(cid)
            cid += 1
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                truth.add((members[a], members[b]))
        if with_ring:
            vertices = center.vertices.copy()
            if ring == "translate":
                vertices[:, -1] += 2.0 * r
            else:
                vertices[-1, -1] += 2.0 * r
            curves.append(Curve(cid, vertices))
            cid += 1
    return Dataset(curves), truth


def discrete_frechet_brute(p: Curve, q: Curve) -> float:
    """Oracle: minimize the max pair distance over all monotone traversals.

    Enumerates traversals recursively without memoization, so it is
    exponential; guarded to |p|*|q| <= 64.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    m, n = len(p), len(q)
    if m * n > 64:
        raise ValueError(f"brute force guard: |p|*|q| = {m * n} > 64")
    diff = p.vertices[:, None, :] - q.vertices[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

    def walk(i: int, j: int) -> float:
        here = dist[i, j]
        if i == m - 1 and j == n - 1:
            return here
        best = math.inf
        if i + 1 < m and j + 1 < n:
            best = walk(i + 1, j + 1)
        if i + 1 < m:
            best = min(best, walk(i + 1, j))
        if j + 1 < n:
            best = min(best, walk(i, j + 1))
        return max(here, best)

    return float(walk(0, 0))


class DictIndex:
    """Oracle for the key-matrix index: one dict of id lists per table.

    Keys come from the Python-int tensored combine, one (i, j) pair at a
    time, and scoring counts collisions with dict lookups.
    """

    def __init__(self, dataset: Dataset, params):
        self.params = params
        self.grids = _draw_grids(params)
        self.tables = [dict() for _ in range(params.L)]
        for c in dataset:
            for t, key in enumerate(self.keys(c)):
                self.tables[t].setdefault(key, []).append(c.id)

    def keys(self, p: Curve) -> list[int]:
        lambda1, lambda2, hasher = self.grids
        states1 = [hasher.fold_state(snap_signature(g, p)) for g in lambda1]
        states2 = [hasher.fold_state(snap_signature(g, p), lead_separator=True)
                   for g in lambda2]
        return [hasher.finalize(hasher.combine(s1, s2)[0])
                for s1 in states1 for s2 in states2]

    def query_scores(self, q: Curve) -> list:
        counts: dict[int, int] = {}
        for t, key in enumerate(self.keys(q)):
            for cid in self.tables[t].get(key, ()):
                counts[cid] = counts.get(cid, 0) + 1
        L = self.params.L
        return [ScoredCandidate(cid, n, n / L)
                for cid, n in sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))]
