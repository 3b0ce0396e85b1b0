"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy Generator and returns plain vertex arrays;
the same seed gives the same inputs on every platform numpy supports.
Nothing here imports curvejoin, so a change to the library can never
change the benchmark's inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def random_walk(rng, m: int, d: int, step: float, start=None) -> np.ndarray:
    """m vertices of a Gaussian random walk; the first step is zero."""
    if start is None:
        start = rng.normal(size=d) * 2.0
    steps = rng.normal(size=(m, d)) * step
    steps[0] = 0.0
    return np.asarray(start, dtype=np.float64) + np.cumsum(steps, axis=0)


def perturbed(rng, v: np.ndarray, amp: float) -> np.ndarray:
    """Copy of v with every vertex moved by at most amp (Frechet <= amp)."""
    offs = rng.normal(size=v.shape)
    norms = np.linalg.norm(offs, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v + offs / norms * rng.uniform(0.0, amp, size=(len(v), 1))


def densified(v: np.ndarray, max_edge: float) -> np.ndarray:
    """The same polyline with every edge longer than max_edge subdivided."""
    pieces = [v[:1]]
    for a, b in zip(v[:-1], v[1:]):
        nseg = max(1, math.ceil(float(np.linalg.norm(b - a)) / max_edge))
        ts = np.arange(1, nseg + 1, dtype=np.float64) / nseg
        pieces.append(a + ts[:, None] * (b - a))
    return np.concatenate(pieces, axis=0)


def clustered(rng, clusters: int, per_cluster: int, d: int, r: float, m: int, ring: str):
    """Clusters of near-duplicates, each with one borderline ring curve.

    Every copy stays within 0.02*r of its cluster center, so copy-copy
    pairs are Near at radius r. A ring curve moves the center by exactly
    2r, either at the last vertex ("last-vertex") or as a whole
    ("translate"): the endpoint gap keeps it Far from every member while
    it still collides in coarse grids. Clusters sit 100*r apart along the
    first axis. Returns (curves, cluster centers, analytic Near pairs).
    """
    curves, centers, truth = [], [], set()
    for ci in range(clusters):
        start = np.zeros(d)
        start[0] = ci * 100.0 * r
        center = random_walk(rng, m, d, step=3.0 * r, start=start)
        centers.append(center)
        first = len(curves)
        for _ in range(per_cluster):
            curves.append(perturbed(rng, center, 0.02 * r))
        members = range(first, len(curves))
        truth.update((a, b) for a in members for b in members if a < b)
        v = center.copy()
        if ring == "translate":
            v[:, -1] += 2.0 * r
        else:
            v[-1, -1] += 2.0 * r
        curves.append(v)
    return curves, centers, truth


def bridge_walk(rng, m: int, spread: float, step: float, end: np.ndarray) -> np.ndarray:
    """A 2-d random walk from near the origin to near `end`.

    It starts within about `spread` of the origin; its Gaussian steps are
    tilted so it ends within about `spread` of `end`.
    """
    a = rng.normal(size=2) * spread
    b = end + rng.normal(size=2) * spread
    steps = rng.normal(size=(m - 1, 2)) * step
    drift = (b - a - steps.sum(axis=0)) / (m - 1)
    return a + np.vstack([np.zeros(2), np.cumsum(steps + drift, axis=0)])


def notched(rng, v: np.ndarray, gap: float) -> np.ndarray:
    """Copy of v with one interior vertex pushed out by `gap`.

    The push runs along the outer bisector of the vertex's two edges, so
    the moved vertex is `gap` away from both edges: at gap just above r
    the pair is Far, yet every simplified check stays inconclusive and
    only the full-radius negative filter or the exact decision settles it.
    """
    i = int(rng.integers(1, len(v) - 1))
    w1, w2 = v[i - 1] - v[i], v[i + 1] - v[i]
    u = -(w1 / np.linalg.norm(w1) + w2 / np.linalg.norm(w2))
    if np.linalg.norm(u) < 1e-9:  # straight through: push sideways
        u = np.array([-w2[1], w2[0]])
    out = v.copy()
    out[i] += gap * u / np.linalg.norm(u)
    return out


# ---------------------------------------------------------------------------
# Input files, in the formats the library parses


def write_series(curves, path: Path) -> Path:
    """1-d series file: one curve per line, exact float round trip."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for v in curves:
            fh.write(",".join(repr(float(x)) for x in np.ravel(v)) + "\n")
    return Path(path)


def write_trajectories(curves, out_dir: Path) -> Path:
    """2-d trajectory files, one 'x y' pair per line, plus their list file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, v in enumerate(curves):
        name = f"curve_{i:05d}.txt"
        (out_dir / name).write_text(
            "".join(f"{float(x)!r} {float(y)!r}\n" for x, y in v), encoding="utf-8"
        )
        names.append(name)
    list_path = out_dir / "files.txt"
    list_path.write_text("".join(n + "\n" for n in names), encoding="utf-8")
    return list_path


def discrete_frechet(p: np.ndarray, q: np.ndarray) -> float:
    """Discrete Frechet distance by the anti-diagonal dynamic program.

    Used only to place the long-pair radii; it is independent of the
    library's implementation so the radii never depend on the code under
    test.
    """
    m, n = len(p), len(q)
    dist = np.sqrt(((p[:, None, :] - q[None, :, :]) ** 2).sum(axis=2))
    before = np.full(m, np.inf)  # diagonal k-2, indexed by the p index
    last = np.full(m, np.inf)  # diagonal k-1
    last[0] = dist[0, 0]
    for k in range(1, m + n - 1):
        i = np.arange(max(0, k - n + 1), min(k, m - 1) + 1)
        reach = last[i]  # from (i, j-1); inf where j-1 is off the diagonal
        up = i > 0
        reach[up] = np.minimum(reach[up], np.minimum(last[i[up] - 1], before[i[up] - 1]))
        cur = np.full(m, np.inf)
        cur[i] = np.maximum(dist[i, k - i], reach)
        before, last = last, cur
    return float(last[m - 1])
