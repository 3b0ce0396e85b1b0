"""Monte-Carlo checks of the grid-hash collision laws and report analysis.

The estimators here bypass tensoring and key folding on purpose: trials
draw raw grid shifts and compare full signatures, so they measure
the hash family itself rather than the engineering layers on top of it.

Three reference quantities accompany each estimate:

- union_lower_bound: max(0, 1 - 2*m*d_dF/delta)^k, a hard guarantee
  obtained by a union bound over the m vertices of the longer curve.
- independence_estimate: (1 - 2*d_dF/delta)^(m*k), the value one gets by
  pretending per-vertex cell breaks are independent. Diagnostic only.
- noise_lower_bound: max(0, 1/4 - d_dF/(2*delta))^m for the variant that
  perturbs every vertex with uniform noise in [-delta/2, delta/2).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, check_positive
from .engine import JoinReport
from .frechet import discrete_frechet
from .lsh import snap_signature

__all__ = [
    "BoundsRow",
    "CollisionEstimate",
    "ScoreHistogram",
    "bounds_csv",
    "bounds_report",
    "collision_probability",
    "noisy_collision_probability",
    "score_histogram",
]


@dataclass(frozen=True)
class CollisionEstimate:
    """Empirical collision frequency with the applicable reference bounds."""

    trials: int
    collisions: int
    p_hat: float
    stderr: float
    union_lower_bound: float | None = None
    independence_estimate: float | None = None
    noise_lower_bound: float | None = None


def _estimate(trials: int, hits: int, **bounds) -> CollisionEstimate:
    p_hat = hits / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return CollisionEstimate(trials, hits, p_hat, stderr, **bounds)


def _signatures_equal(shifts: np.ndarray, delta: float, p: Curve, q: Curve) -> bool:
    """Whether p and q snap to the same signature on every grid."""
    cp, kp = snap_signature(shifts, delta, p)
    cq, kq = snap_signature(shifts, delta, q)
    return all(np.array_equal(a[ka], b[kb]) for a, ka, b, kb in zip(cp, kp, cq, kq))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def collision_probability(
    p: Curve, q: Curve, delta: float, k: int, trials: int, seed: int
) -> CollisionEstimate:
    """Fraction of random k-grid signatures on which p and q agree.

    Each trial draws k fresh grid shifts and compares the two snapped
    signatures verbatim. The union lower bound is hard; the independence
    estimate assumes per-vertex breaks are independent and is reported
    for comparison only.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_positive("delta", delta)
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = _rng(seed)
    hits = 0
    for _ in range(trials):
        shifts = rng.uniform(0.0, delta, size=(k, p.dim))
        if _signatures_equal(shifts, delta, p, q):
            hits += 1
    ddf = float(discrete_frechet(p, q))
    m = max(len(p), len(q))
    union = max(0.0, 1.0 - 2.0 * m * ddf / delta) ** k
    indep = min(1.0, max(0.0, 1.0 - 2.0 * ddf / delta) ** (m * k))
    return _estimate(
        trials, hits, union_lower_bound=union, independence_estimate=indep
    )


def noisy_collision_probability(
    p: Curve, q: Curve, delta: float, trials: int, seed: int
) -> CollisionEstimate:
    """Collision frequency when every vertex is perturbed before hashing.

    One-dimensional curves only. Per trial both curves receive fresh
    independent uniform noise in [-delta/2, delta/2) per vertex and are
    snapped to a fresh single grid.
    """
    if p.dim != 1 or q.dim != 1:
        raise ValueError("the noisy scheme is defined for 1-d curves only")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_positive("delta", delta)
    rng = _rng(seed)
    half = delta / 2.0
    hits = 0
    for _ in range(trials):
        np_p = Curve(0, p.vertices + rng.uniform(-half, half, size=p.vertices.shape))
        np_q = Curve(1, q.vertices + rng.uniform(-half, half, size=q.vertices.shape))
        if _signatures_equal(rng.uniform(0.0, delta, size=(1, 1)), delta, np_p, np_q):
            hits += 1
    ddf = float(discrete_frechet(p, q))
    m = max(len(p), len(q))
    bound = max(0.0, 0.25 - ddf / (2.0 * delta)) ** m
    return _estimate(trials, hits, noise_lower_bound=bound)


@dataclass(frozen=True)
class BoundsRow:
    """One sampled pair: estimate, bounds, and violation flags.

    hard_violation must never fire; below_independence may, because the
    independence estimate is a heuristic."""

    id_a: int
    id_b: int
    d_df: float
    estimate: CollisionEstimate
    hard_violation: bool
    below_independence: bool


def bounds_report(
    pairs, delta: float, k: int, trials: int, seed: int
) -> list[BoundsRow]:
    """Estimate collision probability for each curve pair and flag bound
    violations (3 standard errors of slack)."""
    rows = []
    for i, (p, q) in enumerate(pairs):
        est = collision_probability(p, q, delta, k, trials, seed + i)
        slack = 3.0 * est.stderr
        rows.append(
            BoundsRow(
                p.id,
                q.id,
                float(discrete_frechet(p, q)),
                est,
                bool(est.p_hat < est.union_lower_bound - slack),
                bool(est.p_hat < est.independence_estimate - slack),
            )
        )
    return rows


def bounds_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "id_a",
            "id_b",
            "d_df",
            "trials",
            "collisions",
            "p_hat",
            "stderr",
            "union_lower_bound",
            "independence_estimate",
            "hard_violation",
            "below_independence",
        ]
    )
    for row in rows:
        e = row.estimate
        writer.writerow(
            [
                row.id_a,
                row.id_b,
                repr(row.d_df),
                e.trials,
                e.collisions,
                repr(e.p_hat),
                repr(e.stderr),
                repr(e.union_lower_bound),
                repr(e.independence_estimate),
                row.hard_violation,
                row.below_independence,
            ]
        )
    return buf.getvalue()


@dataclass(frozen=True)
class ScoreHistogram:
    """Score distribution of candidate pairs, split by ground truth.

    Fractions are normalized per class, so each series sums to 1 when its
    class is non-empty."""

    edges: tuple
    tp_fraction: tuple
    fp_fraction: tuple
    tp_scores: tuple
    fp_scores: tuple


def score_histogram(report: JoinReport, truth, bins: int = 20) -> ScoreHistogram:
    """Split candidate-pair scores into true and false positives."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    tru = set()
    for a, b in truth:
        tru.add((a, b) if a <= b else (b, a))
    pair_score: dict[tuple[int, int], float] = {}
    for rec in report.queries:
        for dec in rec.result.kept + rec.result.rejected:
            a, b = rec.query_id, dec.curve_id
            pair = (a, b) if a <= b else (b, a)
            pair_score.setdefault(pair, dec.score)
    tp = sorted(s for pr, s in pair_score.items() if pr in tru)
    fp = sorted(s for pr, s in pair_score.items() if pr not in tru)
    edges = np.linspace(0.0, 1.0, bins + 1)
    tp_counts, _ = np.histogram(tp, bins=edges)
    fp_counts, _ = np.histogram(fp, bins=edges)
    tp_frac = tp_counts / len(tp) if tp else tp_counts.astype(float)
    fp_frac = fp_counts / len(fp) if fp else fp_counts.astype(float)
    return ScoreHistogram(
        tuple(edges), tuple(tp_frac), tuple(fp_frac), tuple(tp), tuple(fp)
    )
