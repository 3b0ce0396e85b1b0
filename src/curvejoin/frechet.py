"""Frechet distance decision procedures and the layered verification cascade.

Provides the exact discrete Frechet dynamic program, a free-space-diagram
decision procedure for the continuous distance, cheap one-sided filters
(endpoints, bounding boxes, equal-time and greedy traversals, a monotone
position scan), a simplification-based pre-check with error budgets, and
the cascade that combines them into a decisive Near/Far answer.

All comparisons against the radius are exact floating-point comparisons;
a pair at distance exactly r counts as Near. Every function here is a
pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Curve, bounding_box, simplify

__all__ = [
    "SimplVerifyParams",
    "Verdict",
    "VerificationOutcome",
    "bbox_filter",
    "decide_continuous",
    "discrete_frechet",
    "endpoints_filter",
    "equal_time_upper",
    "estimate_continuous",
    "greedy_upper",
    "negative_filter",
    "verify",
    "verify_heur",
    "verify_simpl",
]


class Verdict(Enum):
    NEAR = "near"
    FAR = "far"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class VerificationOutcome:
    """Result of one verification step.

    stage identifies the deciding step; witness, when present, is a
    monotone sequence of matched positions (in vertex-index coordinates)
    whose pairwise distances certify a Near verdict.
    """

    verdict: Verdict
    stage: str
    witness: list[tuple[float, float]] | None = None


def _check_dims(p: Curve, q: Curve) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def _dist(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# Discrete Frechet distance


def discrete_frechet(p: Curve, q: Curve) -> float:
    """Exact discrete Frechet distance via the O(|p|*|q|) dynamic program."""
    _check_dims(p, q)
    P, Q = p.vertices, q.vertices
    diff = P[:, None, :] - Q[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    m, n = dist.shape
    row = [0.0] * n
    row[0] = dist[0, 0]
    for j in range(1, n):
        row[j] = max(row[j - 1], dist[0, j])
    for i in range(1, m):
        di = dist[i]
        prev_diag = row[0]
        row[0] = max(row[0], di[0])
        for j in range(1, n):
            best = min(row[j], row[j - 1], prev_diag)
            prev_diag = row[j]
            row[j] = best if best > di[j] else di[j]
    return float(row[n - 1])


# ---------------------------------------------------------------------------
# Continuous Frechet decision (free-space diagram reachability)


def _ball_windows(
    w: np.ndarray, deltas: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the parameter window where ||w + t*delta|| <= r.

    Returns (lo, hi) clipped to [0, 1]; empty windows have lo > hi. The
    discriminant is evaluated as r^2*||delta||^2 minus the squared
    rejection of w (a sum of squared 2x2 minors); the naive b^2 - 4ac
    form cancels catastrophically when w is nearly parallel to delta and
    r is small.
    """
    n, d = w.shape
    aa = (deltas * deltas).sum(axis=1)
    wd = (w * deltas).sum(axis=1)
    gram = np.zeros(n)
    for u in range(d):
        for v in range(u + 1, d):
            minor = deltas[:, u] * w[:, v] - deltas[:, v] * w[:, u]
            gram += minor * minor
    disc = aa * (r * r) - gram

    lo = np.full(n, math.inf)
    hi = np.full(n, -math.inf)
    degen = aa == 0.0
    inside = degen & ((w * w).sum(axis=1) <= r * r)
    lo[inside] = 0.0
    hi[inside] = 1.0
    ok = ~degen & (disc >= 0.0)
    if ok.any():
        sq = np.sqrt(disc[ok])
        lo[ok] = np.maximum((-wd[ok] - sq) / aa[ok], 0.0)
        hi[ok] = np.minimum((-wd[ok] + sq) / aa[ok], 1.0)
    return lo, hi


def _point_curve_within(a: np.ndarray, Q: np.ndarray, r: float) -> bool:
    # max distance from a point to a polyline is attained at a vertex
    diff = Q - a
    return bool(np.sqrt((diff * diff).sum(axis=1)).max() <= r)


def decide_continuous(p: Curve, q: Curve, r: float) -> bool:
    """True iff the continuous Frechet distance of p and q is at most r.

    Monotone reachability over the free-space diagram, swept one row of
    cells at a time: O(|p|*|q|) time and O(min(|p|,|q|)) working memory.
    """
    _check_dims(p, q)
    if r < 0:
        raise ValueError("radius must be >= 0")
    P, Q = p.vertices, q.vertices
    if _dist(P[0], Q[0]) > r or _dist(P[-1], Q[-1]) > r:
        return False
    if len(P) == 1:
        return _point_curve_within(P[0], Q, r)
    if len(Q) == 1:
        return _point_curve_within(Q[0], P, r)
    if len(Q) > len(P):
        P, Q = Q, P  # the scan state is sized by the shorter curve

    m, n = len(P), len(Q)
    q_starts, q_deltas = Q[:-1], Q[1:] - Q[:-1]
    p_deltas = P[1:] - P[:-1]

    # Free intervals on the current horizontal grid line (p-parameter = i):
    # per q-edge j, the s-range where vertex P[i] is within r of the edge.
    hlo, hhi = _ball_windows(q_starts - P[0], q_deltas, r)

    # Entry points (smallest reachable parameter) on that line; None = blocked.
    entry: list[float | None] = [None] * (n - 1)
    entry[0] = 0.0
    for j in range(1, n - 1):
        if entry[j - 1] is not None and hhi[j - 1] == 1.0 and hlo[j] == 0.0:
            entry[j] = 0.0
        else:
            break  # the bottom line is reachable only as a contiguous prefix

    leftline: float | None = 0.0  # entry on the q-parameter = 0 boundary
    rightline: float | None = None  # entry on the q-parameter = n-1 boundary
    prev_vhi_last = None

    for i in range(m - 1):
        # Vertical boundaries of this cell row: per q-vertex j, the t-range
        # where the p-edge i passes within r of Q[j].
        vlo, vhi = _ball_windows(
            P[i] - Q, np.broadcast_to(p_deltas[i], Q.shape), r
        )

        if i > 0:
            if leftline is not None and prev_vhi0 == 1.0 and vlo[0] == 0.0:
                leftline = 0.0
            else:
                leftline = None

        hlo2, hhi2 = _ball_windows(q_starts - P[i + 1], q_deltas, r)

        left: float | None = leftline
        new_entry: list[float | None] = [None] * (n - 1)
        for j in range(n - 1):
            bot = entry[j]
            # top boundary of cell (i, j) = line i+1, column j
            if left is not None:
                if hlo2[j] <= hhi2[j]:
                    new_entry[j] = hlo2[j]
            elif bot is not None:
                e = bot if bot > hlo2[j] else hlo2[j]
                if e <= hhi2[j]:
                    new_entry[j] = e
            # right boundary of cell (i, j) = vertical boundary j+1
            if bot is not None:
                nxt = vlo[j + 1] if vlo[j + 1] <= vhi[j + 1] else None
            elif left is not None:
                e = left if left > vlo[j + 1] else vlo[j + 1]
                nxt = e if e <= vhi[j + 1] else None
            else:
                nxt = None
            left = nxt

        # Reachability on the q-parameter = n-1 boundary, carried across rows.
        candidates = []
        if left is not None:
            candidates.append(left)
        if (
            rightline is not None
            and prev_vhi_last == 1.0
            and vlo[n - 1] == 0.0
        ):
            candidates.append(vlo[n - 1])
        rightline = min(candidates) if candidates else None
        prev_vhi_last = vhi[n - 1]
        prev_vhi0 = vhi[0]
        entry = new_entry
        hlo, hhi = hlo2, hhi2

    if rightline is not None and prev_vhi_last == 1.0:
        return True
    # Travel along the final p-parameter = m-1 line toward the corner:
    # at_end[j] == the line's s = 1 point in column j is reachable.
    at_end = False
    for j in range(n - 1):
        arrived = entry[j] is not None
        continued = at_end and hlo[j] == 0.0
        at_end = (arrived or continued) and hhi[j] == 1.0
    return at_end


def estimate_continuous(
    p: Curve, q: Curve, rel_tol: float = 1e-4, max_iter: int = 40
) -> float:
    """Continuous Frechet distance by bisection on the decision procedure.

    The initial bracket is [max endpoint distance, discrete Frechet
    distance], both valid bounds on the continuous distance. Returns a
    radius certified Near, within rel_tol relative error (1e-12 floor).
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    _check_dims(p, q)
    lo = max(_dist(p.vertices[0], q.vertices[0]), _dist(p.vertices[-1], q.vertices[-1]))
    hi = discrete_frechet(p, q)
    if hi > lo and decide_continuous(p, q, lo):
        hi = lo
    for _ in range(max_iter):
        if hi - lo <= rel_tol * hi + 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if decide_continuous(p, q, mid):
            hi = mid
        else:
            lo = mid
    # At a knife-edge radius the floating-point decision can land Far by
    # an ulp; nudge upward until the returned value is certified Near.
    for bump in (0.0, 4e-16, 1e-14, 1e-12):
        est = hi * (1.0 + bump)
        if decide_continuous(p, q, est):
            return est
    return hi


# ---------------------------------------------------------------------------
# One-sided filters and heuristics


def endpoints_filter(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Far when either endpoint pair is farther than r; never Near."""
    if (
        _dist(p.vertices[0], q.vertices[0]) > r
        or _dist(p.vertices[-1], q.vertices[-1]) > r
    ):
        return VerificationOutcome(Verdict.FAR, "endpoints")
    return VerificationOutcome(Verdict.UNKNOWN, "endpoints")


def bbox_filter(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Far when corresponding bounding-box corners differ by more than r
    in any single coordinate; never Near."""
    bp, bq = bounding_box(p), bounding_box(q)
    if (
        np.abs(bp.lower - bq.lower).max() > r
        or np.abs(bp.upper - bq.upper).max() > r
    ):
        return VerificationOutcome(Verdict.FAR, "bbox")
    return VerificationOutcome(Verdict.UNKNOWN, "bbox")


def _curve_at(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate a polyline at fractional vertex indices (vectorized)."""
    if len(V) == 1:
        return np.broadcast_to(V[0], (len(u), V.shape[1]))
    i0 = np.clip(np.floor(u).astype(np.int64), 0, len(V) - 2)
    frac = (u - i0)[:, None]
    return V[i0] + frac * (V[i0 + 1] - V[i0])


def equal_time_upper(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Near when the uniform-speed simultaneous traversal stays within r.

    The pair distance is convex between breakpoints of the joint motion,
    so the exact maximum is attained at the union of both curves'
    normalized breakpoints. Never Far.
    """
    P, Q = p.vertices, q.vertices
    mp, mq = len(P) - 1, len(Q) - 1
    if mp == 0 and mq == 0:
        u_p = np.array([0.0])
        u_q = np.array([0.0])
    elif mp == 0:
        u_q = np.arange(mq + 1, dtype=np.float64)
        u_p = np.zeros_like(u_q)
    elif mq == 0:
        u_p = np.arange(mp + 1, dtype=np.float64)
        u_q = np.zeros_like(u_p)
    else:
        # merge the fractions i/mp and j/mq exactly over denominator mp*mq
        nums = np.union1d(np.arange(mp + 1, dtype=np.int64) * mq,
                          np.arange(mq + 1, dtype=np.int64) * mp)
        u_p = nums / float(mq)
        u_q = nums / float(mp)
    diff = _curve_at(P, u_p) - _curve_at(Q, u_q)
    dmax = float(np.sqrt((diff * diff).sum(axis=1)).max())
    if dmax <= r:
        witness = list(zip(u_p.tolist(), u_q.tolist()))
        return VerificationOutcome(Verdict.NEAR, "equal-time", witness)
    return VerificationOutcome(Verdict.UNKNOWN, "equal-time")


def greedy_upper(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Near when the greedy locally-closest traversal stays within r.

    From (i, j) the move among (i+1, j), (i, j+1), (i+1, j+1) with the
    smallest new pair distance is taken (ties: diagonal, then advancing p,
    then advancing q). A discrete traversal of max distance <= r bounds
    the discrete and hence the continuous distance. Never Far.
    """
    P, Q = p.vertices, q.vertices
    m, n = len(P), len(Q)
    i = j = 0
    witness = [(0.0, 0.0)]
    if _dist(P[0], Q[0]) > r:
        return VerificationOutcome(Verdict.UNKNOWN, "greedy")
    while i < m - 1 or j < n - 1:
        best = None
        best_d = math.inf
        for ni, nj in ((i + 1, j + 1), (i + 1, j), (i, j + 1)):
            if ni >= m or nj >= n:
                continue
            dd = _dist(P[ni], Q[nj])
            if dd < best_d:
                best, best_d = (ni, nj), dd
        if best_d > r:
            return VerificationOutcome(Verdict.UNKNOWN, "greedy")
        i, j = best
        witness.append((float(i), float(j)))
    return VerificationOutcome(Verdict.NEAR, "greedy", witness)


def _segment_free_window(a: np.ndarray, b0: np.ndarray, delta: np.ndarray, r: float):
    """Parameter window of one polyline edge within distance r of point a."""
    w = b0 - a
    aa = float((delta * delta).sum())
    if aa == 0.0:
        return (0.0, 1.0) if float((w * w).sum()) <= r * r else None
    wd = float((w * delta).sum())
    gram = 0.0
    for u in range(len(w)):
        for v in range(u + 1, len(w)):
            minor = delta[u] * w[v] - delta[v] * w[u]
            gram += minor * minor
    disc = aa * (r * r) - gram
    if disc < 0.0:
        return None
    sq = math.sqrt(disc)
    lo = max((-wd - sq) / aa, 0.0)
    hi = min((-wd + sq) / aa, 1.0)
    return (lo, hi) if lo <= hi else None


def _monotone_position_scan(A: np.ndarray, B: np.ndarray, r: float) -> bool:
    """True when every vertex of A admits a monotone match on polyline B.

    Maintains the earliest position on B (never decreasing) within r of
    each successive vertex of A; failure certifies that no continuous
    traversal can align the curves within r.
    """
    nb = len(B)
    if nb == 1:
        diff = A - B[0]
        return bool(np.sqrt((diff * diff).sum(axis=1)).max() <= r)
    deltas = B[1:] - B[:-1]
    cur = 0.0
    for a in A:
        e = min(int(cur), nb - 2)
        matched = False
        while e < nb - 1:
            win = _segment_free_window(a, B[e], deltas[e], r)
            if win is not None:
                start = max(cur, e + win[0])
                if start <= e + win[1]:
                    cur = start
                    matched = True
                    break
            e += 1
        if not matched:
            return False
    return True


def negative_filter(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Far when some vertex of one curve has no monotone match on the
    other's polyline; applied in both directions. Never Near."""
    if not _monotone_position_scan(p.vertices, q.vertices, r) or not (
        _monotone_position_scan(q.vertices, p.vertices, r)
    ):
        return VerificationOutcome(Verdict.FAR, "negative-filter")
    return VerificationOutcome(Verdict.UNKNOWN, "negative-filter")


# ---------------------------------------------------------------------------
# Decisive procedures


def verify_heur(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Run the upper-bound traversals and the negative scan in order,
    falling back to the exact free-space decision: always decisive."""
    for step in (equal_time_upper, greedy_upper, negative_filter):
        out = step(p, q, r)
        if out.verdict is not Verdict.UNKNOWN:
            return out
    verdict = Verdict.NEAR if decide_continuous(p, q, r) else Verdict.FAR
    return VerificationOutcome(verdict, "full-verify")


@dataclass(frozen=True)
class SimplVerifyParams:
    """Error budgets for the simplification pre-check at a given epsilon.

    The negative check runs on aggressively simplified curves at the
    enlarged radius r_minus; the positive check on gently simplified
    curves at the shrunk radius r_plus. Both checks are sound: the
    simplification error mu is repaid by the radius adjustment.
    """

    eps: float
    r: float
    r_prime: float
    mu_minus: float
    mu_plus: float
    r_minus: float
    r_plus: float

    @classmethod
    def for_radius(cls, r: float, eps: float) -> "SimplVerifyParams":
        if eps <= 0 or r <= 0:
            raise ValueError("eps and r must be > 0")
        r_prime = r / (1.0 + eps / 3.0)
        mu_minus = r * eps / 28.0
        mu_plus = r * eps / (28.0 * (1.0 + eps / 3.0))
        r_minus = r * (1.0 + eps / 14.0)
        r_plus = r * (3.0 * (1.0 + eps / 14.0) / (3.0 + eps))
        return cls(eps, r, r_prime, mu_minus, mu_plus, r_minus, r_plus)


def verify_simpl(p: Curve, q: Curve, r: float, eps: float) -> VerificationOutcome:
    """Decide via simplified copies when the error budget allows; the
    verdict may be Unknown when neither check succeeds."""
    par = SimplVerifyParams.for_radius(r, eps)
    stage = f"simpl-{eps:g}"
    coarse = verify_heur(simplify(p, par.mu_minus), simplify(q, par.mu_minus), par.r_minus)
    if coarse.verdict is Verdict.FAR:
        return VerificationOutcome(Verdict.FAR, stage)
    fine = verify_heur(simplify(p, par.mu_plus), simplify(q, par.mu_plus), par.r_plus)
    if fine.verdict is Verdict.NEAR:
        return VerificationOutcome(Verdict.NEAR, stage)
    return VerificationOutcome(Verdict.UNKNOWN, stage)


DEFAULT_EPS_LIST = (10.0, 1.0, 0.1)


def verify(
    p: Curve,
    q: Curve,
    r: float,
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST,
) -> VerificationOutcome:
    """The full decision cascade: endpoints, bounding boxes, simplified
    checks from coarsest to finest, then the heuristics with exact
    fallback. Always returns Near or Far."""
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be non-empty and strictly decreasing")
    out = endpoints_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    out = bbox_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    if r > 0:
        for eps in eps_list:
            out = verify_simpl(p, q, r, eps)
            if out.verdict is not Verdict.UNKNOWN:
                return out
    return verify_heur(p, q, r)
