"""Frechet distance decision procedures and the layered verification cascade.

Provides the exact discrete Frechet dynamic program, a free-space-diagram
decision procedure for the continuous distance, cheap one-sided filters
(endpoints, bounding boxes, equal-time and greedy traversals, a monotone
position scan), a simplification-based pre-check with error budgets, and
the cascade that combines them into a decisive Near/Far answer.

The cascade's one-sided steps run on Python floats: on curves of a few
dozen vertices numpy's per-call overhead costs more than the arithmetic.
They read each curve's prepared view (see curves.Curve): its float
vertices, edge deltas and squared edge lengths, bounding box and
coordinate columns are computed once per curve, and a simplification that
drops no vertex is the curve itself, so every step and every eps level of
a pair reads the same prepared data. Every vertex distance is
curves._dist, the square root of the squared coordinate differences added
in coordinate order, and the array code that shares a test with it
(decide_continuous's block window kernel, exact_join's endpoint arrays)
sums in the same order, so the two agree bit for bit. The negative filter
is a lazy scan, O(m + n) edge windows per direction; the block window
kernel serves only decide_continuous, where a wide band visits many cells
per row.

All comparisons against the radius are exact floating-point comparisons;
a pair at distance exactly r counts as Near. Every function here is a
pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import Curve, _dist, _dists, bounding_box, check_positive, simplify

__all__ = [
    "SimplVerifyParams",
    "SimplifiedCopies",
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


def _check_radius(r: float) -> None:
    check_positive("radius", r, allow_zero=True)


def _check_pair(p: Curve, q: Curve, r: float) -> None:
    """The input check of every public cascade step: equal dimensions and a
    finite radius >= 0."""
    _check_dims(p, q)
    _check_radius(r)


# ---------------------------------------------------------------------------
# Discrete Frechet distance


def discrete_frechet(p: Curve, q: Curve) -> float:
    """Exact discrete Frechet distance via the O(|p|*|q|) dynamic program."""
    _check_dims(p, q)
    P, Q = p.vertices, q.vertices
    dist = _dists(P[:, None, :] - Q[None, :, :])
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


# Rows of free-space windows computed per kernel call: working memory is
# O(_BLOCK * min(|p|, |q|)), and a Far decision wastes at most one block.
_BLOCK = 64
# Columns read per step once a row's sweep runs past its last reachable entry.
_CHUNK = 16


def _ball_windows(starts, deltas, points, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Per (edge, point) pair, the parameter window of the edge within r of
    the point: the t in [0, 1] with ||start + t*delta - point|| <= r.

    starts, deltas and points are per-coordinate sequences of arrays that
    broadcast to one shape, the shape of the returned (lo, hi); empty
    windows have lo > hi. The discriminant is evaluated as r^2*||delta||^2
    minus the squared rejection of w = start - point (a sum of squared 2x2
    minors); the naive b^2 - 4ac form cancels catastrophically when w is
    nearly parallel to delta and r is small. Sums run over the coordinates
    in order, so each window is bit-identical whatever the block shape.
    decide_continuous is this block kernel's one caller: its wide bands
    visit many cells per row. The negative filter's lazy scan computes
    one window at a time with the scalar twin _ball_window.
    """
    w = [s - x for s, x in zip(starts, points)]
    d = len(w)
    aa = deltas[0] * deltas[0]
    wd = w[0] * deltas[0]
    for u in range(1, d):
        aa = aa + deltas[u] * deltas[u]
        wd = wd + w[u] * deltas[u]
    gram = 0.0
    for u in range(d):
        for v in range(u + 1, d):
            minor = deltas[u] * w[v] - deltas[v] * w[u]
            gram = gram + minor * minor
    disc = aa * (r * r) - gram
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)  # NaN exactly where not disc >= 0
        nwd = -wd
        lo = np.maximum((nwd - sq) / aa, 0.0)
        hi = np.minimum((nwd + sq) / aa, 1.0)
    empty = np.isnan(sq)
    degen = aa == 0.0
    if degen.any():
        ww = w[0] * w[0]
        for u in range(1, d):
            ww = ww + w[u] * w[u]
        lo = np.where(degen, 0.0, lo)
        hi = np.where(degen, 1.0, hi)
        empty = np.where(degen, ~(ww <= r * r), empty)
    np.copyto(lo, math.inf, where=empty)
    np.copyto(hi, -math.inf, where=empty)
    return lo, hi


def _ball_window(start, delta, aa: float, point, r: float) -> tuple[float, float]:
    """The window of one edge within r of one point: _ball_windows'
    arithmetic, operation for operation. The edge is its start, its delta
    (end - start) and its squared length aa, the point a float sequence;
    a curve's prepared edges supply delta and aa."""
    w = [s - x for s, x in zip(start, point)]
    wd = w[0] * delta[0]
    d = len(w)
    for u in range(1, d):
        wd = wd + w[u] * delta[u]
    if aa == 0.0:
        ww = w[0] * w[0]
        for u in range(1, d):
            ww = ww + w[u] * w[u]
        return (0.0, 1.0) if ww <= r * r else (math.inf, -math.inf)
    gram = 0.0
    for u in range(d):
        for v in range(u + 1, d):
            minor = delta[u] * w[v] - delta[v] * w[u]
            gram = gram + minor * minor
    disc = aa * (r * r) - gram
    if not disc >= 0.0:
        return math.inf, -math.inf
    sq = math.sqrt(disc)
    nwd = -wd
    # np.maximum and np.minimum, NaN and the sign of zero included
    lo = (nwd - sq) / aa
    hi = (nwd + sq) / aa
    return 0.0 if lo <= 0.0 else lo, 1.0 if hi >= 1.0 else hi


def _point_curve_within(a, Q, r: float) -> bool:
    """Whether every vertex of Q (float sequences) is within r of point a;
    the largest distance from a point to a polyline is at a vertex."""
    return all(_dist(a, b) <= r for b in Q)


def check_eps_list(eps_list) -> None:
    """Raise ValueError unless eps_list is a non-empty, strictly decreasing
    sequence of finite values > 0."""
    for eps in eps_list:
        check_positive("eps", eps)
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError(
            f"eps_list must be non-empty and strictly decreasing, got {tuple(eps_list)}")


def decide_continuous(p: Curve, q: Curve, r: float) -> bool:
    """True iff the continuous Frechet distance of p and q is at most r.

    Monotone reachability over the free-space diagram (Alt and Godau),
    swept one row of cells at a time. Each row is swept only from its first
    reachable cell until propagation dies past its last one, and the sweep
    answers Far as soon as nothing on the next line, the left boundary or
    the right boundary is reachable. The free-space windows come from a
    vectorized kernel run on fixed blocks of rows, so working memory is
    O(block * min(|p|, |q|)); numpy does O(|p|*|q|) arithmetic, Python
    visits only the reachable band's cells.
    """
    _check_pair(p, q, r)
    if max(_endpoint_dists(p, q)) > r:
        return False
    if len(p) == 1:
        return _point_curve_within(p._points[0], q._points, r)
    if len(q) == 1:
        return _point_curve_within(q._points[0], p._points, r)
    if len(q) > len(p):
        p, q = q, p  # rows run along the longer curve

    m, n = len(p), len(q)
    Pc, p_deltas = p._columns
    Qc, q_deltas = q._columns
    q_starts = [c[:-1] for c in Qc]

    # entry[j]: the smallest reachable parameter on the current line in
    # column j, None = blocked; reachable entries lie in columns first..last.
    entry: list[float | None] = []
    first = last = 0

    leftline: float | None = 0.0  # entry on the q-parameter = 0 boundary
    rightline = False  # the q-parameter = n-1 boundary is reachable
    prev_vhi0 = prev_vhi_last = None

    for b in range(0, m - 1, _BLOCK):
        rows = slice(b, min(b + _BLOCK, m - 1))
        # No column left of the band becomes reachable again unless the
        # left boundary still is, so the block's windows start at c0.
        c0 = 0 if leftline is not None else first
        # Vertical boundaries of row i: per q-vertex j, the t-range where
        # p-edge i passes within r of Q[j]. Horizontal line i+1: per q-edge
        # j, the s-range where P[i+1] is within r of the edge; the first
        # block also computes line 0, the bottom line.
        vlo_rows, vhi_rows = _ball_windows(
            [c[rows, None] for c in Pc], [c[rows, None] for c in p_deltas],
            [c[None, c0:] for c in Qc], r)
        hlo_rows, hhi_rows = _ball_windows(
            [c[None, c0:] for c in q_starts], [c[None, c0:] for c in q_deltas],
            [c[rows.start + (b > 0):rows.stop + 1, None] for c in Pc], r)
        if b == 0:
            # Free intervals on the bottom line (p-parameter = 0), which is
            # reachable only as a contiguous prefix of columns.
            hlo, hhi = hlo_rows[0], hhi_rows[0]
            hlo_rows, hhi_rows = hlo_rows[1:], hhi_rows[1:]
            prefix = (hhi[:-1] == 1.0) & (hlo[1:] == 0.0)
            last = n - 2 if prefix.all() else int(np.argmin(prefix))
            entry = [0.0] * (last + 1) + [None] * (n - 2 - last)

        for i, vlo, vhi, hlo, hhi in zip(
                range(b, rows.stop), vlo_rows, vhi_rows, hlo_rows, hhi_rows):
            if i > 0 and leftline is not None and not (
                    prev_vhi0 == 1.0 and vlo[0] == 0.0):
                leftline = None

            left = leftline  # entry on the left boundary of the current cell
            new_entry: list[float | None] = [None] * (n - 1)
            nfirst, nlast = n - 1, -1
            j = 0 if left is not None else first
            while j < n - 1 and (left is not None or j <= last):
                # the band in one read, then short reads while left survives
                stop = min(n - 1, max(last + 1, j + _CHUNK))
                cells = zip(
                    range(j, stop), entry[j:stop],
                    vlo[j + 1 - c0:stop + 1 - c0].tolist(),
                    vhi[j + 1 - c0:stop + 1 - c0].tolist(),
                    hlo[j - c0:stop - c0].tolist(),
                    hhi[j - c0:stop - c0].tolist())
                for jj, bot, vl, vh, hl, hh in cells:
                    # top boundary of cell (i, jj), then its right boundary
                    if left is not None:
                        top = hl if hl <= hh else None
                        if bot is None:
                            e = left if left > vl else vl
                            left = e if e <= vh else None
                        else:
                            left = vl if vl <= vh else None
                    elif bot is not None:
                        e = bot if bot > hl else hl
                        top = e if e <= hh else None
                        left = vl if vl <= vh else None
                    elif jj > last:
                        break
                    else:
                        continue
                    if top is not None:
                        new_entry[jj] = top
                        if nlast < 0:
                            nfirst = jj
                        nlast = jj
                else:
                    j = stop
                    continue
                break

            # Reachability on the q-parameter = n-1 boundary, carried across rows.
            rightline = left is not None or (
                rightline and prev_vhi_last == 1.0 and vlo[n - 1 - c0] == 0.0)
            prev_vhi_last = vhi[n - 1 - c0]
            if leftline is not None:
                prev_vhi0 = vhi[0]
            entry, first, last = new_entry, nfirst, nlast
            if last < 0 and leftline is None and not rightline:
                return False

    if rightline and prev_vhi_last == 1.0:
        return True
    # Travel along the final p-parameter = m-1 line toward the corner:
    # at_end == the line's s = 1 point in column j is reachable.
    at_end = False
    for bot, hl, hh in zip(entry[first:], hlo[first - c0:].tolist(),
                           hhi[first - c0:].tolist()):
        at_end = (bot is not None or (at_end and hl == 0.0)) and hh == 1.0
    return at_end


def estimate_continuous(p: Curve, q: Curve, rel_tol: float = 1e-4) -> float:
    """Continuous Frechet distance by bisection on the decision procedure.

    The initial bracket is [max endpoint distance, discrete Frechet
    distance], both valid bounds on the continuous distance. Returns a
    radius that decide_continuous accepts, within rel_tol relative error
    (1e-12 floor). Where floating point makes the decision reject the
    bracket's upper end, the radius is widened geometrically until the
    decision accepts it.
    """
    check_positive("rel_tol", rel_tol)
    _check_dims(p, q)
    lo = max(_endpoint_dists(p, q))
    hi = discrete_frechet(p, q)
    if hi > lo and decide_continuous(p, q, lo):
        hi = lo
    for _ in range(40):
        if hi - lo <= rel_tol * hi + 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if decide_continuous(p, q, mid):
            hi = mid
        else:
            lo = mid
    # At a knife-edge radius the floating-point decision can land Far by
    # an ulp; widen geometrically until the returned value is certified Near.
    for bump in (0.0, 4e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        est = hi * (1.0 + bump)
        if decide_continuous(p, q, est):
            return est
    # At twice the largest vertex-to-vertex distance every free-space
    # window is a whole edge with a wide margin, so the decision accepts.
    return 2.0 * float(_dists(p.vertices[:, None, :] - q.vertices[None, :, :]).max())


# ---------------------------------------------------------------------------
# One-sided filters and heuristics


def _endpoint_dists(p: Curve, q: Curve) -> tuple[float, float]:
    """The distances of the first and of the last vertices of two curves."""
    P, Q = p._points, q._points
    return _dist(P[0], Q[0]), _dist(P[-1], Q[-1])


def endpoints_filter(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Far when either endpoint pair is farther than r; never Near."""
    _check_pair(p, q, r)
    if max(_endpoint_dists(p, q)) > r:
        return VerificationOutcome(Verdict.FAR, "endpoints")
    return VerificationOutcome(Verdict.UNKNOWN, "endpoints")


def bbox_filter(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Far when corresponding bounding-box corners differ by more than r
    in any single coordinate; never Near."""
    _check_pair(p, q, r)
    bp, bq = bounding_box(p), bounding_box(q)
    if (
        np.abs(bp.lower - bq.lower).max() > r
        or np.abs(bp.upper - bq.upper).max() > r
    ):
        return VerificationOutcome(Verdict.FAR, "bbox")
    return VerificationOutcome(Verdict.UNKNOWN, "bbox")


def _point_at(V, D, u: float):
    """The point of a polyline (float vertices V, edge deltas D) at
    fractional vertex index u: V[i] + (u - i) * D[i] on the edge i holding u."""
    if len(V) == 1:
        return V[0]
    i = min(int(u), len(V) - 2)
    f = u - i
    return [a + f * b for a, b in zip(V[i], D[i])]


def equal_time_upper(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Near when the uniform-speed simultaneous traversal stays within r.

    The pair distance is convex between breakpoints of the joint motion,
    so the exact maximum is attained at the union of both curves'
    normalized breakpoints. The walk stops at the first breakpoint farther
    than r. Never Far.
    """
    _check_pair(p, q, r)
    P, Q = p._points, q._points
    DP, DQ = p._edges[0], q._edges[0]
    mp, mq = len(P) - 1, len(Q) - 1
    witness = []
    if mp == 0 or mq == 0:
        # a single vertex stays put while the other curve visits its vertices
        for k in range(max(mp, mq) + 1):
            u_p, u_q = float(k) if mp else 0.0, float(k) if mq else 0.0
            if not _dist(_point_at(P, DP, u_p), _point_at(Q, DQ, u_q)) <= r:
                return VerificationOutcome(Verdict.UNKNOWN, "equal-time")
            witness.append((u_p, u_q))
        return VerificationOutcome(Verdict.NEAR, "equal-time", witness)
    # the fractions i/mp and j/mq, merged exactly over denominator mp*mq
    for k in sorted({*range(0, mp * mq + 1, mq), *range(0, mp * mq + 1, mp)}):
        u_p, u_q = k / mq, k / mp
        # _dist(_point_at(P, DP, u_p), _point_at(Q, DQ, u_q)), inlined
        i, j = int(u_p), int(u_q)
        if i == mp:
            i -= 1
        if j == mq:
            j -= 1
        f, g = u_p - i, u_q - j
        s = 0.0
        for a, da, b, db in zip(P[i], DP[i], Q[j], DQ[j]):
            t = (a + f * da) - (b + g * db)
            s += t * t
        if not math.sqrt(s) <= r:
            return VerificationOutcome(Verdict.UNKNOWN, "equal-time")
        witness.append((u_p, u_q))
    return VerificationOutcome(Verdict.NEAR, "equal-time", witness)


def greedy_upper(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Near when the greedy locally-closest traversal stays within r.

    From (i, j) the move among (i+1, j), (i, j+1), (i+1, j+1) with the
    smallest new pair distance is taken (ties: diagonal, then advancing p,
    then advancing q). A discrete traversal of max distance <= r bounds
    the discrete and hence the continuous distance. Never Far.
    """
    _check_pair(p, q, r)
    P, Q = p._points, q._points
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


def _monotone_position_scan(a: Curve, b: Curve, r: float) -> bool:
    """True when every vertex of curve a admits a monotone match on the
    polyline of curve b.

    Maintains the earliest position on b (never decreasing) within r of
    each successive vertex of a; failure certifies that no continuous
    traversal can align the curves within r. The scan is lazy: a vertex
    tests the edge holding the current position, then later edges until
    one matches, and the position never moves back, so one scan computes
    O(|a| + |b|) edge windows, each from b's prepared edge terms.
    """
    A, B = a._points, b._points
    nb = len(B)
    if nb == 1:
        return _point_curve_within(B[0], A, r)
    D, AA = b._edges
    cur = 0.0
    for x in A:
        e = min(int(cur), nb - 2)
        # Only the edge holding cur can clip the window at cur; on any later
        # edge e + lo > cur, so a nonempty window matches at e + lo.
        lo, hi = _ball_window(B[e], D[e], AA[e], x, r)
        if lo <= hi:
            start = max(cur, e + lo)
            if start <= e + hi:
                cur = start
                continue
        for e in range(e + 1, nb - 1):
            lo, hi = _ball_window(B[e], D[e], AA[e], x, r)
            if lo <= hi:
                cur = e + lo
                break
        else:
            return False
    return True


def negative_filter(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Far when some vertex of one curve has no monotone match on the
    other's polyline; applied in both directions. Never Near."""
    _check_pair(p, q, r)
    if not _monotone_position_scan(p, q, r) or not _monotone_position_scan(q, p, r):
        return VerificationOutcome(Verdict.FAR, "negative-filter")
    return VerificationOutcome(Verdict.UNKNOWN, "negative-filter")


# ---------------------------------------------------------------------------
# Decisive procedures


def verify_heur(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Run the upper-bound traversals and the negative scan in order,
    falling back to the exact free-space decision: always decisive."""
    _check_pair(p, q, r)
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
    mu_minus: float
    mu_plus: float
    r_minus: float
    r_plus: float

    @classmethod
    def for_radius(cls, r: float, eps: float) -> "SimplVerifyParams":
        check_positive("eps", eps)
        check_positive("radius", r)
        mu_minus = r * eps / 28.0
        mu_plus = r * eps / (28.0 * (1.0 + eps / 3.0))
        r_minus = r * (1.0 + eps / 14.0)
        r_plus = r * (3.0 * (1.0 + eps / 14.0) / (3.0 + eps))
        # Near the float maximum, r * eps or r_minus overflows to inf.
        check_positive("the simplification budget of this radius", max(mu_minus, r_minus))
        return cls(eps, r, mu_minus, mu_plus, r_minus, r_plus)


class SimplifiedCopies:
    """The simplified copies of one dataset's curves, each built on its first
    use and kept.

    A copy is keyed by (curve id, mu), and the budgets mu depend only on r
    and eps, so one store serves a whole join at one (r, eps_list). An
    entry is the curve itself when the simplification drops no vertex, so
    the copies share the curve's prepared view. Ids are only unique within
    a dataset: pass a store only curves of the dataset it was made for.
    """

    def __init__(self):
        self._copies: dict[tuple[int, float], Curve] = {}

    def __len__(self) -> int:
        return len(self._copies)

    def get(self, c: Curve, mu: float) -> Curve:
        key = (c.id, mu)
        copy = self._copies.get(key)
        if copy is None:
            copy = self._copies[key] = simplify(c, mu)
        return copy


def verify_simpl(
    p: Curve, q: Curve, r: float, eps: float, copies: SimplifiedCopies | None = None
) -> VerificationOutcome:
    """Decide via simplified copies when the error budget allows; the
    verdict may be Unknown when neither check succeeds. The copies come
    from `copies` when given, else each curve is simplified here."""
    _check_pair(p, q, r)
    par = SimplVerifyParams.for_radius(r, eps)
    stage = f"simpl-{eps:g}"
    copy = simplify if copies is None else copies.get
    coarse = verify_heur(copy(p, par.mu_minus), copy(q, par.mu_minus), par.r_minus)
    if coarse.verdict is Verdict.FAR:
        return VerificationOutcome(Verdict.FAR, stage)
    fine = verify_heur(copy(p, par.mu_plus), copy(q, par.mu_plus), par.r_plus)
    if fine.verdict is Verdict.NEAR:
        return VerificationOutcome(Verdict.NEAR, stage)
    return VerificationOutcome(Verdict.UNKNOWN, stage)


DEFAULT_EPS_LIST = (10.0, 1.0, 0.1)


def verify(
    p: Curve,
    q: Curve,
    r: float,
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST,
    copies: SimplifiedCopies | None = None,
) -> VerificationOutcome:
    """The full decision cascade: endpoints, bounding boxes, simplified
    checks from coarsest to finest, then the heuristics with exact
    fallback. Always returns Near or Far. With `copies`, both curves'
    simplified copies are read from that store (see SimplifiedCopies)."""
    _check_radius(r)
    check_eps_list(eps_list)
    out = endpoints_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    out = bbox_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    if r > 0:
        for eps in eps_list:
            out = verify_simpl(p, q, r, eps, copies)
            if out.verdict is not Verdict.UNKNOWN:
                return out
    return verify_heur(p, q, r)
