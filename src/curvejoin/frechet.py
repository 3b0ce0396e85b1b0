"""Frechet distance decision procedures and the layered verification cascade.

Provides the exact discrete Frechet dynamic program, a free-space-diagram
decision procedure for the continuous distance, cheap one-sided filters
(endpoints, bounding boxes, equal-time and greedy traversals, a monotone
position scan), a simplification-based pre-check with error budgets, and
the cascade that combines them into a decisive Near/Far answer.

The cascade's steps run on Python floats: on curves of a few dozen
vertices numpy's per-call overhead costs more than the arithmetic. They
read each curve's prepared view (see curves.Curve): its float vertices,
edge deltas, squared edge lengths and bounding-box corners are computed
once per curve, and a simplification that drops no vertex is the curve
itself, so every step and every eps level of a pair reads the same
prepared data. Every vertex distance is curves._dist, the square root of
the squared coordinate differences added in coordinate order, and the
array code that shares a test with it (exact_join's endpoint arrays) sums
in the same order, so the two agree bit for bit. Every free-space window
is one _ball_window call: the negative filter's lazy scan computes O(m + n)
of them per direction, and decide_continuous computes a cell's windows only
when its sweep reaches the cell. On 2-d curves, _dist, the window and the
equal-time walk run their coordinate loops unrolled: the same operations
in the same order, without the loop's per-coordinate overhead, so every
result keeps its bits.

What a step's inputs fix is built once, not on every call. The outcomes
of the fixed stages (endpoints, bbox, equal-time, greedy, negative-filter,
full-verify) are module constants; each (r, eps) simplification level is
one value, its budgets and its three outcomes, built on first use
(_simpl_level); the equal-time walk's breakpoint table is built once per
pair of edge counts (mp, mq); and each curve's bounding box is kept as
floats. Sharing is safe because every shared value is immutable (frozen
dataclasses and tuples) and each cache is bounded: a caller can neither
change a value another caller reads nor grow the process without limit.
A cache stores no exception, so a bad radius or eps raises on every call.

Simplified copies are read one way: from a SimplifiedCopies store, keyed
by the curve itself (curves hash by identity) and the budget mu. A join
passes one store for all its pairs; verify makes one for the call when
it is given none, so no copy is built twice within a call.

On fixed curves, verify_heur's verdict is monotone in the radius: every
window end, vertex distance and traversal maximum rounds monotonically in
r, so a pair Near at some radius is Near at every larger one. verify uses
this where checks repeat on the same curves. A simplification level after
the first whose copies are the curves themselves, and every level after it
(a smaller budget drops no more vertices), check the curves themselves at
r_minus and r_plus, and the final check does so at r. verify decides them
together (_verify_tail): the final check runs first, and a level's check
runs only when no radius already known Near or Far answers it. The
verdict and the stage are those of the level-by-level cascade.

All comparisons against the radius are exact floating-point comparisons;
a pair at distance exactly r counts as Near. Every function here is a
pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import sub

from .curves import Curve, _dist, _dists, check_positive, simplify

__all__ = [
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
    """Result of one verification step: the verdict and the stage, the
    name of the step that gave it."""

    verdict: Verdict
    stage: str


# The outcomes of the steps whose stage is fixed, built once and shared.
_ENDPOINTS_FAR = VerificationOutcome(Verdict.FAR, "endpoints")
_ENDPOINTS_UNKNOWN = VerificationOutcome(Verdict.UNKNOWN, "endpoints")
_BBOX_FAR = VerificationOutcome(Verdict.FAR, "bbox")
_BBOX_UNKNOWN = VerificationOutcome(Verdict.UNKNOWN, "bbox")
_EQUAL_TIME_NEAR = VerificationOutcome(Verdict.NEAR, "equal-time")
_EQUAL_TIME_UNKNOWN = VerificationOutcome(Verdict.UNKNOWN, "equal-time")
_GREEDY_NEAR = VerificationOutcome(Verdict.NEAR, "greedy")
_GREEDY_UNKNOWN = VerificationOutcome(Verdict.UNKNOWN, "greedy")
_NEGATIVE_FAR = VerificationOutcome(Verdict.FAR, "negative-filter")
_NEGATIVE_UNKNOWN = VerificationOutcome(Verdict.UNKNOWN, "negative-filter")
_FULL_NEAR = VerificationOutcome(Verdict.NEAR, "full-verify")
_FULL_FAR = VerificationOutcome(Verdict.FAR, "full-verify")


def _check_dims(p: Curve, q: Curve) -> None:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")


def _check_radius(r: float) -> None:
    # written so that NaN fails; check_positive raises with the usual text
    if not 0 <= r < math.inf:
        check_positive("radius", r, allow_zero=True)


def _check_pair(p: Curve, q: Curve, r: float) -> None:
    """The input check of every public cascade step: equal dimensions and a
    finite radius >= 0. The comparisons are written so that NaN fails them;
    only a failing input pays for the calls that raise."""
    if not (p.dim == q.dim and 0 <= r < math.inf):
        _check_dims(p, q)
        check_positive("radius", r, allow_zero=True)


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


def _ball_window(start, delta, aa: float, point, rr: float) -> tuple[float, float]:
    """The window of one edge within r of one point: the t in [0, 1] with
    ||start + t*delta - point|| <= r, as (lo, hi); an empty window is
    (inf, -inf). This is the library's only window arithmetic: the free-space
    decision and the negative filter's scan both call it.

    The edge is its start, its delta (end - start) and its squared length
    aa, the point a float sequence; a curve's prepared edges supply delta
    and aa. rr is r * r, computed once per decision or scan. The
    discriminant is r^2*||delta||^2 minus the squared rejection of
    w = start - point, a sum of squared 2x2 minors; the naive b^2 - 4ac
    form cancels catastrophically when w is nearly parallel to delta and r
    is small. Sums run over the coordinates in order, the minors over the
    pairs (u, v), u < v, in lexicographic order.

    Two coordinates take the loops unrolled, in the same order: the one
    minor's square is never -0.0, so it equals the loop's 0.0 + minor^2."""
    if len(point) == 2:
        s0, s1 = start
        x0, x1 = point
        w0 = s0 - x0
        w1 = s1 - x1
        if aa == 0.0:
            return (0.0, 1.0) if w0 * w0 + w1 * w1 <= rr else (math.inf, -math.inf)
        d0, d1 = delta
        wd = w0 * d0 + w1 * d1
        minor = d0 * w1 - d1 * w0
        disc = aa * rr - minor * minor
    else:
        w = list(map(sub, start, point))
        if aa == 0.0:
            ww = w[0] * w[0]
            for u in range(1, len(w)):
                ww = ww + w[u] * w[u]
            return (0.0, 1.0) if ww <= rr else (math.inf, -math.inf)
        wd = w[0] * delta[0]
        for u in range(1, len(w)):
            wd = wd + w[u] * delta[u]
        gram = 0.0
        for u in range(len(w)):
            for v in range(u + 1, len(w)):
                minor = delta[u] * w[v] - delta[v] * w[u]
                gram = gram + minor * minor
        disc = aa * rr - gram
    if not disc >= 0.0:
        return math.inf, -math.inf
    sq = math.sqrt(disc)
    nwd = -wd
    # clipped to [0, 1] as np.maximum and np.minimum clip, the sign of zero included
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
    the right boundary is reachable.

    Each free-space window is one _ball_window call, made only when the
    sweep reaches it: a visited cell's right and top boundaries, the left
    and right boundary lines while they are reachable, the bottom line's
    reachable prefix and the walk along the final line. A cell with no
    entry from the left or from below computes nothing, so the work is
    O(band cells), not O(|p| * |q|).
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

    P, Q = p._points, q._points
    (DP, AP), (DQ, AQ) = p._edges, q._edges
    rr = r * r
    m, n = len(P), len(Q)

    # The bottom line (p-parameter = 0) is reachable only as a contiguous
    # prefix of columns 0 .. last.
    last = 0
    if n > 2:
        hh = _ball_window(Q[0], DQ[0], AQ[0], P[0], rr)[1]
        for j in range(1, n - 1):
            if hh != 1.0:
                break
            hl, hh = _ball_window(Q[j], DQ[j], AQ[j], P[0], rr)
            if hl != 0.0:
                break
            last = j

    # entry[j]: the smallest reachable parameter on the current line in
    # column j, None = blocked; reachable entries lie in columns first..last.
    # The next line is written into spare, the line before the current one
    # with its entries cleared.
    entry: list[float | None] = [0.0] * (last + 1) + [None] * (n - 2 - last)
    spare: list[float | None] = [None] * (n - 1)
    first = 0

    leftline: float | None = 0.0  # entry on the q-parameter = 0 boundary
    rightline = False  # the q-parameter = n-1 boundary is reachable
    vhi0 = vhi_last = None  # the previous row's hi on those boundaries
    for i in range(m - 1):
        a, da, aa, above = P[i], DP[i], AP[i], P[i + 1]
        # the left boundary stays reachable while each row's window on it
        # spans [0, 1]; row 0 starts at the corner
        if leftline is not None and (i == 0 or vhi0 == 1.0):
            vlo0, vhi0 = _ball_window(a, da, aa, Q[0], rr)
            if i > 0 and vlo0 != 0.0:
                leftline = None
        else:
            leftline = None

        left = leftline  # entry on the left boundary of the current cell
        new_entry = spare
        nfirst, nlast = n - 1, -1
        for j in range(0 if leftline is not None else first, n - 1):
            bot = entry[j]
            if left is None and bot is None:
                if j > last:
                    break
                continue
            # the top boundary of cell (i, j): entered from the left anywhere
            # in its window, from below only at bot or later
            hl, hh = _ball_window(Q[j], DQ[j], AQ[j], above, rr)
            if left is None and bot > hl:
                hl = bot
            if hl <= hh:
                new_entry[j] = hl
                if nlast < 0:
                    nfirst = j
                nlast = j
            # its right boundary: entered from below anywhere in its window,
            # from the left only at left or later
            vl, vh = _ball_window(a, da, aa, Q[j + 1], rr)
            if bot is None and left > vl:
                vl = left
            left = vl if vl <= vh else None

        # Reachability on the q-parameter = n-1 boundary, carried across
        # rows; its window is computed only while it is reachable. A left
        # entry past the last cell was computed on that boundary.
        if left is not None:
            rightline, vhi_last = True, vh
        elif rightline and vhi_last == 1.0:
            vl, vhi_last = _ball_window(a, da, aa, Q[n - 1], rr)
            rightline = vl == 0.0
        else:
            rightline = False
        entry[first:last + 1] = [None] * (last + 1 - first)
        spare, entry, first, last = entry, new_entry, nfirst, nlast
        if last < 0 and leftline is None and not rightline:
            return False

    if rightline and vhi_last == 1.0:
        return True
    # Travel along the final p-parameter = m-1 line toward the corner:
    # at_end == the line's s = 1 point in column j is reachable.
    at_end = False
    for j in range(first, n - 1):
        bot = entry[j]
        if bot is None and not at_end:
            if j > last:
                break
            continue
        hl, hh = _ball_window(Q[j], DQ[j], AQ[j], P[m - 1], rr)
        at_end = (bot is not None or hl == 0.0) and hh == 1.0
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
        return _ENDPOINTS_FAR
    return _ENDPOINTS_UNKNOWN


def bbox_filter(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Far when corresponding bounding-box corners differ by more than r
    in any single coordinate; never Near.

    The corners are each curve's prepared floats (Curve._corners), compared
    one coordinate at a time: vertices are finite, so no gap is NaN, and a
    gap is > r exactly where the largest gap of the corner arrays is."""
    _check_pair(p, q, r)
    for a, b in zip(p._corners, q._corners):
        if abs(a - b) > r:
            return _BBOX_FAR
    return _BBOX_UNKNOWN


# Breakpoint tables kept. See _equal_time_steps for their memory.
_STEP_TABLES = 256


@lru_cache(maxsize=_STEP_TABLES)
def _equal_time_steps(mp: int, mq: int) -> tuple[tuple[int, float, int, float], ...]:
    """The merged breakpoints of two curves of mp and mq >= 1 edges, in
    traversal order, each as (i, f, j, g): the point of p is P[i] + f *
    DP[i] and the point of q is Q[j] + g * DQ[j]. The fractions i/mp and
    j/mq are merged exactly over the denominator mp * mq. The last
    breakpoint, both curves' last vertices, is not in the table: the walk
    reads those vertices themselves, since P[mp - 1] + 1.0 * DP[mp - 1] can
    miss P[mp] by an ulp. Every entry has k < mp * mq, so i < mp and j < mq.

    Memory: a table has fewer than mp + mq entries, each at most about
    185 bytes (its 4-tuple, two floats and, past 256, two ints; 85 to 140
    bytes measured). The cache keeps _STEP_TABLES tables, so at worst it
    holds _STEP_TABLES * 185 * (mp + mq) bytes for the longest pairs it
    has seen: 3.7 MB if all were 40 x 40 vertices, 29 MB if all were
    321 x 294.
    """
    steps = []
    for k in sorted({*range(0, mp * mq, mq), *range(0, mp * mq, mp)}):
        u_p, u_q = k / mq, k / mp
        i, j = int(u_p), int(u_q)
        steps.append((i, u_p - i, j, u_q - j))
    return tuple(steps)


def equal_time_upper(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Near when the uniform-speed simultaneous traversal stays within r.

    The pair distance is convex between breakpoints of the joint motion,
    so the exact maximum is attained at the union of both curves'
    normalized breakpoints. The walk checks the last vertices first, then
    the other breakpoints in traversal order, and stops at the first one
    farther than r. A single vertex stays put while the other curve visits
    its vertices (_point_curve_within, as in decide_continuous). Never Far.

    The breakpoints depend only on the two edge counts, so their table,
    each entry's edges and fractions, is built once per (mp, mq) and kept
    in a bounded cache (_equal_time_steps); each breakpoint's distance is
    still _dist's arithmetic on the interpolated points, unrolled as _dist
    unrolls it when the curves are 2-d.
    """
    _check_pair(p, q, r)
    P, Q = p._points, q._points
    if len(P) == 1 or len(Q) == 1:
        a, V = (P[0], Q) if len(P) == 1 else (Q[0], P)
        return _EQUAL_TIME_NEAR if _point_curve_within(a, V, r) else _EQUAL_TIME_UNKNOWN
    if not _dist(P[-1], Q[-1]) <= r:
        return _EQUAL_TIME_UNKNOWN
    DP, DQ = p._edges[0], q._edges[0]
    steps = _equal_time_steps(len(P) - 1, len(Q) - 1)
    if len(P[0]) == 2:
        for i, f, j, g in steps:
            (a0, a1), (da0, da1), (b0, b1), (db0, db1) = P[i], DP[i], Q[j], DQ[j]
            t0 = (a0 + f * da0) - (b0 + g * db0)
            t1 = (a1 + f * da1) - (b1 + g * db1)
            if not math.sqrt(t0 * t0 + t1 * t1) <= r:
                return _EQUAL_TIME_UNKNOWN
        return _EQUAL_TIME_NEAR
    for i, f, j, g in steps:
        # _dist(P[i] + f * DP[i], Q[j] + g * DQ[j]), inlined
        s = 0.0
        for a, da, b, db in zip(P[i], DP[i], Q[j], DQ[j]):
            t = (a + f * da) - (b + g * db)
            s += t * t
        if not math.sqrt(s) <= r:
            return _EQUAL_TIME_UNKNOWN
    return _EQUAL_TIME_NEAR


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
    if _dist(P[0], Q[0]) > r:
        return _GREEDY_UNKNOWN
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
            return _GREEDY_UNKNOWN
        i, j = best
    return _GREEDY_NEAR


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
    rr = r * r
    cur = 0.0
    for x in A:
        e = int(cur)
        if e > nb - 2:
            e = nb - 2
        # Only the edge holding cur can clip the window at cur; on any later
        # edge e + lo > cur, so a nonempty window matches at e + lo.
        lo, hi = _ball_window(B[e], D[e], AA[e], x, rr)
        if lo <= hi:
            start = e + lo
            if start < cur:
                start = cur
            if start <= e + hi:
                cur = start
                continue
        for e in range(e + 1, nb - 1):
            lo, hi = _ball_window(B[e], D[e], AA[e], x, rr)
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
        return _NEGATIVE_FAR
    return _NEGATIVE_UNKNOWN


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
    return _FULL_NEAR if decide_continuous(p, q, r) else _FULL_FAR


class SimplifiedCopies:
    """Simplified copies of curves, each built on its first use and kept.

    A copy is keyed by (curve, mu). Curves hash by identity, so any curves
    can share a store, whatever their ids. The budgets mu depend only on r
    and eps, so one store serves a whole join at one (r, eps_list); verify
    makes one for the call when it is given none. An entry is the curve
    itself when the simplification drops no vertex, so the copies share the
    curve's prepared view.
    """

    def __init__(self):
        self._copies: dict[tuple[Curve, float], Curve] = {}

    def __len__(self) -> int:
        return len(self._copies)

    def get(self, c: Curve, mu: float) -> Curve:
        key = (c, mu)
        copy = self._copies.get(key)
        if copy is None:
            copy = self._copies[key] = simplify(c, mu)
        return copy


@dataclass(frozen=True)
class _SimplLevel:
    """One simplification level at a radius r and an epsilon eps: its error
    budgets and its Far, Near and Unknown outcomes, of stage simpl-<eps>.

    The negative check runs on aggressively simplified curves (budget
    mu_minus) at the enlarged radius r_minus; the positive check on gently
    simplified curves (budget mu_plus) at the shrunk radius r_plus. Both
    checks are sound: the simplification error mu is repaid by the radius
    adjustment.
    """

    mu_minus: float
    mu_plus: float
    r_minus: float
    r_plus: float
    far: VerificationOutcome
    near: VerificationOutcome
    unknown: VerificationOutcome


# A join reads one (r, eps) level per eps of its eps_list.
@lru_cache(maxsize=64, typed=True)
def _simpl_level(r: float, eps: float) -> _SimplLevel:
    """The level of (r, eps), built once and shared. A bad value raises on
    every call: the cache stores no exception."""
    check_positive("eps", eps)
    check_positive("radius", r)
    mu_minus = r * eps / 28.0
    mu_plus = r * eps / (28.0 * (1.0 + eps / 3.0))
    r_minus = r * (1.0 + eps / 14.0)
    r_plus = r * (3.0 * (1.0 + eps / 14.0) / (3.0 + eps))
    # Near the float maximum, r * eps or r_minus overflows to inf.
    check_positive("the simplification budget of this radius", max(mu_minus, r_minus))
    stage = f"simpl-{eps:g}"
    return _SimplLevel(mu_minus, mu_plus, r_minus, r_plus,
                       VerificationOutcome(Verdict.FAR, stage),
                       VerificationOutcome(Verdict.NEAR, stage),
                       VerificationOutcome(Verdict.UNKNOWN, stage))


def verify_simpl(
    p: Curve, q: Curve, r: float, eps: float, copies: SimplifiedCopies | None = None
) -> VerificationOutcome:
    """Decide via simplified copies when the error budget allows; the
    verdict may be Unknown when neither check succeeds. Every copy is read
    from `copies`; without a store, one is made for this call. The budgets,
    the stage name (simpl-<eps>) and the outcomes come from the level of
    (r, eps), built on its first use (_simpl_level)."""
    _check_pair(p, q, r)
    level = _simpl_level(r, eps)
    if copies is None:
        copies = SimplifiedCopies()
    copy = copies.get
    coarse = verify_heur(copy(p, level.mu_minus), copy(q, level.mu_minus), level.r_minus)
    if coarse.verdict is Verdict.FAR:
        return level.far
    fine = verify_heur(copy(p, level.mu_plus), copy(q, level.mu_plus), level.r_plus)
    if fine.verdict is Verdict.NEAR:
        return level.near
    return level.unknown


DEFAULT_EPS_LIST = (10.0, 1.0, 0.1)


def _verify_tail(p: Curve, q: Curve, r: float,
                 eps_list: tuple[float, ...]) -> VerificationOutcome:
    """The levels of eps_list and the final check, for a pair whose copies
    at every one of these levels are the curves themselves: the outcome that
    verify_simpl at each level in turn and then verify_heur(p, q, r) give.

    Every check then runs verify_heur on p and q, at r_minus, r_plus or r,
    and its verdict is monotone in the radius: each window end, vertex
    distance and traversal maximum rounds monotonically in r, so a radius
    at or above a Near radius is Near and one at or below a Far radius is
    Far. The final check runs first. The smallest radius known Near and the
    largest known Far then answer every check at or beyond them by
    comparison, and verify_heur runs only for the others, in cascade order.
    """
    final = verify_heur(p, q, r)
    near_from, far_to = (r, -math.inf) if final.verdict is Verdict.NEAR else (math.inf, r)

    def is_near(x: float) -> bool:
        nonlocal near_from, far_to
        if x >= near_from:
            return True
        if x <= far_to:
            return False
        if verify_heur(p, q, x).verdict is Verdict.NEAR:
            near_from = x
            return True
        far_to = x
        return False

    for eps in eps_list:
        level = _simpl_level(r, eps)
        if not is_near(level.r_minus):
            return level.far
        if is_near(level.r_plus):
            return level.near
    return final


def verify(
    p: Curve,
    q: Curve,
    r: float,
    eps_list: tuple[float, ...] = DEFAULT_EPS_LIST,
    copies: SimplifiedCopies | None = None,
) -> VerificationOutcome:
    """The full decision cascade: endpoints, bounding boxes, simplified
    checks from coarsest to finest, then the heuristics with exact
    fallback. Always returns Near or Far. Every simplified copy is read
    from the store `copies` (see SimplifiedCopies); without one, verify
    makes a store for the call and passes it down, so each copy is built
    once per call: the copies the tail test below reads are the ones
    verify_simpl reads.

    The first level always runs verify_simpl. A later level whose coarse
    copies (budget mu_minus) are both curves themselves starts a tail: every
    later copy is the curve too, since a smaller budget drops no more
    vertices. The tail's checks and the final check all run verify_heur on
    p and q, whose verdict is monotone in the radius, so _verify_tail
    decides them together from the fewest runs, with the verdict and the
    stage the level-by-level cascade gives."""
    _check_radius(r)
    check_eps_list(eps_list)
    out = endpoints_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    out = bbox_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    if r > 0:
        if copies is None:
            copies = SimplifiedCopies()
        for k, eps in enumerate(eps_list):
            if k:
                mu = _simpl_level(r, eps).mu_minus
                if copies.get(p, mu) is p and copies.get(q, mu) is q:
                    return _verify_tail(p, q, r, eps_list[k:])
            out = verify_simpl(p, q, r, eps, copies)
            if out.verdict is not Verdict.UNKNOWN:
                return out
    return verify_heur(p, q, r)
