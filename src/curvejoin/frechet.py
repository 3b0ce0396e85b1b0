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
sums in the same order, so the two agree bit for bit. On 2-d curves,
_dist, the scalar window and the equal-time walk run their coordinate
loops unrolled: the same operations in the same order, without the loop's
per-coordinate overhead, so every result keeps its bits. The negative
filter is a lazy scan, O(m + n) edge windows per direction, each from the
scalar window; the block window kernel serves decide_continuous, which
computes windows in blocks of rows but only over each row's range of
columns around the reachable band, wider only where a row needs more.

What a step's inputs fix is built once, not on every call. The outcomes
of the fixed stages (endpoints, bbox, equal-time, greedy, negative-filter,
full-verify) are module constants; each (r, eps) simplification level
builds its budgets, its stage name and its three outcomes on first use;
the equal-time walk's breakpoint table is built once per pair of edge
counts (mp, mq); and each curve's bounding box is kept as floats. Sharing
is safe because every shared value is immutable (frozen dataclasses and
tuples) and each cache is bounded: a caller can neither change a value
another caller reads nor grow the process without limit. A cache stores
no exception, so a bad radius or eps raises on every call.

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

import numpy as np

from .curves import Curve, _dist, _dists, check_positive, simplify

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


# Rows of free-space windows computed per kernel call: working memory is
# O(_BLOCK * band width), and a Far decision wastes at most one block.
_BLOCK = 64
# Columns read per step once a row's sweep runs past the cell after its
# last reachable entry. Each row's range of windows starts one step before
# the band and ends at least one step past it.
_CHUNK = 8


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
    The kernel is elementwise, so a window is the same whether its block
    covers whole rows or, as decide_continuous's _band_windows computes
    them, each row's range of columns around the reachable band. The
    negative filter's lazy scan computes one window at a time with the
    scalar twin _ball_window.
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


def _minor_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """The coordinate pairs (u, v), u < v, of the 2x2 minors in the order
    _ball_windows sums them."""
    return tuple((u, v) for u in range(d) for v in range(u + 1, d))


def _ball_window(start, delta, aa: float, point, rr: float,
                 pairs: tuple[tuple[int, int], ...]) -> tuple[float, float]:
    """The window of one edge within r of one point: _ball_windows'
    arithmetic, operation for operation. The edge is its start, its delta
    (end - start) and its squared length aa, the point a float sequence;
    a curve's prepared edges supply delta and aa. rr is r * r and pairs is
    _minor_pairs(d), both computed once per scan.

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
        for u, v in pairs:
            minor = delta[u] * w[v] - delta[v] * w[u]
            gram = gram + minor * minor
        disc = aa * rr - gram
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


def _band_windows(p: Curve, q: Curve, i0: int, i1: int, starts: np.ndarray, w: int,
                  r: float) -> np.ndarray:
    """The free-space windows of the rows i0 .. i1-1 of the diagram of p
    (rows) and q (columns), each over its own range of w cells, stacked as
    an array of shape (rows, 4, w + 1).

    The range of row i starts at column s = starts[i - i0]; column t of
    its slot holds the window of p-edge i on q-vertex s + t (the vertical
    boundary, lo then hi) and the window of q-edge s + t - 1 on p-vertex
    i + 1 (the line above the row, lo then hi). So cell c, at t = c + 1 - s,
    finds its right and top boundaries in one column, one slice reads a run
    of cells, and t = 0 holds the left boundary of cell s. Row -1 stands for
    line 0, the bottom line: only its line windows are meaningful.
    """
    (Pc, p_deltas), (Qc, q_deltas) = p._columns, q._columns
    rows = np.arange(i0, i1)
    if starts[0] == starts[-1]:
        starts = starts[:1]  # starts never fall: one range, broadcast to every row
    edge = np.maximum(rows, 0)[:, None]
    cols = starts[:, None] + np.arange(w + 1)
    q_edge = np.maximum(cols - 1, 0)
    vlo, vhi = _ball_windows([c[edge] for c in Pc], [c[edge] for c in p_deltas],
                             [c[cols] for c in Qc], r)
    hlo, hhi = _ball_windows([c[q_edge] for c in Qc], [c[q_edge] for c in q_deltas],
                             [c[rows + 1, None] for c in Pc], r)
    return np.concatenate((vlo, vhi, hlo, hhi), axis=1).reshape(i1 - i0, 4, w + 1)


def decide_continuous(p: Curve, q: Curve, r: float) -> bool:
    """True iff the continuous Frechet distance of p and q is at most r.

    Monotone reachability over the free-space diagram (Alt and Godau),
    swept one row of cells at a time. Each row is swept only from its first
    reachable cell until propagation dies past its last one, and the sweep
    answers Far as soon as nothing on the next line, the left boundary or
    the right boundary is reachable.

    The free-space windows come from a vectorized kernel run on blocks of
    up to _BLOCK rows, and only along the reachable band: each row of a
    block gets a range of columns that starts at or before the previous
    line's first reachable entry and is wide enough for the band plus the
    sweep's _CHUNK lookahead. While the left boundary is reachable the
    ranges start at column 0; otherwise they follow a corner-to-corner
    path's mean slope, (n-1)/(m-1) columns per row. When a row needs a
    column outside its range (the band drifted or widened, the right
    boundary is reachable, or the bottom line's reachable prefix runs past
    the first range), the rest of the block is computed again, wider, from
    that row; the final line's tail is computed when the walk to the corner
    reaches it. The kernel is elementwise, so every window, and with it
    every verdict, is the one a full-width block would give. Numpy does
    O(|p| * band width) arithmetic and holds one block of it; Python visits
    only the reachable band's cells.
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
    slope = (n - 1) / (m - 1)

    # entry[j]: the smallest reachable parameter on the current line in
    # column j, None = blocked; reachable entries lie in columns first..last.
    # The next line is written into spare, the line before the current one
    # with its entries cleared.
    entry: list[float | None] = []
    spare: list[float | None] = [None] * (n - 1)
    first = last = 0

    leftline: float | None = 0.0  # entry on the q-parameter = 0 boundary
    rightline = False  # the q-parameter = n-1 boundary is reachable
    prev_vhi0 = prev_vhi_last = None

    # Windows of rows b .. end-1 (row -1: line 0), row i's range starting
    # at starts[i - b]; reach: a column the current row needs outside its
    # range, None while the range serves.
    i = b = end = -1
    reach: int | None = None
    while i < m - 1:
        if i == end or reach is not None:
            if i == end:
                end = min(m - 1, (max(i, 0) // _BLOCK + 1) * _BLOCK)
            lo = 0 if leftline is not None else first
            w = max(last + 1 - lo, 2 * _CHUNK, 2 * ((reach or lo) - lo)) + 2 * _CHUNK
            w = min(w, n - 1)
            rise = np.arange(end - i) * (0.0 if leftline is not None else slope)
            starts = np.minimum(np.maximum(lo - _CHUNK + rise.astype(np.intp), 0), n - 1 - w)
            windows = _band_windows(p, q, i, end, starts, w, r)
            starts = starts.tolist()
            b, reach = i, None
        row, s = windows[i - b], starts[i - b]

        if i < 0:
            # Free intervals on the bottom line (p-parameter = 0), which is
            # reachable only as a contiguous prefix of columns.
            hlo, hhi = row[2, 1:], row[3, 1:]
            prefix = (hhi[:-1] == 1.0) & (hlo[1:] == 0.0)
            whole = bool(prefix.all())
            if whole and w < n - 1:
                reach = w
                continue
            last = n - 2 if whole else int(np.argmin(prefix))
            entry = [0.0] * (last + 1) + [None] * (n - 2 - last)
            i = 0
            continue

        j = 0 if leftline is not None else first
        if j < s or (rightline and prev_vhi_last == 1.0 and s + w < n - 1):
            reach = j if j < s else n - 1
            continue
        if i > 0 and leftline is not None and not (
                prev_vhi0 == 1.0 and row[0, 0] == 0.0):
            leftline = None
            j = first

        left = leftline  # entry on the left boundary of the current cell
        new_entry = spare
        nfirst, nlast = n - 1, -1
        while j < n - 1 and (left is not None or j <= last):
            # the band and the cell after it in one read, then short reads
            # while left survives
            stop = min(n - 1, max(last + 2, j + _CHUNK))
            if stop > s + w:
                reach = stop
                break
            vls, vhs, hls, hhs = row[:, j + 1 - s:stop + 1 - s].tolist()
            for jj, bot, vl, vh, hl, hh in zip(
                    range(j, stop), entry[j:stop], vls, vhs, hls, hhs):
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
        if reach is not None:
            # the row again, on a wider range
            new_entry[nfirst:nlast + 1] = [None] * (nlast + 1 - nfirst)
            continue

        # Reachability on the q-parameter = n-1 boundary, carried across
        # rows; its windows are read only while it is reachable.
        rightline = left is not None or (
            rightline and prev_vhi_last == 1.0 and row[0, n - 1 - s] == 0.0)
        if rightline:
            prev_vhi_last = row[1, n - 1 - s]
        if leftline is not None:
            prev_vhi0 = row[1, 0]
        entry[first:last + 1] = [None] * (last + 1 - first)
        spare, entry, first, last = entry, new_entry, nfirst, nlast
        if last < 0 and leftline is None and not rightline:
            return False
        i += 1

    if rightline and prev_vhi_last == 1.0:
        return True
    # Travel along the final p-parameter = m-1 line toward the corner:
    # at_end == the line's s = 1 point in column j is reachable.
    at_end = False
    hls, hhs = row[2:, first + 1 - s:].tolist()
    for bot, hl, hh in zip(entry[first:], hls, hhs):
        at_end = (bot is not None or (at_end and hl == 0.0)) and hh == 1.0
    if at_end and s + w < n - 1:
        # no entry lies past the range: the walk continues on free edges
        Pc, (Qc, q_deltas) = p._columns[0], q._columns
        hlo, hhi = _ball_windows([c[s + w:-1] for c in Qc], [c[s + w:] for c in q_deltas],
                                 [c[m - 1] for c in Pc], r)
        at_end = bool(((hlo == 0.0) & (hhi == 1.0)).all())
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


def _point_at(V, D, u: float):
    """The point of a polyline (float vertices V, edge deltas D) at
    fractional vertex index u: V[i] + (u - i) * D[i] on the edge i holding u."""
    if len(V) == 1:
        return V[0]
    i = min(int(u), len(V) - 2)
    f = u - i
    return [a + f * b for a, b in zip(V[i], D[i])]


# Breakpoint tables kept. See _equal_time_steps for their memory.
_STEP_TABLES = 256


@lru_cache(maxsize=_STEP_TABLES)
def _equal_time_steps(mp: int, mq: int) -> tuple[tuple[int, float, int, float], ...]:
    """The merged breakpoints of two curves of mp and mq >= 1 edges, in
    traversal order, each as (i, f, j, g): the point of p is P[i] + f *
    DP[i] and the point of q is Q[j] + g * DQ[j]. The fractions i/mp and
    j/mq are merged exactly over the denominator mp * mq.

    Memory: a table has at most mp + mq + 1 entries, each at most about
    185 bytes (its 4-tuple, two floats and, past 256, two ints; 85 to 140
    bytes measured). The cache keeps _STEP_TABLES tables, so at worst it
    holds _STEP_TABLES * 185 * (mp + mq + 1) bytes for the longest pairs
    it has seen: 3.7 MB if all were 40 x 40 vertices, 29 MB if all were
    321 x 294.
    """
    steps = []
    for k in sorted({*range(0, mp * mq + 1, mq), *range(0, mp * mq + 1, mp)}):
        u_p, u_q = k / mq, k / mp
        i, j = int(u_p), int(u_q)
        if i == mp:
            i -= 1
        if j == mq:
            j -= 1
        steps.append((i, u_p - i, j, u_q - j))
    return tuple(steps)


def equal_time_upper(p: Curve, q: Curve, r: float) -> VerificationOutcome:
    """Near when the uniform-speed simultaneous traversal stays within r.

    The pair distance is convex between breakpoints of the joint motion,
    so the exact maximum is attained at the union of both curves'
    normalized breakpoints. The walk stops at the first breakpoint farther
    than r. Never Far.

    The breakpoints depend only on the two edge counts, so their table,
    each entry's edges and fractions, is built once per (mp, mq) and kept
    in a bounded cache (_equal_time_steps); each breakpoint's distance is
    still _dist's arithmetic on the interpolated points, unrolled as _dist
    unrolls it when the curves are 2-d.
    """
    _check_pair(p, q, r)
    P, Q = p._points, q._points
    DP, DQ = p._edges[0], q._edges[0]
    mp, mq = len(P) - 1, len(Q) - 1
    if mp == 0 or mq == 0:
        # a single vertex stays put while the other curve visits its vertices
        for k in range(max(mp, mq) + 1):
            u_p, u_q = float(k) if mp else 0.0, float(k) if mq else 0.0
            if not _dist(_point_at(P, DP, u_p), _point_at(Q, DQ, u_q)) <= r:
                return _EQUAL_TIME_UNKNOWN
        return _EQUAL_TIME_NEAR
    steps = _equal_time_steps(mp, mq)
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
    rr, pairs = r * r, _minor_pairs(len(B[0]))
    cur = 0.0
    for x in A:
        e = int(cur)
        if e > nb - 2:
            e = nb - 2
        # Only the edge holding cur can clip the window at cur; on any later
        # edge e + lo > cur, so a nonempty window matches at e + lo.
        lo, hi = _ball_window(B[e], D[e], AA[e], x, rr, pairs)
        if lo <= hi:
            start = e + lo
            if start < cur:
                start = cur
            if start <= e + hi:
                cur = start
                continue
        for e in range(e + 1, nb - 1):
            lo, hi = _ball_window(B[e], D[e], AA[e], x, rr, pairs)
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


@dataclass(frozen=True)
class SimplVerifyParams:
    """Error budgets for the simplification pre-check at one radius r and
    epsilon eps, as for_radius derives them; r and eps are not kept.

    The negative check runs on aggressively simplified curves at the
    enlarged radius r_minus; the positive check on gently simplified
    curves at the shrunk radius r_plus. Both checks are sound: the
    simplification error mu is repaid by the radius adjustment.
    """

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
        return cls(mu_minus, mu_plus, r_minus, r_plus)


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


# A join reads one (r, eps) level per eps of its eps_list.
@lru_cache(maxsize=64, typed=True)
def _simpl_level(r: float, eps: float) -> tuple[SimplVerifyParams, VerificationOutcome,
                                                VerificationOutcome, VerificationOutcome]:
    """The budgets of one simplification level, SimplVerifyParams.for_radius(r,
    eps), and its Far, Near and Unknown outcomes, built once per (r, eps).
    A bad value raises on every call: the cache stores no exception."""
    par = SimplVerifyParams.for_radius(r, eps)
    stage = f"simpl-{eps:g}"
    return (par, VerificationOutcome(Verdict.FAR, stage),
            VerificationOutcome(Verdict.NEAR, stage), VerificationOutcome(Verdict.UNKNOWN, stage))


def verify_simpl(
    p: Curve, q: Curve, r: float, eps: float, copies: SimplifiedCopies | None = None
) -> VerificationOutcome:
    """Decide via simplified copies when the error budget allows; the
    verdict may be Unknown when neither check succeeds. The copies come
    from `copies` when given, else each curve is simplified here. The
    budgets, the stage name (simpl-<eps>) and the outcomes come from the
    level of (r, eps), built on its first use (_simpl_level)."""
    _check_pair(p, q, r)
    par, far, near, unknown = _simpl_level(r, eps)
    copy = simplify if copies is None else copies.get
    coarse = verify_heur(copy(p, par.mu_minus), copy(q, par.mu_minus), par.r_minus)
    if coarse.verdict is Verdict.FAR:
        return far
    fine = verify_heur(copy(p, par.mu_plus), copy(q, par.mu_plus), par.r_plus)
    if fine.verdict is Verdict.NEAR:
        return near
    return unknown


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
