"""Shared generators and checkers for the test suite."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from curvejoin import (
    Curve,
    Dataset,
    JoinReport,
    QueryRecord,
    ScoredCandidate,
    Verdict,
    build_index,
    densify,
    discrete_frechet,
    metrics,
    range_query,
    snap_signature,
    verify,
)
from curvejoin import frechet, lsh
from curvejoin.curves import _FIELD_SPLIT, ParseError, _parse_floats
from curvejoin.frechet import DEFAULT_EPS_LIST


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


def acceptance_corpus():
    """The acceptance gate's 1000 seeded (p, q, r, discrete distance)
    instances: 1-d and 2-d pairs with r scattered around the discrete
    distance."""
    rng = np.random.default_rng(20260814)
    out = []
    for i in range(1000):
        d = 1 + i % 2
        p, q = random_pair(rng, d)
        ddf = discrete_frechet(p, q)
        r = float(ddf * rng.uniform(0.4, 1.6) + rng.uniform(0.0, 0.2))
        if r <= 0.0:
            r = 0.1
        out.append((p, q, r, ddf))
    return out


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


def densified_twins(rng, m: int = 12, length: float = 10.0, amp: float = 0.2,
                    edge: float = 0.1) -> tuple[Curve, Curve]:
    """A 2-d walk of arc length `length` and a copy moved by up to amp with
    the same endpoints, densified to edges of at most edge and 1.1 * edge:
    about length / edge vertices each."""
    base = random_walk_curve(rng, 0, m, 2)
    v = base.vertices * (length / np.linalg.norm(np.diff(base.vertices, axis=0), axis=1).sum())
    w = perturbed_copy(rng, Curve(0, v), 1, amp).vertices.copy()
    w[[0, -1]] = v[[0, -1]]
    return densify(Curve(0, v), edge), densify(Curve(1, w), 1.1 * edge)


def dataset_of(curves) -> Dataset:
    return Dataset(list(curves))


def walk_families(rng, families: int, d: int, r: float = 1.0, m: int = 8,
                  amps=(0.3, 0.7, 1.0, 1.3), half_grid: bool = False,
                  repeats: bool = False) -> Dataset:
    """Families of random walks 100r apart: a walk plus copies moved by up
    to each of amps times r, so the pair distances straddle r.

    half_grid rounds every vertex to a multiple of r/2, and repeats doubles
    a random vertex of each curve; both make equal vertex distances, which
    tie greedy_upper's moves and put pairs at distance exactly r.
    """
    curves = []
    for f in range(families):
        start = np.zeros(d)
        start[0] = 100.0 * r * f
        walk = random_walk_curve(rng, 0, m, d, step=0.5 * r, start=start)
        for c in [walk] + [perturbed_copy(rng, walk, 0, a * r) for a in amps]:
            v = c.vertices
            if half_grid:
                v = np.round(v * (2.0 / r)) * (r / 2.0)
            if repeats:
                k = int(rng.integers(len(v)))
                v = np.insert(v, k, v[k], axis=0)
            curves.append(Curve(len(curves), v))
    return Dataset(curves)


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


# ---------------------------------------------------------------------------
# Oracle for the array hashing in curvejoin.lsh: per-grid snapping and a
# streaming Python-int fold, one word at a time, drawn from the same
# counter-based streams but sharing no code with the library.

MASK64 = (1 << 64) - 1
SEPARATOR = 0x9E3779B97F4A7C15


def _stream(seed: int, group: int, slot: int, concat: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(group, slot, concat))
    return np.random.Generator(np.random.Philox(ss))


def draw_hash(params):
    """Per-slot grid shifts of both groups, and the fold's (a, mixers)."""
    def group(g: int, per_slot: int) -> list:
        return [[_stream(params.seed, g, slot, c).uniform(0.0, params.delta, params.d)
                 for c in range(per_slot)] for slot in range(params.l_prime)]

    rng = _stream(params.seed, 2, 0, 0)
    a = int.from_bytes(rng.bytes(8), "little") | 1
    raw = rng.bytes(8 * params.d)
    mixers = [int.from_bytes(raw[8 * i:8 * i + 8], "little") for i in range(params.d)]
    return group(0, (params.k + 1) // 2), group(1, params.k // 2), a, mixers


def snap_block(vertices: np.ndarray, shift, delta: float) -> list:
    """Signature on one grid: each vertex's closest grid vertex, with
    consecutive duplicates dropped."""
    out = []
    for v in vertices:
        cell = tuple(math.floor((float(x) - float(t)) / delta + 0.5) for x, t in zip(v, shift))
        if not out or out[-1] != cell:
            out.append(cell)
    return out


def mix_word(cell: int, mixer: int) -> int:
    z = (cell & MASK64) ^ mixer
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_key(a: int, mixers, blocks) -> int:
    """One-pass 32-bit key of a k-grid signature: Horner's rule over the
    mixed cell coordinates, a separator between blocks, then multiply-shift."""
    acc = 0
    for bi, block in enumerate(blocks):
        words = [SEPARATOR] if bi else []
        words += [mix_word(x, mixers[u]) for cell in block for u, x in enumerate(cell)]
        for w in words:
            acc = (acc * a + w) & MASK64
    return ((a * acc) & MASK64) >> 32


def fold_slots(cells: np.ndarray, keep: np.ndarray, slots: int, lead: bool, a: int, mixers):
    """Per slot, the polynomial state (acc, a**count) of its grids' words.

    A slot holds g / slots consecutive grids. The words of one grid are a
    separator, then the mixed coordinates of its kept cells; the first
    separator of a slot counts only when lead is set. acc is the sum of
    word * a**(kept words after it), in wrapping 64-bit arithmetic, from
    one masked fold over a power table.
    """
    g, m, d = cells.shape
    z = cells.view(np.uint64) ^ mixers
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    kept = np.empty((g, 1 + m * d), dtype=bool)
    kept[:, 0] = True
    kept[:, 1:] = np.repeat(keep, d, axis=1)
    if not lead:
        kept[:: g // slots, 0] = False
    words = np.empty(kept.shape, dtype=np.uint64)
    words[:, 0] = SEPARATOR
    words[:, 1:] = z.reshape(g, m * d)
    words = np.where(kept, words, 0).reshape(slots, -1)
    kept = kept.reshape(slots, -1)
    count = kept.sum(axis=1)
    powers = np.full(kept.shape[1] + 1, a, dtype=np.uint64)
    powers[0] = 1
    powers = powers.cumprod()  # a**i mod 2^64
    acc = (words * powers[count[:, None] - kept.cumsum(axis=1)]).sum(axis=1)
    return acc, powers[count]


def count_snaps(monkeypatch) -> list[int]:
    """Patch curvejoin.lsh.snap_signature to record, per call, the (grid,
    curve) snaps it makes: len(shifts) * len(starts). Returns the list."""
    snapped = []
    snap = lsh.snap_signature

    def counting(shifts, delta, p, starts=(0,)):
        snapped.append(len(shifts) * len(starts))
        return snap(shifts, delta, p, starts)

    monkeypatch.setattr(lsh, "snap_signature", counting)
    return snapped


def count_cascade_calls(monkeypatch) -> Counter:
    """Patch decide_continuous, simplify, verify_heur and verify_simpl where
    curvejoin.frechet looks them up, as the benchmark's trace does, to count
    their calls by name. "outside verify_simpl" counts the verify_heur
    calls that no verify_simpl call made. Returns the counter."""
    counts: Counter = Counter()
    depth = [0]

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            if name == "verify_heur" and not depth[0]:
                counts["outside verify_simpl"] += 1
            nested = name == "verify_simpl"
            depth[0] += nested
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= nested
        return call

    for name in ("decide_continuous", "simplify", "verify_heur", "verify_simpl"):
        monkeypatch.setattr(frechet, name, counted(name, getattr(frechet, name)))
    return counts


def table_keys_per_curve(params, grids, p: Curve) -> np.ndarray:
    """Oracle for the block kernel lsh._table_keys: one curve's L keys from
    its own snap and one masked fold over all words per group."""
    shifts0, shifts1, a, _, mixers = grids
    lp, g0 = params.l_prime, len(shifts0)
    cells, keep = snap_signature(np.concatenate((shifts0, shifts1)), params.delta, p)
    acc0, _ = fold_slots(cells[:g0], keep[:g0], lp, False, a, mixers)
    acc1, pow1 = fold_slots(cells[g0:], keep[g0:], lp, True, a, mixers)
    acc = acc0[:, None] * pow1 + acc1
    return ((a * acc) >> 32).astype("<u4").ravel()


class DictIndex:
    """Oracle for the key-matrix index: one dict of id lists per table.

    Table (i, j) hashes the concatenated signature of slot i of the first
    group and slot j of the second in one streaming pass, and scoring
    counts collisions with dict lookups.
    """

    def __init__(self, dataset: Dataset, params):
        self.params = params
        self.hash = draw_hash(params)
        self.tables = [dict() for _ in range(params.L)]
        for c in dataset:
            for t, key in enumerate(self.keys(c)):
                self.tables[t].setdefault(key, []).append(c.id)

    def keys(self, p: Curve) -> list[int]:
        group0, group1, a, mixers = self.hash
        delta = self.params.delta
        sigs0 = [[snap_block(p.vertices, t, delta) for t in slot] for slot in group0]
        sigs1 = [[snap_block(p.vertices, t, delta) for t in slot] for slot in group1]
        return [stream_key(a, mixers, s0 + s1) for s0 in sigs0 for s1 in sigs1]

    def query_scores(self, q: Curve) -> list:
        counts: dict[int, int] = {}
        for t, key in enumerate(self.keys(q)):
            for cid in self.tables[t].get(key, ()):
                counts[cid] = counts.get(cid, 0) + 1
        L = self.params.L
        return [ScoredCandidate(cid, n, n / L)
                for cid, n in sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))]


# ---------------------------------------------------------------------------
# The loop forms of the scalar steps. curvejoin's _dist, _ball_window and
# equal_time_upper unroll their coordinate loops for 2-d curves; these keep
# the loops, for every d, as the oracles of those branches and of every
# oracle below that needs a vertex distance.


def dist_loop(a, b) -> float:
    """Oracle: curves._dist's loop, the squared coordinate differences added
    in coordinate order."""
    s = 0.0
    for x, y in zip(a, b):
        t = x - y
        s += t * t
    return math.sqrt(s)


def ball_window_loop(start, delta, aa: float, point, rr: float) -> tuple[float, float]:
    """Oracle: frechet._ball_window's loops, over the coordinates and over the
    2x2 minors (u, v), u < v, in order. delta and aa are the edge's delta and
    squared length, rr is r * r."""
    w = [s - x for s, x in zip(start, point)]
    d = len(w)
    if aa == 0.0:
        ww = w[0] * w[0]
        for u in range(1, d):
            ww = ww + w[u] * w[u]
        return (0.0, 1.0) if ww <= rr else (math.inf, -math.inf)
    wd = w[0] * delta[0]
    for u in range(1, d):
        wd = wd + w[u] * delta[u]
    gram = 0.0
    for u in range(d):
        for v in range(u + 1, d):
            minor = delta[u] * w[v] - delta[v] * w[u]
            gram = gram + minor * minor
    disc = aa * rr - gram
    if not disc >= 0.0:
        return math.inf, -math.inf
    sq = math.sqrt(disc)
    lo = (-wd - sq) / aa
    hi = (-wd + sq) / aa
    return 0.0 if lo <= 0.0 else lo, 1.0 if hi >= 1.0 else hi


def equal_time_step_dist_loop(a, da, b, db, f: float, g: float) -> float:
    """Oracle: the distance of one equal-time breakpoint, a + f * da against
    b + g * db, with _dist's loop over the coordinates."""
    s = 0.0
    for x, dx, y, dy in zip(a, da, b, db):
        t = (x + f * dx) - (y + g * dy)
        s += t * t
    return math.sqrt(s)


# ---------------------------------------------------------------------------
# Oracles for the free-space decision, its windows and the monotone position
# scan: the full row-by-row sweep, the row window kernel and the per-edge
# numpy scan that the band sweep, the scalar window and the lazy scan in
# curvejoin.frechet replace. Each must agree with the library bit for bit.


def _ball_windows_rows(w: np.ndarray, deltas: np.ndarray, r: float):
    """Per row, the parameter window where ||w + t*delta|| <= r, clipped to
    [0, 1]; empty windows have lo > hi."""
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


def decide_continuous_full(p: Curve, q: Curve, r: float) -> bool:
    """Oracle: the free-space decision swept over every one of the m*n cells.
    The endpoint test uses the library's vertex distance, curves._dist (in
    its loop form), so the oracle and decide_continuous agree at knife-edge
    radii."""
    P, Q = p.vertices, q.vertices
    if (dist_loop(P[0].tolist(), Q[0].tolist()) > r
            or dist_loop(P[-1].tolist(), Q[-1].tolist()) > r):
        return False
    if len(P) == 1 or len(Q) == 1:
        a, V = (P[0], Q) if len(P) == 1 else (Q[0], P)
        diff = V - a
        return bool(np.sqrt((diff * diff).sum(axis=1)).max() <= r)
    if len(Q) > len(P):
        P, Q = Q, P

    m, n = len(P), len(Q)
    q_starts, q_deltas = Q[:-1], Q[1:] - Q[:-1]
    p_deltas = P[1:] - P[:-1]
    hlo, hhi = _ball_windows_rows(q_starts - P[0], q_deltas, r)
    entry = [None] * (n - 1)
    entry[0] = 0.0
    for j in range(1, n - 1):
        if entry[j - 1] is not None and hhi[j - 1] == 1.0 and hlo[j] == 0.0:
            entry[j] = 0.0
        else:
            break
    leftline = 0.0
    rightline = None
    prev_vhi_last = prev_vhi0 = None
    for i in range(m - 1):
        vlo, vhi = _ball_windows_rows(
            P[i] - Q, np.broadcast_to(p_deltas[i], Q.shape), r)
        if i > 0:
            if leftline is not None and prev_vhi0 == 1.0 and vlo[0] == 0.0:
                leftline = 0.0
            else:
                leftline = None
        hlo2, hhi2 = _ball_windows_rows(q_starts - P[i + 1], q_deltas, r)
        left = leftline
        new_entry = [None] * (n - 1)
        for j in range(n - 1):
            bot = entry[j]
            if left is not None:
                if hlo2[j] <= hhi2[j]:
                    new_entry[j] = hlo2[j]
            elif bot is not None:
                e = bot if bot > hlo2[j] else hlo2[j]
                if e <= hhi2[j]:
                    new_entry[j] = e
            if bot is not None:
                nxt = vlo[j + 1] if vlo[j + 1] <= vhi[j + 1] else None
            elif left is not None:
                e = left if left > vlo[j + 1] else vlo[j + 1]
                nxt = e if e <= vhi[j + 1] else None
            else:
                nxt = None
            left = nxt
        candidates = []
        if left is not None:
            candidates.append(left)
        if rightline is not None and prev_vhi_last == 1.0 and vlo[n - 1] == 0.0:
            candidates.append(vlo[n - 1])
        rightline = min(candidates) if candidates else None
        prev_vhi_last = vhi[n - 1]
        prev_vhi0 = vhi[0]
        entry = new_entry
        hlo, hhi = hlo2, hhi2
    if rightline is not None and prev_vhi_last == 1.0:
        return True
    at_end = False
    for j in range(n - 1):
        arrived = entry[j] is not None
        continued = at_end and hlo[j] == 0.0
        at_end = (arrived or continued) and hhi[j] == 1.0
    return at_end


def _segment_free_window(a, b0, delta, r):
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


def monotone_position_scan_scalar(A: np.ndarray, B: np.ndarray, r: float) -> bool:
    """Oracle: the monotone position scan, one edge window at a time."""
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


def negative_filter_far_scalar(p: Curve, q: Curve, r: float) -> bool:
    """Oracle: True when the scalar scan certifies Far in either direction."""
    return not (monotone_position_scan_scalar(p.vertices, q.vertices, r)
                and monotone_position_scan_scalar(q.vertices, p.vertices, r))


# ---------------------------------------------------------------------------
# The Near certificates' traversals, rebuilt. curvejoin.frechet's
# equal_time_upper and greedy_upper return only a verdict; these return the
# positions they visit, which assert_valid_witness checks.


def greedy_traversal(p: Curve, q: Curve, r: float) -> list | None:
    """Oracle: greedy_upper's walk as (i, j) vertex positions, or None where
    the library answers Unknown. From (i, j) it takes the closest of
    (i+1, j+1), (i+1, j), (i, j+1), the first of them at a tie; distances
    are _dist's (in its loop form), so verdicts compare exactly."""
    P, Q = p.vertices.tolist(), q.vertices.tolist()
    if dist_loop(P[0], Q[0]) > r:
        return None
    i = j = 0
    path = [(0.0, 0.0)]
    while i < len(P) - 1 or j < len(Q) - 1:
        moves = [(a, b) for a, b in ((i + 1, j + 1), (i + 1, j), (i, j + 1))
                 if a < len(P) and b < len(Q)]
        i, j = min(moves, key=lambda move: dist_loop(P[move[0]], Q[move[1]]))
        if dist_loop(P[i], Q[j]) > r:
            return None
        path.append((float(i), float(j)))
    return path


# Oracles for equal_time_upper: the walk as it was computed on every call
# before the library kept a breakpoint table per (mp, mq), and the
# traversal as arrays.


def equal_time_walk_dists(p: Curve, q: Curve) -> list[float]:
    """Oracle: every breakpoint distance of the per-call merged-set walk, in
    traversal order. The merged set is rebuilt and sorted here, and each
    breakpoint's edges and fractions derived from k, with the library's
    arithmetic: u_p = k / mq, i = int(u_p) clamped to the last edge, the
    point P[i] + (u_p - i) * DP[i], and _dist's sum in its loop form. The
    last breakpoint is the distance of the true last vertices, not of
    P[mp - 1] + 1.0 * DP[mp - 1] and its q twin. A single-vertex curve stays
    put while the other visits its vertices. equal_time_upper is Near
    exactly when every distance is <= r."""
    P, Q = p.vertices.tolist(), q.vertices.tolist()
    DP = [[b - a for a, b in zip(s, e)] for s, e in zip(P, P[1:])]
    DQ = [[b - a for a, b in zip(s, e)] for s, e in zip(Q, Q[1:])]
    mp, mq = len(P) - 1, len(Q) - 1

    def at(V, D, u):
        if len(V) == 1:
            return V[0]
        i = min(int(u), len(V) - 2)
        return [a + (u - i) * b for a, b in zip(V[i], D[i])]

    if mp == 0 or mq == 0:
        return [dist_loop(at(P, DP, float(k) if mp else 0.0), at(Q, DQ, float(k) if mq else 0.0))
                for k in range(max(mp, mq))] + [dist_loop(P[-1], Q[-1])]
    out = []
    for k in sorted({*range(0, mp * mq + 1, mq), *range(0, mp * mq + 1, mp)})[:-1]:
        u_p, u_q = k / mq, k / mp
        i, j = int(u_p), int(u_q)
        if i == mp:
            i -= 1
        if j == mq:
            j -= 1
        out.append(equal_time_step_dist_loop(P[i], DP[i], Q[j], DQ[j], u_p - i, u_q - j))
    return out + [dist_loop(P[-1], Q[-1])]


def bbox_far_arrays(p: Curve, q: Curve, r: float) -> bool:
    """Oracle: bbox_filter's Far test on the corner arrays, as computed on
    every call before the library kept the corners as floats."""
    P, Q = p.vertices, q.vertices
    return bool(np.abs(P.min(axis=0) - Q.min(axis=0)).max() > r
                or np.abs(P.max(axis=0) - Q.max(axis=0)).max() > r)


def _curve_at(V: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate a polyline at fractional vertex indices (vectorized)."""
    if len(V) == 1:
        return np.broadcast_to(V[0], (len(u), V.shape[1]))
    i0 = np.clip(np.floor(u).astype(np.int64), 0, len(V) - 2)
    frac = (u - i0)[:, None]
    return V[i0] + frac * (V[i0 + 1] - V[i0])


def equal_time_max_arrays(p: Curve, q: Curve) -> tuple[float, list]:
    """Oracle: the largest pair distance of the uniform-speed traversal over
    the merged breakpoints, and the breakpoints as (u_p, u_q) positions. The
    last breakpoint's distance is that of the true last vertices."""
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
        nums = np.union1d(np.arange(mp + 1, dtype=np.int64) * mq,
                          np.arange(mq + 1, dtype=np.int64) * mp)
        u_p = nums / float(mq)
        u_q = nums / float(mp)
    diff = _curve_at(P, u_p) - _curve_at(Q, u_q)
    diff[-1] = P[-1] - Q[-1]
    dmax = float(np.sqrt((diff * diff).sum(axis=1)).max())
    return dmax, list(zip(u_p.tolist(), u_q.tolist()))


# ---------------------------------------------------------------------------
# Oracle for curvejoin.frechet.verify: the cascade that runs every
# simplification level through verify_simpl, one level after the other, and
# then the final verify_heur. The steps are looked up on the module, so a
# test that counts calls there counts this cascade's calls too.


def verify_ladder(p: Curve, q: Curve, r: float, eps_list=DEFAULT_EPS_LIST, copies=None):
    frechet._check_radius(r)
    frechet.check_eps_list(eps_list)
    out = frechet.endpoints_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    out = frechet.bbox_filter(p, q, r)
    if out.verdict is not Verdict.UNKNOWN:
        return out
    if r > 0:
        for eps in eps_list:
            out = frechet.verify_simpl(p, q, r, eps, copies)
            if out.verdict is not Verdict.UNKNOWN:
                return out
    return frechet.verify_heur(p, q, r)


# ---------------------------------------------------------------------------
# Oracles for the self join and the exact join in curvejoin.engine: the
# two-sided join, in which each side's range query runs its own cascade on
# every candidate it selects, and the exact join as one verify per pair.


def self_join_two_sided(dataset: Dataset, params, cfg, truth=None):
    """Oracle: one range query per curve, each deciding every candidate it
    selects with a fresh verify(lower-id curve, higher-id curve), with no
    memo and no store of copies. A pair's slot goes to the first verified
    verdict in query-id order; a pair is reported when some side kept it
    and no side verified it Far."""
    from curvejoin.engine import JoinReport, metrics, range_query
    from curvejoin.lsh import build_index

    def decide(p, q):
        lo, hi = (p, q) if p.id < q.id else (q, p)
        return verify(lo, hi, cfg.r, cfg.eps_list)

    idx = build_index(dataset, params)
    records = tuple(
        QueryRecord(c.id, range_query(idx, dataset, c, cfg, exclude_id=c.id,
                                      decide=decide), 0.0)
        for c in dataset)
    decided: dict = {}
    removed: set = set()
    positive: set = set()
    for rec in records:
        for dec in rec.result.kept + rec.result.rejected:
            pair = (min(rec.query_id, dec.curve_id), max(rec.query_id, dec.curve_id))
            if dec.verdict == "unverified":
                decided.setdefault(pair, ("unverified-positive", "unverified"))
            elif decided.get(pair, (None, "unverified"))[1] == "unverified":
                decided[pair] = (dec.stage, dec.verdict)
            (removed if dec.verdict == "far" else positive).add(pair)
    pairs = tuple(sorted(positive - removed))
    rep_metrics = metrics(pairs, truth) if truth is not None else None
    return JoinReport(dataset.n, params, cfg, records, pairs, decided, {},
                      rep_metrics, 0.0, 0.0)


def exact_join_per_pair(dataset: Dataset, r: float, eps_list=DEFAULT_EPS_LIST) -> tuple:
    """Oracle: every unordered pair through verify, one pair at a time."""
    out = []
    for i in range(dataset.n):
        for j in range(i + 1, dataset.n):
            if verify(dataset[i], dataset[j], r, eps_list).verdict is Verdict.NEAR:
                out.append((i, j))
    return tuple(out)


# ---------------------------------------------------------------------------
# Oracle for the text readers in curvejoin.curves: every line is stripped,
# then split with the field pattern, with no str.split path for comma-free
# lines. Each returns the parsed rows or raises the library's ParseError
# text.


def series_rows_oracle(path, skip_first_field: bool = False) -> list[list[float]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = _FIELD_SPLIT.split(line)
            if skip_first_field:
                fields = fields[1:]
                if not fields:
                    raise ParseError(f"{path}:{lineno}: empty curve after label skip")
            rows.append(_parse_floats(fields, path, lineno))
    if not rows:
        raise ParseError(f"{path}: no curves found")
    return rows


def trajectory_rows_oracle(path) -> list[list[float]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = _FIELD_SPLIT.split(line)
            if len(fields) != 2:
                raise ParseError(
                    f"{path}:{lineno}: expected 'x y' pair, got {len(fields)} fields"
                )
            rows.append(_parse_floats(fields, path, lineno))
    if not rows:
        raise ParseError(f"{path}: empty trajectory")
    return rows
