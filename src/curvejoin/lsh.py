"""Randomly shifted grid hashing for curves and the tensored table index.

A curve is snapped to a randomly shifted grid (each vertex to its closest
grid vertex) and the resulting cell sequence, with consecutive duplicates
removed, is its signature. The index keeps L = L' * L' tables but snaps
each curve to only k * L' grids: two groups of L' slots, with ceil(k/2)
and floor(k/2) grids per slot, and table (i, j) concatenates slot i of
the first group with slot j of the second, so per-curve grid work drops
from k * L to k * sqrt(L).

Hashing is arrays, and the dataset is hashed in passes. `build_index`
walks the curves in blocks of whole curves under a vertex budget, so its
working memory stays bounded; a query is a one-curve block. One
`snap_signature` call snaps a block to all of its grids in one broadcast
and returns the cells with a mask that keeps the first vertex of each run
within each curve. A table's words are the mixed coordinates of each
grid's kept cells, with a separator between grids; their polynomial with
the odd multiplier a, in wrapping 64-bit arithmetic, is finished by a
multiply-shift to 32 bits. Only kept cells are mixed, and every (grid,
curve) polynomial is one segment of a single prefix sum over the block
(a is invertible mod 2^64, so the segments come out exact). Grids fold
into slots as (acc, a**count), and the polynomial of slot i followed by
slot j is acc_i * a**count_j + acc_j, so all L keys of a curve come from
one (L', 1) x (1, L') broadcast. The index is one (n, L) key matrix;
queries search one sorted run of (table, key) words derived from it. A
query that is a stored curve is not hashed or searched at all: its groups
of equal words are read from a table built once from the run.

Everything is derived deterministically from a 64-bit seed via
counter-based PRNG streams, one per (group, table slot, concatenation
slot), so indices are reproducible across platforms and processes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .curves import Curve, Dataset, check_positive

__all__ = [
    "IndexFormatError",
    "LshIndex",
    "LshParams",
    "ScoredCandidate",
    "build_index",
    "load_index",
    "query_scores",
    "save_index",
    "snap_signature",
]

MASK64 = (1 << 64) - 1

# word put before each grid's cells so block boundaries are positional
_SEPARATOR = 0x9E3779B97F4A7C15

# Vertices that build_index hashes in one block of whole curves, and keys
# that an index sorts in one chunk of tables.
_BLOCK_VERTICES = 1 << 10
_SORT_CHUNK = 1 << 16


class IndexFormatError(ValueError):
    """Raised when an index file is malformed or does not match the dataset."""


@dataclass(frozen=True)
class LshParams:
    """Hashing parameters; the table count is rounded up to a square.

    L is the requested table count at construction and the effective one
    (l_prime squared) afterwards.
    """

    delta: float
    k: int
    L: int
    d: int
    seed: int
    l_prime: int = field(init=False)

    def __post_init__(self):
        check_positive("delta", self.delta)
        if self.k < 1 or self.L < 1 or self.d < 1:
            raise ValueError("k, L, and d must be >= 1")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")
        lp = math.isqrt(self.L)
        if lp * lp < self.L:
            lp += 1
        object.__setattr__(self, "l_prime", lp)
        object.__setattr__(self, "L", lp * lp)


def snap_signature(shifts: np.ndarray, delta: float, p, starts=(0,)):
    """Snap curves to g grids at once: (g, N, d) cells and a (g, N) mask.

    p is a curve, or the (N, d) concatenated vertices of a block of curves
    whose first vertices sit at offsets starts. Row i of the (g, d) shifts
    offsets grid i, each entry in [0, delta); a vertex goes to its closest
    grid vertex, cell * delta + shift, rounding half up. The mask keeps the
    first vertex of every run of equal cells within a curve, so for one
    curve cells[i][keep[i]] is its signature on grid i.
    """
    vertices = p.vertices if isinstance(p, Curve) else p
    if shifts.shape[1] != vertices.shape[1]:
        raise ValueError(f"dimension mismatch: grid {shifts.shape[1]}, curve {vertices.shape[1]}")
    # coordinate-major (d, g, N), so numpy's inner loops run along the vertices
    x = np.ascontiguousarray(vertices.T)[:, None, :] - shifts.T[:, :, None]
    x /= delta
    x += 0.5
    cells = np.floor(x, out=x).astype(np.int64)
    keep = np.empty(cells.shape[1:], dtype=bool)
    np.not_equal(cells[0, :, 1:], cells[0, :, :-1], out=keep[:, 1:])
    for plane in cells[1:]:
        keep[:, 1:] |= plane[:, 1:] != plane[:, :-1]
    keep[:, starts] = True
    return cells.transpose(1, 2, 0), keep


def _stream(seed: int, group: int, slot: int, concat: int) -> np.random.Generator:
    # one counter-based stream per role keeps every draw reproducible
    ss = np.random.SeedSequence(seed, spawn_key=(group, slot, concat))
    return np.random.Generator(np.random.Philox(ss))


def _draw_grids(params: LshParams):
    """Both groups' shifts, then the fold's odd multiplier a, its inverse
    mod 2^64, and the mixers.

    Group 0 has ceil(k/2) grids per slot and group 1 floor(k/2); each is
    one (l_prime * grids per slot, d) array, slot by slot.
    """

    def shifts(group: int, per_slot: int) -> np.ndarray:
        rows = [
            _stream(params.seed, group, slot, c).uniform(0.0, params.delta, params.d)
            for slot in range(params.l_prime)
            for c in range(per_slot)
        ]
        return np.array(rows).reshape(-1, params.d)

    rng = _stream(params.seed, 2, 0, 0)
    a = int.from_bytes(rng.bytes(8), "little") | 1
    mixers = np.frombuffer(rng.bytes(8 * params.d), dtype="<u8").astype(np.uint64)
    return shifts(0, (params.k + 1) // 2), shifts(1, params.k // 2), a, pow(a, -1, 1 << 64), mixers


def dataset_fingerprint(dataset: Dataset) -> int:
    """Order-sensitive 64-bit checksum of the dataset's exact contents."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<QQ", dataset.n, dataset.d))
    for i in range(dataset.n):
        c = dataset[i]
        h.update(struct.pack("<Q", len(c)))
        h.update(np.ascontiguousarray(c.vertices).tobytes())
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True, eq=False)
class LshIndex:
    """Immutable L-table index over an (n, L) uint32 key matrix.

    The fields are the parameters, the keys and the fingerprint of the
    dataset they hash; a built and a loaded index hold the same values.
    keys[c, i * l_prime + j] is curve c's key in table (i, j). The sorted
    run of (table << 32) | key words, with the curve id of each word, is
    derived from keys. The grid shifts and the fold's multiplier and
    mixers, `_grids`, are re-derived from params on the first hash of a
    curve (an external query, or load_index's check of row 0), so an index
    queried only by stored rows, as a self join's is, never draws them
    again after build_index. The group table `_groups` is built from the
    run on the first query that names a stored row, so building or loading
    an index never pays for it, and an index queried only by external
    curves never builds it.
    """

    params: LshParams
    keys: np.ndarray
    fingerprint: int
    _run: np.ndarray = field(init=False, repr=False)
    _ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # The run is each table's keys, stably sorted, table after table;
        # sorting a chunk of tables at a time bounds the temporary memory.
        n, L = self.keys.shape
        run = np.empty((L, n), dtype=np.uint64)
        ids = np.empty((L, n), dtype=np.intp)
        step = max(1, _SORT_CHUNK // n)
        for lo in range(0, L, step):
            chunk = self.keys[:, lo:lo + step].T.copy()
            order = np.argsort(chunk, axis=1, kind="stable")
            ids[lo:lo + step] = order
            run[lo:lo + step] = np.take_along_axis(chunk, order, axis=1)
        run |= _table_words(L)[:, None]
        object.__setattr__(self, "_run", run.ravel())
        object.__setattr__(self, "_ids", ids.ravel())

    @cached_property
    def _grids(self) -> tuple:
        """The grid shifts, the fold's multiplier, its inverse and the
        mixers, drawn from params on the first hash of a curve."""
        return _draw_grids(self.params)

    @cached_property
    def _groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Where each stored row's group of equal words starts in the run,
        and how many words it has: two read-only (n, L) arrays, indexed by
        row and table: 12 bytes per key, an intp start and an int32
        length. The words carry their table, so no group crosses one."""
        n, L = self.keys.shape
        new = np.empty(len(self._run), dtype=bool)
        new[0] = True
        np.not_equal(self._run[1:], self._run[:-1], out=new[1:])
        first = np.flatnonzero(new)
        size = np.diff(first, append=len(new))
        # run position t * n + j holds table t's word of row _ids[t * n + j]
        at = self._ids.reshape(L, n), np.arange(L)[:, None]
        lo, sizes = np.empty((n, L), dtype=np.intp), np.empty((n, L), dtype=np.int32)
        lo[at] = np.repeat(first, size).reshape(L, n)
        sizes[at] = np.repeat(size, size).reshape(L, n)
        lo.setflags(write=False)
        sizes.setflags(write=False)
        return lo, sizes


def _table_words(L: int) -> np.ndarray:
    return np.arange(L, dtype=np.uint64) << 32


@dataclass(frozen=True)
class ScoredCandidate:
    """A colliding curve: collisions out of L tables, score = collisions/L."""

    curve_id: int
    collisions: int
    score: float


def _powers(base: int, n: int) -> np.ndarray:
    """base**0, ..., base**(n - 1) in wrapping 64-bit arithmetic."""
    out = np.full(n, base, dtype=np.uint64)
    out[0] = 1
    return out.cumprod()


def _table_keys(params: LshParams, grids, vertices: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The (n, L) keys of a block of n curves, from one snap of k * l_prime grids.

    vertices are the curves' concatenated vertices and starts the offset
    of each curve's first vertex. A kept cell's d mixed coordinates fold
    into one cell word, so cells fold with base b = a**d. The cells of
    every (grid, curve) pair are one segment of a single prefix sum of
    word * b**-rank, and a segment's fold is its difference of prefix sums
    times b**rank of its last cell; a is odd, so b is invertible mod 2^64
    and this is exact in wrapping arithmetic. A slot folds its grids in
    order, each joining with its separator in closed form as
    (acc * a + separator) * b**cells + segment; the separator of the first
    grid of a group 0 slot is masked to 0. Table (i, j) folds slot i of
    group 0, then slot j of group 1, as acc_i * a**count_j + acc_j.
    """
    shifts0, shifts1, a, a_inv, mixers = grids
    lp, d, n = params.l_prime, params.d, len(starts)
    per0, per1 = len(shifts0) // lp, len(shifts1) // lp
    cells, keep = snap_signature(np.concatenate((shifts0, shifts1)), params.delta, vertices, starts)
    # the kept cells, coordinate by coordinate, in (grid, curve, vertex) order
    z = np.compress(keep.ravel(), cells.transpose(2, 0, 1).reshape(d, -1), axis=1)
    z = z.view(np.uint64) ^ mixers[:, None]
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    words = z[0]
    for coord in z[1:]:
        words = words * a + coord
    size = len(words)
    powers = _powers(pow(a, d, 1 << 64), size + 1)  # b**i
    prefix = np.zeros(size + 1, dtype=np.uint64)
    np.cumsum(words * _powers(pow(a_inv, d, 1 << 64), size), out=prefix[1:])
    count = np.add.reduceat(keep, starts, axis=1, dtype=np.intp)  # (g, n) cells
    end = count.cumsum().reshape(count.shape)
    seg = (prefix[end] - prefix[end - count]) * powers[end - 1]

    def slots(lo: int, per: int, lead: bool):
        # grids lo + slot * per + t, t < per, with a separator before each
        # but the first unless lead is set
        acc, total = np.zeros((lp, n), np.uint64), np.zeros((lp, n), np.intp)
        for t in range(per):
            rows = slice(lo + t, lo + lp * per, per)
            sep = _SEPARATOR if t or lead else 0
            acc = (acc * a + sep) * powers[count[rows]] + seg[rows]
            total += count[rows]
        return acc.T, total.T

    acc0, _ = slots(0, per0, False)
    acc1, total1 = slots(lp * per0, per1, True)
    tail = powers[total1] * pow(a, per1, 1 << 64)  # a**count of each group 1 slot
    tables = acc0[:, :, None] * tail[:, None, :] + acc1[:, None, :]
    # multiply-shift: the top 32 bits of a * acc mod 2^64
    return ((a * tables) >> 32).astype("<u4").reshape(n, -1)


def build_index(dataset: Dataset, params: LshParams) -> LshIndex:
    """Hash every curve into the L tables; deterministic given the seed.

    Curves are hashed in blocks of whole curves, at most _BLOCK_VERTICES
    vertices each unless one curve alone has more, so working memory stays
    bounded whatever the dataset's size.
    """
    if params.d != dataset.d:
        raise ValueError(f"params dimension {params.d} != dataset dimension {dataset.d}")
    grids = _draw_grids(params)
    keys = np.empty((dataset.n, params.L), dtype="<u4")
    ends = np.cumsum([len(c) for c in dataset])
    lo = 0
    while lo < dataset.n:
        base = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK_VERTICES, "right")))
        vertices = np.concatenate([c.vertices for c in dataset.curves[lo:hi]])
        starts = np.concatenate(([0], ends[lo:hi - 1] - base))
        keys[lo:hi] = _table_keys(params, grids, vertices, starts)
        lo = hi
    keys.setflags(write=False)
    return LshIndex(params, keys, dataset_fingerprint(dataset))


def query_scores(idx: LshIndex, q: Curve, row: int | None = None) -> list[ScoredCandidate]:
    """All curves colliding with q in at least one table, cheapest first.

    Scores are collision fractions in (0, 1]; the result is sorted by
    (score ascending, id ascending). By default q is hashed and each of
    its L words is searched in the run. With row set, q must be the curve
    stored as that row of idx.keys: each table's group of equal words is
    read from the index's group table (built on the first such call), so
    q is neither hashed nor searched, and the result is the same.
    """
    if q.dim != idx.params.d:
        raise ValueError(f"dimension mismatch: query {q.dim}, index {idx.params.d}")
    L = idx.params.L
    if row is None:
        words = _table_words(L) | _table_keys(idx.params, idx._grids, q.vertices, [0])[0]
        lo = np.searchsorted(idx._run, words, "left")
        sizes = np.searchsorted(idx._run, words, "right") - lo
    elif 0 <= row < len(idx.keys):
        starts, lengths = idx._groups
        lo, sizes = starts[row], lengths[row]
    else:
        raise ValueError(f"row {row} is not a stored row of an index over {len(idx.keys)} curves")
    # positions lo[t], ..., lo[t] + sizes[t] - 1 of every table t, in one array
    pos = np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
    counts = np.bincount(idx._ids[pos], minlength=len(idx.keys))
    cids = np.flatnonzero(counts)
    cids = cids[np.argsort(counts[cids], kind="stable")]
    return [ScoredCandidate(cid, n, n / L) for cid, n in zip(cids.tolist(), counts[cids].tolist())]


# ---------------------------------------------------------------------------
# Binary index files: magic, version, header, then the raw (n, L) key matrix

_MAGIC = b"FRSH"
_VERSION = b"2"
_HEADER = struct.Struct("<dIIIIQQQ")
_KEYS_AT = len(_MAGIC) + len(_VERSION) + _HEADER.size


def save_index(idx: LshIndex, path) -> None:
    """Write the index: magic, version, params, fingerprint, n, then the keys."""
    p = idx.params
    header = _HEADER.pack(p.delta, p.k, p.L, p.l_prime, p.d, p.seed, idx.fingerprint, len(idx.keys))
    Path(path).write_bytes(_MAGIC + _VERSION + header + idx.keys.tobytes())


def load_index(path, dataset: Dataset) -> LshIndex:
    """Read an index and re-derive its grids; refuses stale or foreign files,
    and a header whose parameters do not reproduce the stored keys of the
    dataset's first curve. Corrupt keys in the other rows go undetected."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    if data[4:5] != _VERSION:
        raise IndexFormatError(f"{path}: unsupported index version {data[4:5]!r}")
    if len(data) < _KEYS_AT:
        raise IndexFormatError(f"{path}: truncated index file")
    delta, k, L, l_prime, d, seed, fingerprint, n = _HEADER.unpack_from(data, 5)
    try:
        params = LshParams(delta, k, L, d, seed)
    except ValueError as exc:
        raise IndexFormatError(f"{path}: bad parameters in header: {exc}") from exc
    if params.L != L or params.l_prime != l_prime:
        raise IndexFormatError(f"{path}: inconsistent table counts in header")
    if d != dataset.d:
        raise IndexFormatError(f"{path}: index dimension {d} != dataset dimension {dataset.d}")
    if len(data) != _KEYS_AT + 4 * n * L:
        raise IndexFormatError(
            f"{path}: {len(data)} bytes, expected {_KEYS_AT + 4 * n * L} for {n} curves x {L} tables"
        )
    actual = dataset_fingerprint(dataset)
    if actual != fingerprint or n != dataset.n:
        raise IndexFormatError(
            f"{path}: dataset fingerprint mismatch (index {fingerprint:#018x} "
            f"over {n} curves, data {actual:#018x} over {dataset.n})"
        )
    keys = np.frombuffer(data, dtype="<u4", offset=_KEYS_AT).reshape(n, L)
    idx = LshIndex(params, keys, fingerprint)
    if not np.array_equal(_table_keys(params, idx._grids, dataset[0].vertices, [0])[0], keys[0]):
        raise IndexFormatError(f"{path}: the header's parameters do not reproduce the stored keys")
    return idx
