"""Randomly shifted grid hashing for curves and the tensored table index.

A curve is snapped to a randomly shifted grid (each vertex to its closest
grid vertex) and the resulting cell sequence, with consecutive duplicates
removed, is its signature. The index keeps L = L' * L' tables but snaps
each curve to only k * L' grids: two groups of L' slots, with ceil(k/2)
and floor(k/2) grids per slot, and table (i, j) concatenates slot i of
the first group with slot j of the second, so per-curve grid work drops
from k * L to k * sqrt(L).

Hashing is arrays. `snap_signature` snaps a curve to all of its grids in
one broadcast and returns the cells with a mask that keeps the first
vertex of each run. A table's words are the mixed coordinates of each
grid's kept cells, with a separator between grids; their polynomial with
the odd multiplier a, in wrapping 64-bit arithmetic, is finished by a
multiply-shift to 32 bits. One masked fold over a power table turns each
slot's words into (acc, a**count), and the polynomial of slot i followed
by slot j is acc_i * a**count_j + acc_j, so all L keys come from one
(L', 1) x (1, L') broadcast. The index is one (n, L) key matrix; queries search one sorted
run of (table, key) words derived from it.

Everything is derived deterministically from a 64-bit seed via
counter-based PRNG streams, one per (group, table slot, concatenation
slot), so indices are reproducible across platforms and processes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .curves import Curve, Dataset, check_positive

__all__ = [
    "IndexFormatError",
    "LshIndex",
    "LshParams",
    "ScoredCandidate",
    "build_index",
    "dataset_fingerprint",
    "load_index",
    "query_scores",
    "save_index",
    "snap_signature",
]

MASK64 = (1 << 64) - 1

# word put before each grid's cells so block boundaries are positional
_SEPARATOR = 0x9E3779B97F4A7C15


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


def snap_signature(shifts: np.ndarray, delta: float, p: Curve):
    """Snap a curve to g grids at once: (g, m, d) cells and a (g, m) mask.

    Row i of the (g, d) shifts offsets grid i, each entry in [0, delta); a
    vertex goes to its closest grid vertex, cell * delta + shift, rounding
    half up. The mask keeps the first vertex of every run of equal cells,
    so cells[i][keep[i]] is the curve's signature on grid i.
    """
    if shifts.shape[1] != p.dim:
        raise ValueError(f"dimension mismatch: grid {shifts.shape[1]}, curve {p.dim}")
    cells = np.floor((p.vertices - shifts[:, None, :]) / delta + 0.5).astype(np.int64)
    keep = np.empty(cells.shape[:2], dtype=bool)
    keep[:, 0] = True
    keep[:, 1:] = (cells[:, 1:] != cells[:, :-1]).any(axis=2)
    return cells, keep


def _fold(cells: np.ndarray, keep: np.ndarray, slots: int, lead: bool, a: int, mixers):
    """Per slot, the polynomial state (acc, a**count) of its grids' words.

    A slot holds g / slots consecutive grids. The words of one grid are a
    separator, then the mixed coordinates of its kept cells; the first
    separator of a slot counts only when lead is set. acc is the sum of
    word * a**(kept words after it), in wrapping 64-bit arithmetic.
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
    words[:, 0] = _SEPARATOR
    words[:, 1:] = z.reshape(g, m * d)
    words = np.where(kept, words, 0).reshape(slots, -1)
    kept = kept.reshape(slots, -1)
    count = kept.sum(axis=1)
    powers = np.full(kept.shape[1] + 1, a, dtype=np.uint64)
    powers[0] = 1
    powers = powers.cumprod()  # a**i mod 2^64
    acc = (words * powers[count[:, None] - kept.cumsum(axis=1)]).sum(axis=1)
    return acc, powers[count]


def _stream(seed: int, group: int, slot: int, concat: int) -> np.random.Generator:
    # one counter-based stream per role keeps every draw reproducible
    ss = np.random.SeedSequence(seed, spawn_key=(group, slot, concat))
    return np.random.Generator(np.random.Philox(ss))


def _draw_grids(params: LshParams):
    """Both groups' shifts, then the fold's odd multiplier a and mixers.

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
    return shifts(0, (params.k + 1) // 2), shifts(1, params.k // 2), a, mixers


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

    keys[c, i * l_prime + j] is curve c's key in table (i, j). The grid
    shifts and the fold's multiplier and mixers are re-derived from params,
    and the sorted run of (table << 32) | key words, with the curve id of
    each word, from keys.
    """

    params: LshParams
    keys: np.ndarray
    fingerprint: int
    grid_evals: int
    _grids: tuple = field(init=False, repr=False)
    _run: np.ndarray = field(init=False, repr=False)
    _ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        words = (_table_words(self.params.L) | self.keys).ravel()
        order = np.argsort(words, kind="stable")
        object.__setattr__(self, "_grids", _draw_grids(self.params))
        object.__setattr__(self, "_run", words[order])
        object.__setattr__(self, "_ids", order // self.params.L)


def _table_words(L: int) -> np.ndarray:
    return np.arange(L, dtype=np.uint64) << 32


@dataclass(frozen=True)
class ScoredCandidate:
    """A colliding curve: collisions out of L tables, score = collisions/L."""

    curve_id: int
    collisions: int
    score: float


def _table_keys(params: LshParams, grids, p: Curve) -> np.ndarray:
    """The curve's key in each of the L tables, from one snap of k * l_prime grids.

    Table (i, j) folds slot i of group 0, then slot j of group 1; the
    polynomial of a concatenation is acc_i * a**count_j + acc_j.
    """
    shifts0, shifts1, a, mixers = grids
    lp, g0 = params.l_prime, len(shifts0)
    cells, keep = snap_signature(np.concatenate((shifts0, shifts1)), params.delta, p)
    acc0, _ = _fold(cells[:g0], keep[:g0], lp, False, a, mixers)
    acc1, pow1 = _fold(cells[g0:], keep[g0:], lp, True, a, mixers)
    acc = acc0[:, None] * pow1 + acc1
    # multiply-shift: the top 32 bits of a * acc mod 2^64
    return ((a * acc) >> 32).astype("<u4").ravel()


def build_index(dataset: Dataset, params: LshParams) -> LshIndex:
    """Hash every curve into the L tables; deterministic given the seed."""
    if params.d != dataset.d:
        raise ValueError(f"params dimension {params.d} != dataset dimension {dataset.d}")
    grids = _draw_grids(params)
    keys = np.array([_table_keys(params, grids, c) for c in dataset], dtype="<u4")
    keys.setflags(write=False)
    grid_evals = dataset.n * (len(grids[0]) + len(grids[1]))
    return LshIndex(params, keys, dataset_fingerprint(dataset), grid_evals)


def query_scores(idx: LshIndex, q: Curve) -> list[ScoredCandidate]:
    """All curves colliding with q in at least one table, cheapest first.

    Scores are collision fractions in (0, 1]; the result is sorted by
    (score ascending, id ascending). Does not mutate the index.
    """
    if q.dim != idx.params.d:
        raise ValueError(f"dimension mismatch: query {q.dim}, index {idx.params.d}")
    L = idx.params.L
    words = _table_words(L) | _table_keys(idx.params, idx._grids, q)
    lo = np.searchsorted(idx._run, words, "left")
    sizes = np.searchsorted(idx._run, words, "right") - lo
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
    """Read an index and re-derive its grids; refuses stale or foreign files."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise IndexFormatError(f"{path}: not an index file (bad magic)")
    if data[4:5] != _VERSION:
        raise IndexFormatError(f"{path}: unsupported index version {data[4:5]!r}")
    if len(data) < _KEYS_AT:
        raise IndexFormatError(f"{path}: truncated index file")
    delta, k, L, l_prime, d, seed, fingerprint, n = _HEADER.unpack_from(data, 5)
    params = LshParams(delta, k, L, d, seed)
    if params.L != L or params.l_prime != l_prime:
        raise IndexFormatError(f"{path}: inconsistent table counts in header")
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
    return LshIndex(params, keys, fingerprint, 0)
