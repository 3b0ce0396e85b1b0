"""Randomly shifted grid hashing for curves and the tensored table index.

A curve is snapped to a randomly shifted grid (each vertex to its closest
grid vertex) and the resulting cell sequence, with consecutive duplicates
removed, is its signature. Signatures of k concatenated grids are folded
into a 32-bit key by a streaming polynomial accumulator finished with one
multiply-shift step. The index keeps L = L' * L' tables but evaluates only
2 * L' signatures per curve: table (i, j) pairs the i-th hash of one group
with the j-th hash of the other, so per-curve grid work drops from k * L
to k * sqrt(L). The index is one (n, L) key matrix; queries search one
sorted run of (table, key) words derived from it.

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

from .curves import Curve, Dataset

__all__ = [
    "GridHash",
    "IndexFormatError",
    "LshIndex",
    "LshParams",
    "ScoredCandidate",
    "SequenceHasher",
    "Signature",
    "build_index",
    "dataset_fingerprint",
    "fold_key",
    "load_index",
    "query_scores",
    "save_index",
    "snap_signature",
]

MASK64 = (1 << 64) - 1

# word injected between per-grid blocks so block boundaries are positional
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
        if not (0 < self.delta < math.inf):
            raise ValueError(f"delta must be finite and > 0, got {self.delta}")
        if self.k < 1 or self.L < 1 or self.d < 1:
            raise ValueError("k, L, and d must be >= 1")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")
        lp = math.isqrt(self.L)
        if lp * lp < self.L:
            lp += 1
        object.__setattr__(self, "l_prime", lp)
        object.__setattr__(self, "L", lp * lp)


@dataclass(frozen=True)
class GridHash:
    """A grid of side delta shifted by t, with every t_i uniform in [0, delta)."""

    delta: float
    shift: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.shift, dtype=np.float64)
        if s.ndim != 1 or not ((0.0 <= s) & (s < self.delta)).all():
            raise ValueError("shift must be a vector with entries in [0, delta)")
        s.setflags(write=False)
        object.__setattr__(self, "shift", s)

    def cells(self, vertices: np.ndarray) -> np.ndarray:
        # round-half-up: the closest grid vertex to x is at cell*delta + t
        return np.floor((vertices - self.shift) / self.delta + 0.5).astype(np.int64)


@dataclass(frozen=True)
class Signature:
    """Snapped cell sequences, one block per concatenated grid.

    Each block is an (m_i, d) integer array with no two consecutive rows
    equal and m_i at most the source curve length.
    """

    blocks: tuple[np.ndarray, ...]


def snap_signature(grids, p: Curve, stats: dict | None = None) -> Signature:
    """Snap a curve to each grid in turn; one deduplicated block per grid."""
    blocks = []
    for g in grids:
        if len(g.shift) != p.dim:
            raise ValueError(f"dimension mismatch: grid {len(g.shift)}, curve {p.dim}")
        cells = g.cells(p.vertices)
        if len(cells) > 1:
            keep = np.empty(len(cells), dtype=bool)
            keep[0] = True
            keep[1:] = (cells[1:] != cells[:-1]).any(axis=1)
            cells = cells[keep]
        cells.setflags(write=False)
        blocks.append(cells)
        if stats is not None:
            stats["grid_evals"] = stats.get("grid_evals", 0) + 1
    return Signature(tuple(blocks))


@dataclass(frozen=True)
class SequenceHasher:
    """Folds cell sequences into 32-bit keys, streaming one word at a time.

    Every cell coordinate is mixed through a fixed per-coordinate 64-bit
    finalizer, accumulated into a rolling polynomial with the odd
    multiplier a (wrapping 64-bit arithmetic), and the final multiply-shift
    (a * acc mod 2^64) >> (u - v) keeps the top v bits.
    """

    a: int
    mixers: np.ndarray

    U = 64
    V = 32

    def __post_init__(self):
        if self.a % 2 == 0 or not 0 < self.a <= MASK64:
            raise ValueError("multiplier a must be odd and fit in 64 bits")
        m = np.asarray(self.mixers, dtype=np.uint64)
        m.setflags(write=False)
        object.__setattr__(self, "mixers", m)

    @classmethod
    def from_rng(cls, rng: np.random.Generator, d: int) -> "SequenceHasher":
        a = int.from_bytes(rng.bytes(8), "little") | 1
        mixers = np.frombuffer(rng.bytes(8 * d), dtype="<u8").copy()
        return cls(a, mixers)

    def _mix(self, cells: np.ndarray) -> np.ndarray:
        """Per-coordinate mixed words of a cell block, row-major."""
        z = cells.view(np.uint64) ^ self.mixers
        z = z ^ (z >> 30)
        z = z * 0xBF58476D1CE4E5B9
        z = z ^ (z >> 27)
        z = z * 0x94D049BB133111EB
        z = z ^ (z >> 31)
        return z.ravel()

    def fold_state(self, sig: Signature, lead_separator: bool = False):
        """Polynomial accumulator over the signature's words.

        Returns (acc, a**n mod 2^64); two states compose associatively,
        which is what lets tensored table keys reuse per-group folds.
        """
        words: list[np.ndarray] = []
        sep = np.array([_SEPARATOR], dtype=np.uint64)
        for bi, block in enumerate(sig.blocks):
            if bi > 0 or lead_separator:
                words.append(sep)
            words.append(self._mix(block))
        if not words:
            return 0, 1
        w = np.concatenate(words)
        powers = np.full(len(w), self.a, dtype=np.uint64)
        powers[0] = 1
        powers = powers.cumprod()  # wraps mod 2^64
        acc = int((w * powers[::-1]).sum(dtype=np.uint64))
        return acc, (int(powers[-1]) * self.a) & MASK64

    @staticmethod
    def combine(s1, s2):
        a1, p1 = s1
        a2, p2 = s2
        return (a1 * p2 + a2) & MASK64, (p1 * p2) & MASK64

    def finalize(self, acc: int) -> int:
        return ((self.a * acc) & MASK64) >> (self.U - self.V)


def fold_key(h: SequenceHasher, sig: Signature) -> int:
    """One-pass 32-bit key of a signature."""
    acc, _ = h.fold_state(sig)
    return h.finalize(acc)


def _stream(seed: int, group: int, slot: int, concat: int) -> np.random.Generator:
    # one counter-based stream per role keeps every draw reproducible
    ss = np.random.SeedSequence(seed, spawn_key=(group, slot, concat))
    return np.random.Generator(np.random.Philox(ss))


def _draw_grids(params: LshParams):
    half_up = (params.k + 1) // 2
    half_down = params.k // 2
    lambda1 = tuple(
        tuple(
            GridHash(params.delta, _stream(params.seed, 0, slot, c).uniform(0.0, params.delta, params.d))
            for c in range(half_up)
        )
        for slot in range(params.l_prime)
    )
    lambda2 = tuple(
        tuple(
            GridHash(params.delta, _stream(params.seed, 1, slot, c).uniform(0.0, params.delta, params.d))
            for c in range(half_down)
        )
        for slot in range(params.l_prime)
    )
    hasher = SequenceHasher.from_rng(_stream(params.seed, 2, 0, 0), params.d)
    return lambda1, lambda2, hasher


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

    keys[c, i * l_prime + j] is curve c's key in table (i, j). The grids
    and the hasher are re-derived from params, and the sorted run of
    (table << 32) | key words, with the curve id of each word, from keys.
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


def _table_keys(grids, p: Curve, stats: dict | None = None) -> np.ndarray:
    """The curve's key in each of the L tables (2 * l_prime snaps total)."""
    lambda1, lambda2, hasher = grids
    s1 = [hasher.fold_state(snap_signature(g, p, stats)) for g in lambda1]
    s2 = [hasher.fold_state(snap_signature(g, p, stats), lead_separator=True) for g in lambda2]
    acc1, pow1 = np.array(s1, dtype=np.uint64).T
    acc2, pow2 = np.array(s2, dtype=np.uint64).T
    acc, _ = hasher.combine((acc1[:, None], pow1[:, None]), (acc2[None, :], pow2[None, :]))
    return hasher.finalize(acc).astype("<u4").ravel()


def build_index(dataset: Dataset, params: LshParams) -> LshIndex:
    """Hash every curve into the L tables; deterministic given the seed."""
    if params.d != dataset.d:
        raise ValueError(f"params dimension {params.d} != dataset dimension {dataset.d}")
    grids = _draw_grids(params)
    stats = {"grid_evals": 0}
    keys = np.array([_table_keys(grids, c, stats) for c in dataset], dtype="<u4")
    keys.setflags(write=False)
    return LshIndex(params, keys, dataset_fingerprint(dataset), stats["grid_evals"])


def query_scores(idx: LshIndex, q: Curve) -> list[ScoredCandidate]:
    """All curves colliding with q in at least one table, cheapest first.

    Scores are collision fractions in (0, 1]; the result is sorted by
    (score ascending, id ascending). Does not mutate the index.
    """
    if q.dim != idx.params.d:
        raise ValueError(f"dimension mismatch: query {q.dim}, index {idx.params.d}")
    L = idx.params.L
    words = _table_words(L) | _table_keys(idx._grids, q)
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
