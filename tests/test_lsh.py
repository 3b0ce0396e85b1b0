import math
import re
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from curvejoin import (
    Curve,
    Dataset,
    IndexFormatError,
    LshParams,
    build_index,
    discrete_frechet,
    load_index,
    query_scores,
    save_index,
    snap_signature,
)
from curvejoin import lsh
from curvejoin.lsh import _draw_grids, _table_keys
from helpers import (
    DictIndex,
    curve,
    curve1,
    draw_hash,
    mix_word,
    perturbed_copy,
    random_walk_curve,
    snap_block,
    stream_key,
    table_keys_per_curve,
)


class TestLshParams:
    @pytest.mark.parametrize(
        "requested,l_prime,effective",
        [(1, 1, 1), (2, 2, 4), (64, 8, 64), (1000, 32, 1024), (1024, 32, 1024)],
    )
    def test_table_count_rounds_up_to_square(self, requested, l_prime, effective):
        par = LshParams(1.0, 2, requested, 1, seed=7)
        assert par.l_prime == l_prime
        assert par.L == effective

    def test_validation(self):
        with pytest.raises(ValueError):
            LshParams(0.0, 1, 1, 1, 0)
        for delta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta"):
                LshParams(delta, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            LshParams(1.0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            LshParams(1.0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            LshParams(1.0, 1, 1, 1, 1 << 64)


def _signature(shift, delta: float, c: Curve) -> np.ndarray:
    cells, keep = snap_signature(np.atleast_2d(shift), delta, c)
    return cells[0][keep[0]]


class TestSnapping:
    def test_worked_example(self):
        # 0.6 is closest to grid vertex 0.25 (cell 0); 1.1 and 1.2 to 1.25
        sig = _signature([0.25], 1.0, curve1(0, [0.6, 1.1, 1.2]))
        assert sig[:, 0].tolist() == [0, 1]

    def test_round_half_up(self):
        cells, _ = snap_signature(np.array([[0.0]]), 1.0, curve1(0, [0.5, -0.5, 0.49999]))
        assert cells[0, :, 0].tolist() == [1, 0, 0]

    def test_single_vertex(self):
        cells, keep = snap_signature(np.array([[0.5, 1.5], [1.0, 0.0]]), 2.0,
                                     curve(0, [[3.0, 3.0]]))
        assert cells.shape == (2, 1, 2)
        assert keep.tolist() == [[True], [True]]

    def test_identical_curves_identical_signatures(self):
        rng = np.random.default_rng(60)
        shifts = rng.uniform(0, 1, (3, 2))
        c = random_walk_curve(rng, 0, 10, 2)
        s1 = snap_signature(shifts, 1.0, c)
        s2 = snap_signature(shifts, 1.0, curve(1, c.vertices.copy()))
        assert np.array_equal(s1[0], s2[0]) and np.array_equal(s1[1], s2[1])

    def test_no_consecutive_duplicates_and_bounded_length(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            c = random_walk_curve(rng, 0, int(rng.integers(1, 25)), d, step=0.3)
            shifts = rng.uniform(0, 1, (4, d))
            cells, keep = snap_signature(shifts, 1.0, c)
            for g in range(4):
                block = cells[g][keep[g]]
                oracle = snap_block(c.vertices, shifts[g], 1.0)
                assert block.tolist() == [list(cell) for cell in oracle]
                assert 1 <= len(block) <= len(c)
                assert not any(
                    np.array_equal(block[i], block[i + 1]) for i in range(len(block) - 1)
                )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            snap_signature(np.zeros((1, 2)), 1.0, curve1(0, [0.0]))


def _key(cells_1d, a: int, mixers) -> int:
    """Library key of a 1-d cell sequence: with k = 1, L = 1 and a zero
    shift on a unit grid, integer vertices are their own cells."""
    grids = (np.zeros((1, 1)), np.zeros((0, 1)), a, pow(a, -1, 1 << 64),
             np.asarray(mixers, dtype=np.uint64))
    keys = _table_keys(LshParams(1.0, 1, 1, 1, 0), grids, curve1(0, cells_1d).vertices, [0])
    assert keys.dtype == np.dtype("<u4") and keys.shape == (1, 1)
    return int(keys[0, 0])


def _random_hash(rng):
    """An odd multiplier and one mixer, for 1-d signatures."""
    return int(rng.integers(1 << 62)) * 2 + 1, [int(rng.integers(0, 1 << 63))]


class TestSequenceHasher:
    """The polynomial fold and multiply-shift that turn signatures into keys."""

    def test_multiply_shift_example(self):
        # with a = 2^32 + 1, (a * w mod 2^64) >> 32 adds w's two 32-bit halves
        a = (1 << 32) + 1
        w = mix_word(5, 0)  # the one word of the one-cell signature (5,)
        assert _key([5], a, [0]) == ((w & 0xFFFFFFFF) + (w >> 32)) & 0xFFFFFFFF

    def test_equal_signatures_equal_keys(self):
        rng = np.random.default_rng(62)
        a, mixers = _random_hash(rng)
        assert _key([3, -1, 4], a, mixers) == _key([3, -1, 4], a, mixers)
        assert _key([3, -1], a, mixers) != _key([3, -1, 4], a, mixers)
        # runs of equal cells collapse to one
        assert _key([3, 3, 3, -1, 4, 4], a, mixers) == _key([3, -1, 4], a, mixers)

    def test_keys_fit_in_32_bits(self):
        rng = np.random.default_rng(63)
        a, mixers = _random_hash(rng)
        for _ in range(200):
            cells = rng.integers(-100, 100, size=5)
            key = _key(cells, a, mixers)
            assert 0 <= key < (1 << 32)
            assert key == stream_key(a, mixers, [[(int(x),) for x in _dedup(cells)]])

    def test_tensored_key_equals_direct_concatenation_fold(self):
        # each table key must be indistinguishable from hashing the full
        # k-grid signature in one pass
        rng = np.random.default_rng(64)
        for k in (1, 2, 3, 4, 5):
            par = LshParams(1.0, k, 9, 2, seed=int(rng.integers(1 << 63)))
            grids = _draw_grids(par)
            group0, group1, a, mixers = draw_hash(par)
            for _ in range(4):
                c = random_walk_curve(rng, 0, int(rng.integers(1, 12)), 2, step=0.6)
                keys = _table_keys(par, grids, c.vertices, [0])[0].tolist()
                for i, slot0 in enumerate(group0):
                    for j, slot1 in enumerate(group1):
                        blocks = [snap_block(c.vertices, t, 1.0) for t in slot0 + slot1]
                        assert keys[i * par.l_prime + j] == stream_key(a, mixers, blocks)

    def test_spurious_collisions_are_rare(self):
        # about 1e6 distinct signature pairs; expected collisions 2^-32
        # per pair, so observing zero is the overwhelmingly likely outcome
        rng = np.random.default_rng(65)
        a, mixers = _random_hash(rng)
        keys = []
        for i in range(1415):
            cells = np.concatenate(([i], rng.integers(-1000, 1000, size=6)))
            keys.append(_key(cells, a, mixers))
        counts = {}
        for k in keys:
            counts[k] = counts.get(k, 0) + 1
        collisions = sum(c * (c - 1) // 2 for c in counts.values())
        assert collisions == 0


def _dedup(cells) -> list:
    return [int(x) for i, x in enumerate(cells) if i == 0 or x != cells[i - 1]]


class TestCollisionSoundness:
    def test_shared_signature_bounds_discrete_distance_1d(self):
        rng = np.random.default_rng(66)
        delta = 1.0
        hits = 0
        for _ in range(400):
            p = random_walk_curve(rng, 0, int(rng.integers(1, 10)), 1, step=0.4)
            q = perturbed_copy(rng, p, 1, amp=float(rng.uniform(0.0, 0.8)))
            shift = rng.uniform(0, delta, 1)
            bp = _signature(shift, delta, p)
            bq = _signature(shift, delta, q)
            if bp.shape == bq.shape and np.array_equal(bp, bq):
                hits += 1
                assert discrete_frechet(p, q) <= delta + 1e-12
        assert hits > 50

    def test_shared_signature_bounds_discrete_distance_general_d(self):
        rng = np.random.default_rng(67)
        delta = 1.0
        hits = 0
        for _ in range(400):
            d = int(rng.integers(2, 4))
            p = random_walk_curve(rng, 0, int(rng.integers(1, 8)), d, step=0.3)
            q = perturbed_copy(rng, p, 1, amp=float(rng.uniform(0.0, 0.5)))
            shift = rng.uniform(0, delta, d)
            bp = _signature(shift, delta, p)
            bq = _signature(shift, delta, q)
            if bp.shape == bq.shape and np.array_equal(bp, bq):
                hits += 1
                assert discrete_frechet(p, q) <= delta * np.sqrt(d) + 1e-12
        assert hits > 50

    def test_single_vertex_collision_law(self):
        # two 1-D points at distance dv < delta share a cell with
        # probability exactly 1 - dv/delta over the uniform shift
        rng = np.random.default_rng(68)
        delta = 2.0
        trials = 20000
        for dv in (0.3, 1.0, 1.7):
            cells, _ = snap_signature(rng.uniform(0, delta, (trials, 1)), delta,
                                      curve1(0, [0.123, 0.123 + dv]))
            same = int((cells[:, 0, 0] == cells[:, 1, 0]).sum())
            want = 1.0 - dv / delta
            stderr = np.sqrt(want * (1 - want) / trials)
            assert abs(same / trials - want) <= 3 * stderr


def _tiny_dataset(rng, n=12, d=1, m=8, step=0.5):
    return Dataset([random_walk_curve(rng, i, m, d, step=step) for i in range(n)])


class TestIndex:
    def test_build_is_deterministic(self):
        rng = np.random.default_rng(69)
        ds = _tiny_dataset(rng)
        par = LshParams(2.0, 2, 16, 1, seed=99)
        a = build_index(ds, par)
        b = build_index(ds, par)
        assert np.array_equal(a.keys, b.keys)
        assert a.fingerprint == b.fingerprint

    def test_single_curve_fills_every_table(self):
        rng = np.random.default_rng(70)
        ds = Dataset([random_walk_curve(rng, 0, 6, 1)])
        idx = build_index(ds, LshParams(1.0, 2, 9, 1, seed=1))
        assert idx.keys.shape == (1, idx.params.L)

    def test_grid_eval_count_is_k_times_sqrt_L(self):
        rng = np.random.default_rng(71)
        ds = _tiny_dataset(rng, n=5)
        for L in (64, 256, 1024):
            for k in (1, 2, 4):
                idx = build_index(ds, LshParams(1.0, k, L, 1, seed=3))
                assert idx.params.L == L
                assert idx.grid_evals == ds.n * k * int(np.sqrt(L))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(72)
        ds = _tiny_dataset(rng, d=2)
        with pytest.raises(ValueError, match="dimension"):
            build_index(ds, LshParams(1.0, 1, 4, 1, seed=0))
        idx = build_index(ds, LshParams(1.0, 1, 4, 2, seed=0))
        with pytest.raises(ValueError, match="dimension"):
            query_scores(idx, curve1(0, [0.0]))

    def test_self_query_scores_one(self):
        rng = np.random.default_rng(73)
        ds = _tiny_dataset(rng)
        idx = build_index(ds, LshParams(1.5, 2, 25, 1, seed=5))
        for c in ds:
            cands = query_scores(idx, c)
            by_id = {s.curve_id: s for s in cands}
            assert by_id[c.id].score == 1.0
            assert by_id[c.id].collisions == idx.params.L

    def test_scores_sorted_and_positive(self):
        rng = np.random.default_rng(74)
        ds = _tiny_dataset(rng, n=30, step=0.2)
        idx = build_index(ds, LshParams(0.8, 1, 16, 1, seed=8))
        for c in list(ds)[:10]:
            cands = query_scores(idx, c)
            assert all(s.score > 0 for s in cands)
            assert all(s.collisions == round(s.score * idx.params.L) for s in cands)
            pairs = [(s.score, s.curve_id) for s in cands]
            assert pairs == sorted(pairs)

    def test_score_symmetry(self):
        rng = np.random.default_rng(75)
        ds = _tiny_dataset(rng, n=15, step=0.3)
        idx = build_index(ds, LshParams(1.0, 2, 16, 1, seed=13))
        score = {}
        for c in ds:
            for s in query_scores(idx, c):
                score[(c.id, s.curve_id)] = s.collisions
        for (a, b), n in score.items():
            assert score.get((b, a)) == n

    def test_distant_curve_never_collides_1d(self):
        # sharing even one table key implies sharing all k grid snaps of
        # that table, which certifies discrete distance <= delta
        rng = np.random.default_rng(76)
        base = random_walk_curve(rng, 0, 8, 1, step=0.4)
        ds = Dataset([base, Curve(1, base.vertices + 10.0)])
        for seed in range(10):
            idx = build_index(ds, LshParams(1.0, 1, 16, 1, seed=seed))
            cands = query_scores(idx, ds[0])
            assert all(s.curve_id != 1 for s in cands)

    def test_drawn_grids_are_valid(self):
        # shifts lie in [0, delta), k * l_prime of them; the multiplier is odd
        # and comes with its inverse mod 2^64
        for seed in range(20):
            par = LshParams(0.5 + seed, 1 + seed % 4, 1 + seed, 1 + seed % 3, seed)
            shifts0, shifts1, a, a_inv, mixers = _draw_grids(par)
            shifts = np.concatenate((shifts0, shifts1))
            assert shifts.shape == (par.k * par.l_prime, par.d)
            assert ((0.0 <= shifts) & (shifts < par.delta)).all()
            assert a % 2 == 1 and 0 < a < (1 << 64)
            assert a * a_inv % (1 << 64) == 1
            assert mixers.dtype == np.uint64 and mixers.shape == (par.d,)

    def test_k1_tensoring_collapses_second_group(self):
        # with k = 1 the second group hashes nothing, so the key of table
        # (i, j) cannot depend on j
        rng = np.random.default_rng(77)
        ds = _tiny_dataset(rng, n=6)
        idx = build_index(ds, LshParams(1.0, 1, 16, 1, seed=21))
        lp = idx.params.l_prime
        by_slot = idx.keys.reshape(ds.n, lp, lp)
        assert (by_slot == by_slot[:, :, :1]).all()


class TestKeyMatrixMatchesDictIndex:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_keys_and_scores_identical(self, k, d):
        rng = np.random.default_rng(100 * k + d)
        for L in (2, 10, 20):
            # single-vertex curves, short steps that snap to runs of equal
            # cells, and near copies so that tables share keys
            base = [random_walk_curve(rng, i, int(rng.integers(1, 7)) if i % 4 else 1, d,
                                      step=0.05 if i % 3 == 0 else 0.5) for i in range(8)]
            copies = [perturbed_copy(rng, c, 8 + c.id, amp=0.1) for c in base]
            ds = Dataset(base + copies)
            par = LshParams(2.0, k, L, d, seed=int(rng.integers(1 << 63)))
            idx = build_index(ds, par)
            oracle = DictIndex(ds, par)
            assert idx.keys.shape == (ds.n, par.L)
            for c in ds:
                assert idx.keys[c.id].tolist() == oracle.keys(c)
            queries = list(ds) + [random_walk_curve(rng, 0, int(rng.integers(1, 7)), d)
                                  for _ in range(5)]
            for q in queries:
                assert query_scores(idx, q) == oracle.query_scores(q)

    def test_long_curve_keys_identical(self):
        # about 2,400 vertices in 2-d on a grid finer than the steps, so
        # nearly every vertex is a kept cell and a slot folds ~4,800 words
        rng = np.random.default_rng(110)
        ds = Dataset([random_walk_curve(rng, 0, 2400, 2, step=0.5),
                      random_walk_curve(rng, 1, 3, 2)])
        for k in (1, 2, 3):
            par = LshParams(0.1, k, 16, 2, seed=int(rng.integers(1 << 63)))
            idx = build_index(ds, par)
            oracle = DictIndex(ds, par)
            for c in ds:
                assert idx.keys[c.id].tolist() == oracle.keys(c)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 4), d=st.integers(1, 3), L=st.integers(1, 30),
           seed=st.integers(0, (1 << 64) - 1), data=st.data())
    def test_keys_identical_property(self, k, d, L, seed, data):
        # vertices on a half-integer lattice repeat often, so the snapped
        # cells form runs; any k, d, L and seed
        delta = data.draw(st.sampled_from([1.0, 2.0, 0.75]))
        m = data.draw(st.integers(1, 12))
        values = data.draw(st.lists(st.integers(-4, 4), min_size=m * d, max_size=m * d))
        c = Curve(0, np.array(values, dtype=np.float64).reshape(m, d) / 2.0)
        par = LshParams(delta, k, L, d, seed)
        ds = Dataset([c])
        assert build_index(ds, par).keys[0].tolist() == DictIndex(ds, par).keys(c)


def _ragged_dataset(rng, n: int, d: int, max_m: int = 9) -> Dataset:
    """Single-vertex curves, slow walks whose vertices snap to runs of
    equal cells, faster walks, and near copies that share keys."""
    curves = []
    for i in range(n):
        if i % 5 == 4 and curves:
            curves.append(perturbed_copy(rng, curves[-1], i, amp=0.05))
        else:
            m = 1 if i % 7 == 0 else int(rng.integers(2, max_m + 1))
            curves.append(random_walk_curve(rng, i, m, d, step=0.05 if i % 3 == 0 else 0.6))
    return Dataset(curves)


class TestBlockKernel:
    """lsh._table_keys hashes blocks of curves; each key must equal the
    per-curve oracle and DictIndex, whatever the blocks look like."""

    @staticmethod
    def _check(ds: Dataset, par: LshParams, queries=()):
        idx = build_index(ds, par)
        grids = _draw_grids(par)
        oracle = DictIndex(ds, par)
        assert idx.keys.shape == (ds.n, par.L)
        for c in ds:
            keys = idx.keys[c.id].tolist()
            assert keys == table_keys_per_curve(par, grids, c).tolist()
            assert keys == oracle.keys(c)
        for q in list(ds) + list(queries):
            assert query_scores(idx, q) == oracle.query_scores(q)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_keys_and_scores_match_both_oracles(self, k, d, monkeypatch):
        # blocks of at most 10 vertices: many blocks, and a last one that
        # is not full
        monkeypatch.setattr(lsh, "_BLOCK_VERTICES", 10)
        rng = np.random.default_rng(300 + 10 * k + d)
        ds = _ragged_dataset(rng, 23, d)
        queries = [random_walk_curve(rng, 0, int(rng.integers(1, 8)), d) for _ in range(3)]
        self._check(ds, LshParams(1.5, k, 9, d, seed=int(rng.integers(1 << 63))), queries)

    def test_curve_longer_than_the_budget(self, monkeypatch):
        # a 40-vertex curve is a block of its own between short curves
        monkeypatch.setattr(lsh, "_BLOCK_VERTICES", 16)
        rng = np.random.default_rng(310)
        ds = Dataset([random_walk_curve(rng, 0, 5, 2),
                      random_walk_curve(rng, 1, 40, 2, step=0.4),
                      random_walk_curve(rng, 2, 1, 2),
                      random_walk_curve(rng, 3, 17, 2, step=0.4),
                      random_walk_curve(rng, 4, 3, 2)])
        for k in (1, 2, 3):
            self._check(ds, LshParams(1.0, k, 16, 2, seed=int(rng.integers(1 << 63))))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 5), d=st.integers(1, 3), L=st.integers(1, 30),
           budget=st.integers(1, 40), seed=st.integers(0, (1 << 64) - 1), data=st.data())
    def test_ragged_datasets_property(self, k, d, L, budget, seed, data):
        # vertices on a half-integer lattice, so cells repeat in runs
        lengths = data.draw(st.lists(st.integers(1, 10), min_size=1, max_size=8))
        curves = []
        for i, m in enumerate(lengths):
            values = data.draw(st.lists(st.integers(-4, 4), min_size=m * d, max_size=m * d))
            curves.append(Curve(i, np.array(values, dtype=np.float64).reshape(m, d) / 2.0))
        ds = Dataset(curves)
        par = LshParams(data.draw(st.sampled_from([1.0, 2.0, 0.75])), k, L, d, seed)
        old = lsh._BLOCK_VERTICES
        lsh._BLOCK_VERTICES = budget
        try:
            self._check(ds, par)
        finally:
            lsh._BLOCK_VERTICES = old

    def test_working_memory_is_bounded_by_the_block(self):
        # Unblocked, the build would hold a (g, N, d) int64 cell array per
        # group at once: 16 grids x 320,000 vertices x 2 coordinates, about
        # 82 MB, on top of its float temporaries. Blocked, the peak beyond
        # the key matrix is the sorted run and its ids (about 33 MB here)
        # plus one block's temporaries.
        rng = np.random.default_rng(312)
        ds = Dataset([Curve(i, np.cumsum(rng.normal(size=(40, 2)), axis=0))
                      for i in range(8000)])
        par = LshParams(1.0, 2, 256, 2, seed=1)
        one_group_cells = (par.k // 2) * par.l_prime * 8000 * 40 * 2 * 8
        tracemalloc.start()
        try:
            idx = build_index(ds, par)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - idx.keys.nbytes < one_group_cells / 2


class TestIndexFiles:
    def _index(self, rng, n=10):
        ds = _tiny_dataset(rng, n=n)
        idx = build_index(ds, LshParams(1.2, 2, 16, 1, seed=33))
        return ds, idx

    def test_round_trip_preserves_queries(self, tmp_path):
        rng = np.random.default_rng(78)
        ds, idx = self._index(rng)
        path = tmp_path / "index.bin"
        save_index(idx, path)
        loaded = load_index(path, ds)
        assert np.array_equal(loaded.keys, idx.keys)
        assert loaded.params == idx.params
        for _ in range(100):
            q = random_walk_curve(rng, 0, int(rng.integers(1, 12)), 1)
            assert query_scores(loaded, q) == query_scores(idx, q)

    def test_round_trip_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(79)
        ds, idx = self._index(rng)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(idx, p1)
        save_index(load_index(p1, ds), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(80)
        ds, idx = self._index(rng)
        path = tmp_path / "index.bin"
        save_index(idx, path)
        data = path.read_bytes()
        for cut in (0, 3, 10, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(IndexFormatError):
                load_index(path, ds)

    def test_bad_magic_and_version(self, tmp_path):
        rng = np.random.default_rng(81)
        ds, idx = self._index(rng)
        path = tmp_path / "index.bin"
        save_index(idx, path)
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(path, ds)
        data = bytearray((tmp_path / "index.bin").read_bytes())
        save_index(idx, path)
        # "1" is the retired dict-of-tables format, which is not read
        for version in "19":
            data = bytearray(path.read_bytes())
            data[4] = ord(version)
            path.with_name("old.bin").write_bytes(bytes(data))
            with pytest.raises(IndexFormatError, match="version"):
                load_index(path.with_name("old.bin"), ds)

    def test_trailing_byte_rejected(self, tmp_path):
        rng = np.random.default_rng(84)
        ds, idx = self._index(rng)
        path = tmp_path / "index.bin"
        save_index(idx, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(IndexFormatError):
            load_index(path, ds)

    @pytest.mark.parametrize("name, value", [
        ("seed", 12345),
        ("k", 3),
        ("delta", 0.7),
        ("d", 5),
        ("k", 0),
        ("delta", math.nan),
    ])
    def test_corrupt_header_field_rejected(self, tmp_path, name, value):
        # Each header field set to a value the file was not built with: the
        # load names the file instead of answering on the wrong grids.
        rng = np.random.default_rng(85)
        ds, idx = self._index(rng)
        path = tmp_path / "index.bin"
        save_index(idx, path)
        data = path.read_bytes()
        fields = ("delta", "k", "L", "l_prime", "d", "seed", "fingerprint", "n")
        header = dict(zip(fields, lsh._HEADER.unpack_from(data, 5)))
        header[name] = value
        path.write_bytes(data[:5] + lsh._HEADER.pack(*header.values()) + data[lsh._KEYS_AT:])
        with pytest.raises(IndexFormatError, match=re.escape(str(path))):
            load_index(path, ds)

    def test_fingerprint_mismatch(self, tmp_path):
        rng = np.random.default_rng(82)
        ds, idx = self._index(rng)
        other = _tiny_dataset(rng, n=10)
        path = tmp_path / "index.bin"
        save_index(idx, path)
        with pytest.raises(IndexFormatError, match="fingerprint"):
            load_index(path, other)


def _equal_copy(c: Curve) -> Curve:
    """An equal curve that is not the stored object, so it is hashed."""
    return Curve(c.id, c.vertices.copy())


class TestStoredRowScores:
    """query_scores(idx, c, row=c.id) reads c's keys and groups from the
    index; hashing an equal copy and searching the run is the oracle."""

    @staticmethod
    def _check(idx, ds: Dataset):
        for c in ds:
            assert query_scores(idx, c, row=c.id) == query_scores(idx, _equal_copy(c))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("L", [1, 5, 64, 1000])
    def test_ragged_datasets(self, d, L):
        rng = np.random.default_rng(90 + d)
        ds = _ragged_dataset(rng, 40, d)
        self._check(build_index(ds, LshParams(0.8 * d, 2, L, d, seed=L)), ds)

    @pytest.mark.parametrize("d", [1, 2])
    def test_exact_duplicates_form_large_groups(self, d):
        rng = np.random.default_rng(94)
        walks = [random_walk_curve(rng, 0, 6, d) for _ in range(3)]
        ds = Dataset([Curve(i, walks[i % 3].vertices) for i in range(60)])
        idx = build_index(ds, LshParams(1.0, 2, 16, d, seed=5))
        self._check(idx, ds)
        assert [s.collisions for s in query_scores(idx, ds[0], row=0)] == [16] * 20

    def test_single_vertex_curves(self):
        rng = np.random.default_rng(95)
        ds = Dataset([Curve(i, rng.uniform(0.0, 3.0, (1, 2))) for i in range(30)])
        self._check(build_index(ds, LshParams(1.0, 3, 9, 2, seed=8)), ds)

    def test_index_read_back_from_a_file(self, tmp_path):
        rng = np.random.default_rng(96)
        ds = _ragged_dataset(rng, 30, 2)
        save_index(build_index(ds, LshParams(1.5, 2, 25, 2, seed=4)), tmp_path / "i.bin")
        self._check(load_index(tmp_path / "i.bin", ds), ds)

    def test_group_table_is_lazy_and_read_only(self):
        rng = np.random.default_rng(97)
        ds = _tiny_dataset(rng)
        idx = build_index(ds, LshParams(1.0, 2, 16, 1, seed=2))
        query_scores(idx, _equal_copy(ds[0]))
        assert "_groups" not in vars(idx)
        query_scores(idx, ds[0], row=0)
        lo, sizes = vars(idx)["_groups"]
        assert lo.shape == sizes.shape == (ds.n, 16)
        assert not lo.flags.writeable and not sizes.flags.writeable

    @pytest.mark.parametrize("row", [-1, 12])
    def test_row_outside_the_index_rejected(self, row):
        rng = np.random.default_rng(98)
        ds = _tiny_dataset(rng)
        idx = build_index(ds, LshParams(1.0, 2, 16, 1, seed=2))
        with pytest.raises(ValueError, match="stored row"):
            query_scores(idx, ds[0], row=row)
