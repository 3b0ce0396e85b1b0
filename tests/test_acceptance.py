"""Acceptance gate: twelve top-level criteria, one test and one printed
PASS/FAIL line each. Every run is self-contained and seeded; no external
dataset is required. Criteria with a runtime budget assert it."""

import json
import math
import time

import numpy as np
import pytest

from curvejoin import Curve, Dataset
from curvejoin.cli import main as cli_main
from curvejoin.engine import QueryConfig, exact_join, make_params, self_join
from curvejoin.experiments import (
    bounds_report,
    collision_probability,
    noisy_collision_probability,
    score_histogram,
)
from curvejoin.frechet import (
    Verdict,
    bbox_filter,
    decide_continuous,
    discrete_frechet,
    endpoints_filter,
    equal_time_upper,
    greedy_upper,
    negative_filter,
    verify,
    verify_simpl,
)
from curvejoin.curves import longest_edge, write_series_1d
from curvejoin.lsh import (
    IndexFormatError,
    LshParams,
    build_index,
    load_index,
    query_scores,
    save_index,
)

from helpers import acceptance_corpus, clustered_dataset, count_snaps, curve1, \
    dataset_of, discrete_frechet_brute, random_walk_curve


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc}{tail}"


@pytest.fixture(scope="module")
def instances():
    """Shared random (pair, radius) instances for criteria 2 and 3."""
    return acceptance_corpus()


@pytest.fixture(scope="module")
def tau_sweep():
    """One clustered dataset, exact truth, and a join per tau value."""
    rng = np.random.default_rng(2026)
    data, _ = clustered_dataset(rng, 10, 30, 1, 1.0, with_ring=True,
                                ring="last-vertex")
    t0 = time.perf_counter()
    truth = set(exact_join(data, 1.0))
    reports = {}
    for tau in (0.0, 0.1, 0.2, 0.5, 1.0):
        cfg = QueryConfig(r=1.0, tau=tau)
        params = make_params(data, cfg, k=2, L=1024, seed=2026)
        reports[tau] = self_join(data, params, cfg, truth=truth)
    elapsed = time.perf_counter() - t0
    return data, truth, reports, elapsed


def test_criterion_01_discrete_distance_matches_brute_force():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        d = 1 + i % 2
        p = random_walk_curve(rng, 0, int(rng.integers(1, 7)), d)
        q = random_walk_curve(rng, 1, int(rng.integers(1, 7)), d)
        worst = max(worst, abs(discrete_frechet(p, q)
                               - discrete_frechet_brute(p, q)))
    elapsed = time.perf_counter() - t0
    report(1, "discrete distance equals brute force on 200 pairs",
           worst <= 1e-12 and elapsed < 5.0,
           f"max gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_every_filter_agrees_with_the_decision(instances):
    t0 = time.perf_counter()
    contradictions = 0
    for p, q, r, _ in instances:
        truth = decide_continuous(p, q, r)
        outcomes = [
            endpoints_filter(p, q, r),
            bbox_filter(p, q, r),
            equal_time_upper(p, q, r),
            greedy_upper(p, q, r),
            negative_filter(p, q, r),
            verify_simpl(p, q, r, 10.0),
            verify_simpl(p, q, r, 1.0),
            verify_simpl(p, q, r, 0.1),
            verify(p, q, r),
        ]
        for out in outcomes:
            if out.verdict is Verdict.NEAR and not truth:
                contradictions += 1
            elif out.verdict is Verdict.FAR and truth:
                contradictions += 1
    elapsed = time.perf_counter() - t0
    report(2, "1000 instances, 9 deciders each, zero contradictions",
           contradictions == 0 and elapsed < 60.0,
           f"{contradictions} contradictions, {elapsed:.1f}s")


def test_criterion_03_continuous_distance_sandwich(instances):
    # the decision uses exact float comparisons, so testing Near at
    # exactly the discrete distance needs a one-ulp certification margin
    # (the free-space pinch can round a discriminant a hair negative)
    violations = 0
    checked_low = 0
    for p, q, r, ddf in instances:
        if not decide_continuous(p, q, ddf * (1.0 + 4e-16)):
            violations += 1
        low = ddf - max(longest_edge(p), longest_edge(q))
        if low > 0.0:
            checked_low += 1
            if decide_continuous(p, q, low * (1.0 - 1e-9)):
                violations += 1
    report(3, "Near at the discrete distance, Far below the edge-slack bound",
           violations == 0, f"{violations} violations, "
           f"{checked_low} lower-bound checks, near margin one ulp")


def test_criterion_04_collision_laws():
    t0 = time.perf_counter()
    p = curve1(0, [0.0, 2.0, 1.0])
    same = collision_probability(p, p, delta=1.0, k=2, trials=2000, seed=1)
    ok_same = same.p_hat == 1.0

    a, b = curve1(0, [0.0, 0.4]), curve1(1, [2.0, 2.4])
    far = collision_probability(a, b, delta=1.0, k=1, trials=10_000, seed=2)
    ok_far = far.collisions == 0

    u, v = curve1(0, [0.0]), curve1(1, [0.5])
    single = collision_probability(u, v, delta=1.0, k=1, trials=10_000, seed=3)
    ok_single = abs(single.p_hat - 0.5) <= 3.0 * single.stderr

    rng = np.random.default_rng(4)
    pairs = []
    for i in range(50):
        m = int(rng.integers(1, 5))
        base = np.sort(rng.uniform(0.0, 3.0, size=m))
        off = rng.uniform(-0.05, 0.05, size=m)
        pairs.append((Curve(2 * i, base.reshape(-1, 1)),
                      Curve(2 * i + 1, (base + off).reshape(-1, 1))))
    rows = bounds_report(pairs, delta=1.0, k=1, trials=2000, seed=5)
    hard = sum(r.hard_violation for r in rows)
    elapsed = time.perf_counter() - t0
    report(4, "grid collision laws: identical, beyond-cell, single-vertex, "
           "union bound on 50 near pairs",
           ok_same and ok_far and ok_single and hard == 0 and elapsed < 60.0,
           f"pHat(identical)={same.p_hat}, far collisions={far.collisions}, "
           f"single gap={abs(single.p_hat - 0.5):.4f}, "
           f"hard violations={hard}, {elapsed:.1f}s")


def test_criterion_05_noisy_collision_laws():
    p = curve1(0, [0.5])
    est = noisy_collision_probability(p, p, delta=1.0, trials=10_000, seed=1)
    ok_bound = est.p_hat >= 0.25 - 3.0 * est.stderr

    a, b = curve1(0, [0.0]), curve1(1, [2.5])
    far = noisy_collision_probability(a, b, delta=1.0, trials=10_000, seed=2)
    report(5, "noisy scheme: single-vertex bound holds, beyond two cells "
           "never collides",
           ok_bound and far.collisions == 0,
           f"pHat={est.p_hat:.3f} vs bound 0.25, far={far.collisions}")


def test_criterion_06_tau_sweep_invariants(tau_sweep):
    data, truth, reports, elapsed = tau_sweep
    taus = sorted(reports)
    recalls = [reports[t].metrics.recall for t in taus]
    precisions = [reports[t].metrics.precision for t in taus]
    chain_ok = all(
        set(reports[hi].pairs) <= set(reports[lo].pairs)
        for lo, hi in zip(taus, taus[1:])
    )
    mono_ok = all(a <= b + 1e-15 for a, b in zip(precisions, precisions[1:]))
    report(6, "tau sweep: constant recall, monotone precision, exact at "
           "tau=1, nested predictions",
           len(set(recalls)) == 1 and mono_ok and precisions[-1] == 1.0
           and chain_ok and elapsed < 120.0,
           f"recall={recalls[0]:.3f}, precisions={['%.3f' % x for x in precisions]}, "
           f"{elapsed:.1f}s")


def test_criterion_07_clustered_recall_at_scale(tau_sweep):
    _, _, reports, _ = tau_sweep
    recall = reports[0.0].metrics.recall
    report(7, "recall >= 0.8 on the clustered dataset (k=2, L=1024)",
           recall >= 0.8, f"recall={recall:.3f}")


def test_criterion_08_scores_separate_the_classes(tau_sweep):
    _, truth, reports, _ = tau_sweep
    hist = score_histogram(reports[0.0], truth)
    ok = bool(hist.fp_scores) and bool(hist.tp_scores) and \
        float(np.mean(hist.fp_scores)) < float(np.mean(hist.tp_scores))
    report(8, "mean false-positive score below mean true-positive score",
           ok, f"fp mean={np.mean(hist.fp_scores):.3f} over "
           f"{len(hist.fp_scores)}, tp mean={np.mean(hist.tp_scores):.3f} "
           f"over {len(hist.tp_scores)}")


def test_criterion_09_index_build_cost_scales_with_root_L(monkeypatch):
    rng = np.random.default_rng(6)
    data = dataset_of([random_walk_curve(rng, i, 5, 2) for i in range(10)])
    snapped = count_snaps(monkeypatch)  # (grid, curve) snaps per snap_signature call
    ok = True
    detail = []
    for k, L in ((2, 64), (2, 256), (2, 1024), (1, 64)):
        snapped.clear()
        build_index(data, LshParams(4.0, k, L, 2, seed=1))
        per_curve = sum(snapped) / data.n
        ok = ok and per_curve == k * math.isqrt(L) and per_curve < k * L
        detail.append(f"k={k},L={L}: {per_curve:g}")
    report(9, "per-curve grid evaluations equal k*sqrt(L), not k*L",
           ok, "; ".join(detail))


def test_criterion_10_index_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    data = dataset_of([random_walk_curve(rng, i, 5, 2) for i in range(20)])
    params = LshParams(4.0, 2, 64, 2, seed=8)
    idx = build_index(data, params)
    path = tmp_path / "index.bin"
    save_index(idx, path)
    loaded = load_index(path, data)
    queries = [random_walk_curve(rng, 100 + i, 5, 2) for i in range(100)]
    same = all(query_scores(idx, q) == query_scores(loaded, q)
               for q in queries)

    blob = bytearray(path.read_bytes())
    rejected = 0
    try:
        load_index(path.with_name("none.bin"), data)
    except (IndexFormatError, OSError):
        rejected += 1
    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    try:
        load_index(bad_magic, data)
    except IndexFormatError:
        rejected += 1
    short = tmp_path / "short.bin"
    short.write_bytes(bytes(blob[: len(blob) // 2]))
    try:
        load_index(short, data)
    except IndexFormatError:
        rejected += 1
    other = dataset_of([random_walk_curve(rng, i, 5, 2) for i in range(20)])
    try:
        load_index(path, other)
    except IndexFormatError:
        rejected += 1
    report(10, "round-trip preserves 100 query score lists; corrupt or "
           "mismatched files are rejected",
           same and rejected == 4, f"identical={same}, rejections={rejected}/4")


def test_criterion_11_cli_runs_are_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(9)
    data, _ = clustered_dataset(rng, 3, 4, 1, 1.0)
    dataset_file = tmp_path / "data.txt"
    write_series_1d(data, dataset_file)

    def run(tag):
        summary = tmp_path / f"{tag}.json"
        queries = tmp_path / f"{tag}.jsonl"
        pairs = tmp_path / f"{tag}.csv"
        code = cli_main([
            "self-join", "--data", str(dataset_file), "--radius", "1.0",
            "--L", "64", "--tau", "0.5", "--seed", "5", "--no-timings",
            "--out-summary", str(summary), "--out-queries", str(queries),
            "--out-pairs", str(pairs)])
        capsys.readouterr()
        assert code == 0
        return summary.read_bytes(), queries.read_bytes(), pairs.read_bytes()

    first = run("a")
    second = run("b")
    report(11, "identical flags and seed give byte-identical reports",
           first == second, f"rerun identical={first == second}")


def test_criterion_12_timings_are_reported_not_asserted(tau_sweep):
    _, _, reports, _ = tau_sweep
    rep = reports[1.0]
    ok = rep.build_seconds >= 0.0 and rep.query_seconds >= 0.0 and \
        all(q.elapsed >= 0.0 for q in rep.queries)
    report(12, "wall-clock timings are emitted for inspection only; no "
           "threshold is asserted (hardware-bound baselines are out of scope)",
           ok, f"build={rep.build_seconds:.3f}s, query={rep.query_seconds:.3f}s")
