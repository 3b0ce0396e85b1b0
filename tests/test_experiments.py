"""Collision-probability estimators, bound checks, report analysis."""

import csv
import io
import math

import numpy as np
import pytest

from curvejoin import Curve
from curvejoin.engine import (
    QueryConfig,
    exact_join,
    make_params,
    self_join,
    stage_histogram,
)
from curvejoin.experiments import (
    bounds_csv,
    bounds_report,
    collision_probability,
    noisy_collision_probability,
    score_histogram,
)
from curvejoin.frechet import discrete_frechet

from helpers import clustered_dataset, curve1, dataset_of

TRIALS = 10_000


class TestCollisionProbability:
    def test_identical_curves_always_collide(self):
        p = curve1(0, [0.0, 3.0, 1.5])
        est = collision_probability(p, p, delta=2.0, k=2, trials=500, seed=1)
        assert est.p_hat == 1.0
        assert est.collisions == 500
        assert est.stderr == 0.0

    def test_single_vertex_law(self):
        # two points at distance dv share a cell with probability 1 - dv/delta
        p, q = curve1(0, [0.0]), curve1(1, [0.5])
        est = collision_probability(p, q, delta=1.0, k=1, trials=TRIALS, seed=2)
        assert abs(est.p_hat - 0.5) <= 3.0 * est.stderr

    def test_concatenation_multiplies_the_law(self):
        # independent grids: single-vertex pair collides with (1 - dv/delta)^k
        p, q = curve1(0, [0.0]), curve1(1, [0.25])
        est = collision_probability(p, q, delta=1.0, k=2, trials=TRIALS, seed=3)
        assert abs(est.p_hat - 0.75 ** 2) <= 3.0 * est.stderr

    def test_beyond_delta_never_collides(self):
        p, q = curve1(0, [0.0, 1.0]), curve1(1, [2.5, 3.0])
        assert discrete_frechet(p, q) > 1.0
        est = collision_probability(p, q, delta=1.0, k=1, trials=TRIALS, seed=4)
        assert est.collisions == 0

    def test_bound_values_are_exact_arithmetic(self):
        p = curve1(0, [0.0, 1.0])
        q = curve1(1, [0.1, 1.1])
        est = collision_probability(p, q, delta=1.0, k=1, trials=10, seed=5)
        # d_dF = 0.1, m = 2
        assert est.union_lower_bound == pytest.approx(1.0 - 2 * 2 * 0.1, abs=1e-12)
        assert est.independence_estimate == pytest.approx(0.8 ** 2, abs=1e-12)
        assert est.noise_lower_bound is None

    def test_union_bound_clamps_at_zero(self):
        p, q = curve1(0, [0.0]), curve1(1, [0.9])
        est = collision_probability(p, q, delta=1.0, k=1, trials=10, seed=6)
        assert est.union_lower_bound == 0.0

    def test_deterministic_under_seed(self):
        p, q = curve1(0, [0.0, 2.0]), curve1(1, [0.3, 2.2])
        a = collision_probability(p, q, delta=2.0, k=2, trials=2000, seed=7)
        b = collision_probability(p, q, delta=2.0, k=2, trials=2000, seed=7)
        assert a == b

    def test_rejects_bad_arguments(self):
        p = curve1(0, [0.0])
        q2 = Curve(1, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="dimension"):
            collision_probability(p, q2, 1.0, 1, 10, 0)
        with pytest.raises(ValueError):
            collision_probability(p, p, 1.0, 1, 0, 0)
        with pytest.raises(ValueError):
            collision_probability(p, p, 0.0, 1, 10, 0)
        with pytest.raises(ValueError):
            collision_probability(p, p, 1.0, 0, 10, 0)


class TestNoisyCollisionProbability:
    def test_identical_single_vertex_beats_bound(self):
        p = curve1(0, [1.0])
        est = noisy_collision_probability(p, p, delta=1.0, trials=TRIALS, seed=1)
        assert est.noise_lower_bound == 0.25
        assert est.p_hat >= 0.25 - 3.0 * est.stderr

    def test_identical_single_vertex_matches_closed_form(self):
        # noise difference is triangular on (-delta, delta) with mean
        # absolute value delta/3, so the collision rate is 2/3
        p = curve1(0, [0.0])
        est = noisy_collision_probability(p, p, delta=2.0, trials=TRIALS, seed=2)
        assert abs(est.p_hat - 2.0 / 3.0) <= 3.0 * est.stderr

    def test_identical_two_vertex_beats_bound(self):
        p = curve1(0, [0.0, 5.0])
        est = noisy_collision_probability(p, p, delta=1.0, trials=TRIALS, seed=3)
        assert est.noise_lower_bound == 0.25 ** 2
        assert est.p_hat >= est.noise_lower_bound - 3.0 * est.stderr

    def test_beyond_two_delta_never_collides(self):
        p, q = curve1(0, [0.0]), curve1(1, [2.5])
        est = noisy_collision_probability(p, q, delta=1.0, trials=TRIALS, seed=4)
        assert est.collisions == 0
        assert est.noise_lower_bound == 0.0

    def test_requires_one_dimension(self):
        p = Curve(0, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="1-d"):
            noisy_collision_probability(p, p, 1.0, 10, 0)


class TestBoundsReport:
    def test_identical_pair_row(self):
        p = curve1(0, [0.0, 1.0])
        q = curve1(1, [0.0, 1.0])
        (row,) = bounds_report([(p, q)], delta=1.0, k=1, trials=200, seed=0)
        assert row.estimate.p_hat == 1.0
        assert row.estimate.union_lower_bound == 1.0
        assert row.d_df == 0.0
        assert not row.hard_violation
        assert not row.below_independence

    def test_far_pair_row(self):
        p, q = curve1(0, [0.0]), curve1(1, [3.0])
        (row,) = bounds_report([(p, q)], delta=1.0, k=1, trials=200, seed=0)
        assert row.estimate.p_hat == 0.0
        assert row.estimate.union_lower_bound == 0.0
        assert not row.hard_violation

    def test_near_pairs_never_break_the_hard_bound(self):
        rng = np.random.default_rng(9)
        pairs = []
        for i in range(20):
            m = int(rng.integers(1, 4))
            base = np.sort(rng.uniform(0.0, 4.0, size=m))
            off = rng.uniform(-0.05, 0.05, size=m)
            pairs.append((Curve(2 * i, base.reshape(-1, 1)),
                          Curve(2 * i + 1, (base + off).reshape(-1, 1))))
        rows = bounds_report(pairs, delta=1.0, k=1, trials=3000, seed=17)
        assert not any(row.hard_violation for row in rows)

    def test_rows_are_deterministic(self):
        p, q = curve1(0, [0.0, 1.0]), curve1(1, [0.2, 1.2])
        r1 = bounds_report([(p, q)], 2.0, 2, 1000, seed=5)
        r2 = bounds_report([(p, q)], 2.0, 2, 1000, seed=5)
        assert r1 == r2

    def test_csv_round_trip(self):
        p, q = curve1(3, [0.0, 1.0]), curve1(7, [0.2, 1.2])
        rows = bounds_report([(p, q), (p, p)], 2.0, 1, 100, seed=5)
        text = bounds_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 2
        assert parsed[0]["id_a"] == "3" and parsed[0]["id_b"] == "7"
        assert float(parsed[1]["p_hat"]) == 1.0
        assert parsed[0]["hard_violation"] == "False"


def joined_clusters(seed=5, with_ring=True, tau=1.0, L=64):
    rng = np.random.default_rng(seed)
    data, truth = clustered_dataset(rng, 3, 4, 2, 1.0, with_ring=with_ring)
    cfg = QueryConfig(r=1.0, tau=tau)
    params = make_params(data, cfg, k=2, L=L, seed=seed)
    exact = set(exact_join(data, cfg.r))
    return self_join(data, params, cfg, truth=exact), exact


class TestScoreHistogram:
    def test_no_false_positives_without_borderline_curves(self):
        report, exact = joined_clusters(with_ring=False)
        hist = score_histogram(report, exact)
        assert hist.fp_scores == ()
        assert sum(hist.fp_fraction) == 0.0
        assert hist.tp_scores

    def test_identical_curves_all_score_one(self):
        data = dataset_of([curve1(i, [0.0, 1.0, 0.5]) for i in range(5)])
        cfg = QueryConfig(r=0.5)
        params = make_params(data, cfg, k=2, L=16, seed=0)
        exact = set(exact_join(data, cfg.r))
        report = self_join(data, params, cfg, truth=exact)
        hist = score_histogram(report, exact, bins=10)
        assert set(hist.tp_scores) == {1.0}
        assert hist.tp_fraction[-1] == 1.0
        assert sum(hist.tp_fraction[:-1]) == 0.0

    def test_false_positives_score_lower_on_average(self):
        report, exact = joined_clusters(with_ring=True)
        hist = score_histogram(report, exact)
        assert hist.fp_scores, "expected borderline collisions"
        assert np.mean(hist.fp_scores) < np.mean(hist.tp_scores)

    def test_fractions_normalize_per_class(self):
        report, exact = joined_clusters(with_ring=True)
        hist = score_histogram(report, exact, bins=7)
        assert len(hist.edges) == 8
        assert sum(hist.tp_fraction) == pytest.approx(1.0)
        assert sum(hist.fp_fraction) == pytest.approx(1.0)

    def test_each_candidate_pair_counted_once(self):
        report, exact = joined_clusters()
        hist = score_histogram(report, exact)
        seen = set()
        for rec in report.queries:
            for dec in rec.result.kept + rec.result.rejected:
                seen.add(tuple(sorted((rec.query_id, dec.curve_id))))
        assert len(hist.tp_scores) + len(hist.fp_scores) == len(seen)

    def test_rejects_bad_bins(self):
        report, exact = joined_clusters()
        with pytest.raises(ValueError):
            score_histogram(report, exact, bins=0)


class TestStageBreakdown:
    def test_zero_tau_only_unverified_buckets(self):
        report, _ = joined_clusters(tau=0.0)
        hist = stage_histogram(report)
        assert set(hist) <= {"lsh-reject", "unverified-positive"}
        assert sum(hist.values()) == report.total_pairs

    def test_endpoint_gap_dataset_decides_at_endpoints(self):
        # single vertices spread beyond r but within the grid cell
        data = dataset_of([curve1(i, [i * 0.3]) for i in range(6)])
        cfg = QueryConfig(r=0.1)
        params = make_params(data, cfg, k=1, L=16, seed=2)
        report = self_join(data, params, cfg)
        hist = stage_histogram(report)
        assert report.pairs == ()
        assert set(hist) - {"lsh-reject"} == {"endpoints"}

    def test_reconciles_with_report_totals(self):
        report, _ = joined_clusters(tau=0.5)
        hist = stage_histogram(report)
        assert sum(hist.values()) == report.total_pairs
        assert hist["lsh-reject"] == report.total_pairs - len(report.decided)
        assert hist.get("unverified-positive", 0) == sum(
            1 for _, v in report.decided.values() if v == "unverified")
