"""Range queries, self join, exact join, metrics, percentile radius."""

import json
import math

import numpy as np
import pytest

from curvejoin import Curve, Dataset, engine
from curvejoin.curves import _dist
from curvejoin.engine import (
    JoinReport,
    QueryConfig,
    exact_join,
    make_params,
    metrics,
    pairs_csv,
    percentile_radius,
    query_record_dicts,
    range_query,
    self_join,
    stage_histogram,
    summary_dict,
)
from curvejoin.frechet import Verdict, decide_continuous, endpoints_filter, verify
from curvejoin.lsh import LshParams, build_index

from helpers import (
    clustered_dataset,
    curve,
    curve1,
    dataset_of,
    exact_join_per_pair,
    perturbed_copy,
    random_walk_curve,
    self_join_two_sided,
    walk_families,
)


def small_join_setup(seed=7, clusters=3, per_cluster=4, d=2, r=1.0,
                     k=2, L=16, **cfg_kw):
    rng = np.random.default_rng(seed)
    data, truth = clustered_dataset(rng, clusters, per_cluster, d, r)
    cfg = QueryConfig(r=r, **cfg_kw)
    params = make_params(data, cfg, k=k, L=L, seed=seed)
    return data, truth, cfg, params


class TestQueryConfig:
    def test_defaults(self):
        cfg = QueryConfig(r=2.0)
        assert cfg.tau == 1.0
        assert cfg.eps_list == (10.0, 1.0, 0.1)
        assert cfg.radius_slack == "none"
        assert cfg.grid_factor == 4.0

    @pytest.mark.parametrize("kw", [
        {"r": 0.0},
        {"r": -1.0},
        {"r": 1.0, "tau": -0.1},
        {"r": 1.0, "tau": 1.5},
        {"r": 1.0, "radius_slack": "edges"},
        {"r": 1.0, "grid_factor": 0.0},
        {"r": math.nan},
        {"r": math.inf},
        {"r": 1.0, "tau": math.nan},
        {"r": 1.0, "grid_factor": math.nan},
        {"r": 1.0, "grid_factor": math.inf},
        {"r": 1.0, "eps_list": (1.0, math.nan)},
        {"r": 1.0, "eps_list": (1.0, 0.0)},
        {"r": 1.0, "eps_list": (1.0, 1.0)},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            QueryConfig(**kw)

    def test_grid_delta_without_slack(self):
        data = dataset_of([curve1(0, [0.0, 5.0]), curve1(1, [1.0, 2.0])])
        cfg = QueryConfig(r=0.5, grid_factor=4.0)
        assert cfg.grid_delta(data) == 4.0 * 1 * 0.5

    def test_grid_delta_with_longest_edge_slack(self):
        # the longest edge in the dataset is 5
        data = dataset_of([curve1(0, [0.0, 5.0]), curve1(1, [1.0, 2.0])])
        cfg = QueryConfig(r=0.5, radius_slack="longest-edge")
        assert cfg.lsh_radius(data) == 0.5 + 5.0
        assert cfg.grid_delta(data) == 4.0 * 1 * 5.5

    def test_dimension_scales_grid(self):
        rng = np.random.default_rng(0)
        data = dataset_of([random_walk_curve(rng, i, 4, 3) for i in range(2)])
        cfg = QueryConfig(r=2.0, grid_factor=2.0)
        assert cfg.grid_delta(data) == 2.0 * 3 * 2.0


class TestRangeQuery:
    def test_full_tau_verifies_everything(self):
        data, truth, cfg, params = small_join_setup(tau=1.0)
        idx = build_index(data, params)
        res = range_query(idx, data, data[0], cfg, exclude_id=0)
        for dec in res.kept:
            assert dec.verdict == "near"
            assert dec.stage is not None
        for dec in res.rejected:
            assert dec.verdict == "far"
            assert dec.stage is not None

    def test_full_tau_has_no_false_positives(self):
        data, truth, cfg, params = small_join_setup(tau=1.0)
        idx = build_index(data, params)
        for q in data:
            res = range_query(idx, data, q, cfg, exclude_id=q.id)
            for dec in res.kept:
                assert decide_continuous(q, data[dec.curve_id], cfg.r)

    def test_zero_tau_skips_verification(self):
        data, truth, cfg, params = small_join_setup(tau=0.0)
        idx = build_index(data, params)
        res = range_query(idx, data, data[0], cfg, exclude_id=0)
        assert res.rejected == ()
        assert all(d.verdict == "unverified" and d.stage is None
                   for d in res.kept)

    def test_partial_tau_verifies_lowest_scores_first(self):
        data, truth, cfg, params = small_join_setup(tau=0.5)
        idx = build_index(data, params)
        for q in data:
            res = range_query(idx, data, q, cfg, exclude_id=q.id)
            nsel = math.ceil(cfg.tau * res.candidates)
            verified = [d for d in res.kept if d.verdict != "unverified"]
            verified += list(res.rejected)
            assert len(verified) == nsel
            if verified and len(verified) < res.candidates:
                worst_verified = max(d.score for d in verified)
                best_skipped = min(d.score for d in res.kept
                                   if d.verdict == "unverified")
                assert worst_verified <= best_skipped

    def test_exclude_id_drops_self(self):
        data, truth, cfg, params = small_join_setup()
        idx = build_index(data, params)
        res = range_query(idx, data, data[3], cfg, exclude_id=3)
        assert 3 not in [d.curve_id for d in res.kept]
        withself = range_query(idx, data, data[3], cfg)
        assert 3 in [d.curve_id for d in withself.kept]

    def test_mismatched_grid_rejected(self):
        data, truth, cfg, params = small_join_setup()
        bad = LshParams(params.delta * 2.0, params.k, params.L, params.d,
                        params.seed)
        idx = build_index(data, bad)
        with pytest.raises(ValueError, match="grid"):
            range_query(idx, data, data[0], cfg)

    def test_longest_edge_slack_answers_external_queries(self):
        # the query's 50-long edge is far longer than any in the dataset;
        # it is hashed on the index's grid all the same
        rng = np.random.default_rng(12)
        data = dataset_of([random_walk_curve(rng, i, 8, 1) for i in range(5)])
        cfg = QueryConfig(r=0.5, tau=1.0, radius_slack="longest-edge")
        idx = build_index(data, make_params(data, cfg, k=2, L=16, seed=3))
        for q in (curve1(9, [0.0, 50.0]),
                  Curve(9, np.vstack([data[0].vertices, data[0].vertices[-1:] + 50.0]))):
            res = range_query(idx, data, q, cfg)
            for dec in res.kept + res.rejected:
                near = decide_continuous(q, data[dec.curve_id], cfg.r)
                assert (dec.verdict == "near") == near
        res = range_query(idx, data, data[0], cfg)
        assert 0 in [d.curve_id for d in res.kept]

    def test_near_duplicates_are_found(self):
        # copies sit at ~2% of the grid cell, so every table collides
        data, truth, cfg, params = small_join_setup(tau=1.0)
        idx = build_index(data, params)
        for a, b in sorted(truth):
            res = range_query(idx, data, data[a], cfg, exclude_id=a)
            assert b in [d.curve_id for d in res.kept]

    def test_borderline_curves_score_lower(self):
        # ring curves are 2r away: any collision they get must score
        # below the near-duplicates' perfect score
        data, truth, cfg, params = small_join_setup(tau=1.0)
        idx = build_index(data, params)
        res = range_query(idx, data, data[0], cfg, exclude_id=0)
        near_scores = [d.score for d in res.kept]
        assert near_scores and min(near_scores) == 1.0
        for dec in res.rejected:
            assert dec.score < 1.0


class TestSelfJoin:
    def test_tau_one_matches_exact_join(self):
        data, truth, cfg, params = small_join_setup(tau=1.0)
        report = self_join(data, params, cfg)
        exact = exact_join(data, cfg.r)
        assert set(report.pairs) <= set(exact)
        # near-duplicate collisions are certain, so nothing is missed
        assert set(report.pairs) == set(exact) == truth

    def test_pairs_are_unordered_sorted_unique(self):
        data, truth, cfg, params = small_join_setup(tau=0.0)
        report = self_join(data, params, cfg)
        assert list(report.pairs) == sorted(set(report.pairs))
        for a, b in report.pairs:
            assert a < b

    def test_predicted_set_shrinks_as_tau_grows(self):
        data, truth, cfg, params = small_join_setup()
        prev = None
        for tau in (0.0, 0.5, 1.0):
            cfg_t = QueryConfig(r=cfg.r, tau=tau)
            got = set(self_join(data, params, cfg_t).pairs)
            if prev is not None:
                assert got <= prev
            prev = got

    def test_recall_is_tau_invariant(self):
        # verification only ever removes Far pairs, never true ones
        data, truth, cfg, params = small_join_setup()
        exact = set(exact_join(data, cfg.r))
        recalls = []
        for tau in (0.0, 0.25, 0.75, 1.0):
            cfg_t = QueryConfig(r=cfg.r, tau=tau)
            report = self_join(data, params, cfg_t, truth=exact)
            recalls.append(report.metrics.recall)
        assert len(set(recalls)) == 1

    def test_tau_one_precision_is_perfect(self):
        for seed in range(3):
            data, truth, cfg, params = small_join_setup(seed=seed, tau=1.0)
            exact = set(exact_join(data, cfg.r))
            report = self_join(data, params, cfg, truth=exact)
            assert report.metrics.precision == 1.0
            assert report.metrics.fp == 0

    def test_reports_are_deterministic(self):
        data, truth, cfg, params = small_join_setup(tau=0.5)
        rep1 = self_join(data, params, cfg)
        rep2 = self_join(data, params, cfg)
        assert rep1.pairs == rep2.pairs
        assert rep1.decided == rep2.decided

    def test_metrics_only_with_truth(self):
        data, truth, cfg, params = small_join_setup()
        assert self_join(data, params, cfg).metrics is None
        report = self_join(data, params, cfg, truth=truth)
        assert report.metrics is not None
        assert report.metrics.recall == 1.0

    def test_query_records_cover_every_curve(self):
        data, truth, cfg, params = small_join_setup()
        report = self_join(data, params, cfg)
        assert [rec.query_id for rec in report.queries] == list(range(data.n))
        assert all(rec.elapsed >= 0.0 for rec in report.queries)
        assert report.build_seconds >= 0.0
        assert report.query_seconds >= 0.0

    def test_stage_histogram_accounts_for_every_pair(self):
        for tau in (0.0, 0.5, 1.0):
            data, truth, cfg, params = small_join_setup(tau=tau)
            report = self_join(data, params, cfg)
            hist = stage_histogram(report)
            assert sum(hist.values()) == report.total_pairs
            assert hist["lsh-reject"] >= 0
            if tau == 0.0:
                decided = sum(v for k, v in hist.items()
                              if k not in ("lsh-reject", "unverified-positive"))
                assert decided == 0

    def test_unverified_pairs_are_reported(self):
        # at 0 < tau < 1 one query may skip a pair that the other query
        # verifies Far; the pair is then filed under its verified stage
        seen = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            base = [random_walk_curve(rng, i, 6, 1, step=0.5) for i in range(6)]
            data = dataset_of(base + [perturbed_copy(rng, c, 6 + c.id, amp=0.3)
                                      for c in base])
            cfg = QueryConfig(r=0.5, tau=0.5, grid_factor=2.0)
            report = self_join(data, make_params(data, cfg, k=1, L=16, seed=7), cfg)
            unverified = {p for p, (_, v) in report.decided.items() if v == "unverified"}
            assert unverified <= set(report.pairs)
            seen += len(unverified)
        assert seen > 0

    def test_histogram_buckets_use_known_labels(self):
        data, truth, cfg, params = small_join_setup(tau=1.0)
        hist = stage_histogram(self_join(data, params, cfg))
        allowed = {"lsh-reject", "unverified-positive", "endpoints", "bbox",
                   "equal-time", "greedy", "negative-filter", "full-verify"}
        for eps in (10, 1, 0.1):
            allowed |= {f"simpl-{eps:g}-near", f"simpl-{eps:g}-far"}
        assert set(hist) <= allowed


class TestExactJoin:
    def test_matches_pairwise_decisions(self):
        rng = np.random.default_rng(11)
        data = dataset_of([random_walk_curve(rng, i, 5, 2) for i in range(8)])
        r = 2.5
        want = tuple((i, j) for i in range(8) for j in range(i + 1, 8)
                     if decide_continuous(data[i], data[j], r))
        assert exact_join(data, r) == want

    def test_rejects_nonpositive_radius(self):
        data = dataset_of([curve1(0, [0.0]), curve1(1, [1.0])])
        with pytest.raises(ValueError):
            exact_join(data, 0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_rejects_non_finite_radius(self, r):
        data = dataset_of([curve1(0, [0.0]), curve1(1, [1.0])])
        with pytest.raises(ValueError, match="finite"):
            exact_join(data, r)

    @pytest.mark.parametrize("eps_list", [(1.0, 10.0), (), (math.nan,)],
                             ids=["increasing", "empty", "nan"])
    def test_rejects_bad_eps_list_when_every_pair_is_filtered(self, eps_list):
        # the endpoints pre-filter drops the only pair, so no verify call
        # would see the list
        data = Dataset([Curve(0, [0.0, 1.0]), Curve(1, [50.0, 51.0])])
        with pytest.raises(ValueError, match="eps"):
            exact_join(data, 1.0, eps_list)

    def test_eps_list_may_be_a_generator(self):
        data, truth, cfg, params = small_join_setup()
        got = exact_join(data, cfg.r, (eps for eps in cfg.eps_list))
        assert got == exact_join(data, cfg.r, cfg.eps_list)


class TestMetrics:
    def test_hand_worked_counts(self):
        got = metrics([(0, 1), (2, 3)], [(0, 1), (1, 2)])
        assert (got.tp, got.fp, got.fn) == (1, 1, 1)
        assert got.recall == 0.5
        assert got.precision == 0.5
        assert got.recall_defined and got.precision_defined

    def test_pairs_are_unordered(self):
        got = metrics([(1, 0)], [(0, 1)])
        assert got.tp == 1 and got.fp == 0 and got.fn == 0

    def test_empty_truth_flags_recall(self):
        got = metrics([(0, 1)], [])
        assert got.recall == 1.0
        assert not got.recall_defined
        assert got.precision == 0.0

    def test_empty_prediction_flags_precision(self):
        got = metrics([], [(0, 1)])
        assert got.precision == 1.0
        assert not got.precision_defined
        assert got.recall == 0.0

    def test_perfect_prediction(self):
        got = metrics([(0, 1), (1, 2)], [(1, 2), (0, 1)])
        assert got.recall == 1.0 and got.precision == 1.0


class TestPercentileRadius:
    def test_hand_worked_nearest_rank(self):
        # single-vertex curves at 0, 1, 10: pairwise distances 1, 9, 10
        data = dataset_of([curve1(0, [0.0]), curve1(1, [1.0]),
                           curve1(2, [10.0])])
        assert percentile_radius(data, 50) == pytest.approx(9.0, rel=1e-3)
        assert percentile_radius(data, 1) == pytest.approx(1.0, rel=1e-3)
        assert percentile_radius(data, 99) == pytest.approx(10.0, rel=1e-3)

    def test_subsampling_is_deterministic(self):
        rng = np.random.default_rng(3)
        data = dataset_of([random_walk_curve(rng, i, 4, 2) for i in range(30)])
        a = percentile_radius(data, 25, sample_size=10, seed=42)
        b = percentile_radius(data, 25, sample_size=10, seed=42)
        assert a == b
        assert a > 0.0

    @pytest.mark.parametrize("pct", [0, 100, -5])
    def test_rejects_bad_percentile(self, pct):
        data = dataset_of([curve1(0, [0.0]), curve1(1, [1.0])])
        with pytest.raises(ValueError):
            percentile_radius(data, pct)

    def test_rejects_tiny_inputs(self):
        data = dataset_of([curve1(0, [0.0])])
        with pytest.raises(ValueError):
            percentile_radius(data, 50)
        two = dataset_of([curve1(0, [0.0]), curve1(1, [1.0])])
        with pytest.raises(ValueError):
            percentile_radius(two, 50, sample_size=1)


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


class TestSerialization:
    def test_summary_is_json_and_timing_masked_stable(self):
        data, truth, cfg, params = small_join_setup(tau=0.5)
        exact = set(exact_join(data, cfg.r))
        s1 = summary_dict(self_join(data, params, cfg, truth=exact))
        s2 = summary_dict(self_join(data, params, cfg, truth=exact))
        assert json.dumps(strip_timings(s1)) == json.dumps(strip_timings(s2))
        assert "timings" in s1 and "build_seconds" in s1["timings"]
        assert s1["metrics"]["tp"] == s1["metrics"]["tp"]
        assert s1["stage_histogram"] == stage_histogram(
            self_join(data, params, cfg))

    def test_query_rows_match_queries(self):
        data, truth, cfg, params = small_join_setup()
        report = self_join(data, params, cfg)
        rows = query_record_dicts(report)
        assert [row["query_id"] for row in rows] == list(range(data.n))
        for row in rows:
            json.dumps(row)
            assert "timings" in row
        r1 = [json.dumps(strip_timings(r)) for r in rows]
        r2 = [json.dumps(strip_timings(r))
              for r in query_record_dicts(self_join(data, params, cfg))]
        assert r1 == r2

    def test_pairs_csv_round_trip(self):
        text = pairs_csv([(3, 1), (0, 2)])
        assert text.splitlines()[0] == "idA,idB"
        assert text.splitlines()[1:] == ["0,2", "1,3"]

    def test_summary_counts_are_consistent(self):
        data, truth, cfg, params = small_join_setup()
        report = self_join(data, params, cfg)
        s = summary_dict(report)
        assert s["n_curves"] == data.n
        assert s["total_pairs"] == data.n * (data.n - 1) // 2
        assert s["predicted_pairs"] == len(report.pairs)
        assert sum(s["stage_histogram"].values()) == s["total_pairs"]


# Walk-family sets for the differential tests: (half_grid, repeats). The
# half-grid and repeated-vertex sets tie greedy_upper's moves and put pairs
# at distance exactly r.
FAMILY_VARIANTS = {
    "plain": (False, False),
    "half-grid": (True, False),
    "repeats": (False, True),
    "half-grid-repeats": (True, True),
}


def family_join(seed, d, variant, tau):
    half_grid, repeats = FAMILY_VARIANTS[variant]
    data = walk_families(np.random.default_rng(seed), 4, d,
                         half_grid=half_grid, repeats=repeats)
    cfg = QueryConfig(r=1.0, tau=tau, grid_factor=16.0)
    return data, cfg, make_params(data, cfg, k=1, L=16, seed=seed)


def query_rows(report):
    return [json.dumps(strip_timings(row)) for row in query_record_dicts(report)]


def selected_pairs(report):
    return {(min(rec.query_id, dec.curve_id), max(rec.query_id, dec.curve_id))
            for rec in report.queries
            for dec in rec.result.kept + rec.result.rejected
            if dec.verdict != "unverified"}


class TestSelfJoinDecidesOnce:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("variant", sorted(FAMILY_VARIANTS))
    @pytest.mark.parametrize("d", [1, 2])
    def test_reports_equal_the_two_sided_oracle(self, d, variant, tau):
        for seed in range(2):
            data, cfg, params = family_join(seed, d, variant, tau)
            got = self_join(data, params, cfg)
            want = self_join_two_sided(data, params, cfg)
            assert got.pairs == want.pairs
            assert got.decided == want.decided
            assert stage_histogram(got) == stage_histogram(want)
            assert query_rows(got) == query_rows(want)

    def test_argument_order_ties_carry_one_outcome_from_both_sides(self):
        # pairs whose verify stage depends on argument order: both queries
        # report the outcome of verify(lower id, higher id)
        ties = 0
        for seed in range(2):
            for d in (1, 2):
                data, cfg, params = family_join(seed, d, "half-grid-repeats", 1.0)
                rows: dict = {}
                for rec in self_join(data, params, cfg).queries:
                    for dec in rec.result.kept + rec.result.rejected:
                        pair = (min(rec.query_id, dec.curve_id),
                                max(rec.query_id, dec.curve_id))
                        rows.setdefault(pair, []).append((dec.stage, dec.verdict))
                for (i, j), seen in rows.items():
                    want = verify(data[i], data[j], cfg.r, cfg.eps_list)
                    if want.stage == verify(data[j], data[i], cfg.r, cfg.eps_list).stage:
                        continue
                    ties += 1
                    assert seen == [(want.stage, want.verdict.value)] * 2
        assert ties > 0


class TestJoinEqualsTheGroundTruth:
    # at tau = 1 every decided pair carries the outcome of the call
    # exact_join makes for it, and the reported pairs are exact_join's
    @staticmethod
    def assert_decided_as_exact_join(data, cfg, params):
        report = self_join(data, params, cfg)
        assert report.decided
        for (i, j), got in report.decided.items():
            out = verify(data[i], data[j], cfg.r)
            assert got == (out.stage, out.verdict.value)
        assert report.pairs == exact_join(data, cfg.r)

    @pytest.mark.parametrize("variant", sorted(FAMILY_VARIANTS))
    @pytest.mark.parametrize("d", [1, 2])
    def test_walk_families(self, d, variant):
        for seed in range(2):
            self.assert_decided_as_exact_join(*family_join(seed, d, variant, 1.0))

    def test_clustered_set(self):
        data, truth, cfg, params = small_join_setup(tau=1.0)
        self.assert_decided_as_exact_join(data, cfg, params)


class TestJoinCounters:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_counts_match_the_query_records(self, tau):
        for d in (1, 2):
            data, cfg, params = family_join(3, d, "half-grid", tau)
            report = self_join(data, params, cfg)
            c = report.counters
            decisions = [dec for rec in report.queries
                         for dec in rec.result.kept + rec.result.rejected]
            assert c["candidates"] == len(decisions)
            assert c["selected"] == sum(dec.verdict != "unverified"
                                        for dec in decisions)
            assert c["pairs_verified"] == len(selected_pairs(report))
            assert c["simplified_copies"] <= data.n * 2 * len(cfg.eps_list)
            if tau == 0.0:
                assert c["pairs_verified"] == c["simplified_copies"] == 0

    def test_summary_block_sits_outside_timings_and_repeats(self):
        data, truth, cfg, params = small_join_setup(tau=0.5)
        s1 = summary_dict(self_join(data, params, cfg))
        s2 = summary_dict(self_join(data, params, cfg))
        assert "counters" not in s1["timings"]
        assert json.dumps(s1["counters"]) == json.dumps(s2["counters"])
        assert s1["counters"]["pairs_verified"] > 0


class TestExactJoinPrefilter:
    @pytest.mark.parametrize("variant", sorted(FAMILY_VARIANTS))
    @pytest.mark.parametrize("d", [1, 2])
    def test_equals_the_per_pair_oracle(self, d, variant):
        data, cfg, _ = family_join(5, d, variant, 1.0)
        assert exact_join(data, cfg.r) == exact_join_per_pair(data, cfg.r)

    def test_clustered_set_equals_the_per_pair_oracle(self):
        data, truth, cfg, params = small_join_setup(seed=4, d=1)
        assert exact_join(data, cfg.r) == exact_join_per_pair(data, cfg.r)

    def test_gaps_of_exactly_r_pass_to_verify(self):
        # translated segments on the unit grid: endpoint distances and
        # bbox-corner gaps of exactly r = 1 between neighbours
        data = dataset_of([curve(3 * x + y, [[x, y], [x + 2.0, y], [x + 2.0, y + 0.5]])
                           for x in range(3) for y in range(3)])
        got = exact_join(data, 1.0)
        assert got == exact_join_per_pair(data, 1.0)
        assert (0, 1) in got and (0, 3) in got and (0, 4) not in got

    def test_endpoint_distance_knife_edge_equals_the_oracle(self):
        # copies shifted along one direction by a step whose length is r as
        # endpoints_filter rounds it, as np.linalg.norm rounds it, and one
        # ulp above: the array test must pass what endpoints_filter passes
        rng = np.random.default_rng(8)
        knife = 0
        for _ in range(20):
            base = random_walk_curve(rng, 0, 5, 2)
            step = rng.normal(size=2)
            data = dataset_of([Curve(k, base.vertices + k * step) for k in range(4)])
            a, b = data[1].vertices[0], data[0].vertices[0]
            r = _dist(a.tolist(), b.tolist())
            knife += sum(endpoints_filter(data[k], data[k + 1], r).verdict is not Verdict.FAR
                         for k in range(3))
            for radius in (r, float(np.linalg.norm(a - b)), float(np.nextafter(r, np.inf))):
                assert exact_join(data, radius) == exact_join_per_pair(data, radius)
        assert knife > 0

    def test_pairs_at_endpoint_distance_r_are_kept(self):
        # two curves that share all but their first vertex, offset by a step
        # whose length is r as endpoints_filter rounds it and one ulp more as
        # np.linalg.norm rounds it: verify answers Near at r, and the array
        # endpoint test must not drop the pair
        rng = np.random.default_rng(9)
        found = 0
        while found < 10:
            a, step = rng.normal(size=2), rng.normal(size=2)
            r = _dist((a + step).tolist(), a.tolist())
            if float(np.linalg.norm((a + step) - a)) <= r:
                continue
            found += 1
            tail = a + rng.normal(size=(3, 2))
            data = dataset_of([Curve(0, np.vstack([a, tail])),
                               Curve(1, np.vstack([a + step, tail]))])
            assert exact_join(data, r) == exact_join_per_pair(data, r) == ((0, 1),)


class TestStoredCurveQueries:
    """range_query scores the dataset's own curve object from its key row,
    and hashes any other curve, even an equal one; the results agree."""

    def test_equal_but_distinct_curve_gives_the_same_result(self, monkeypatch):
        rows = []
        scores = engine.query_scores

        def spy(idx, q, row=None):
            rows.append(row)
            return scores(idx, q, row=row)

        monkeypatch.setattr(engine, "query_scores", spy)
        for tau in (0.0, 0.5, 1.0):
            data, _, cfg, params = small_join_setup(tau=tau)
            idx = build_index(data, params)
            for c in data:
                rows.clear()
                own = range_query(idx, data, c, cfg, exclude_id=c.id)
                copy = range_query(idx, data, Curve(c.id, c.vertices.copy()), cfg,
                                   exclude_id=c.id)
                assert own == copy
                assert rows == [c.id, None]
