import dataclasses
import math

import numpy as np
import pytest

from curvejoin import (
    Curve,
    SimplifiedCopies,
    Verdict,
    VerificationOutcome,
    bbox_filter,
    decide_continuous,
    densify,
    discrete_frechet,
    endpoints_filter,
    equal_time_upper,
    estimate_continuous,
    greedy_upper,
    longest_edge,
    negative_filter,
    simplify,
    verify,
    verify_heur,
    verify_simpl,
)
from curvejoin import frechet
from curvejoin.curves import _dist
from curvejoin.frechet import DEFAULT_EPS_LIST
from helpers import (
    acceptance_corpus,
    assert_valid_witness,
    bbox_far_arrays,
    count_cascade_calls,
    curve,
    curve1,
    densified_twins,
    discrete_frechet_brute,
    equal_time_max_arrays,
    equal_time_walk_dists,
    greedy_traversal,
    random_pair,
    random_walk_curve,
    verify_ladder,
    walk_families,
)


class TestDiscreteFrechet:
    def test_hand_worked_triangle(self):
        # traversal pairing the apex with either segment endpoint costs
        # sqrt(2); every alternative is worse
        p = curve(0, [[0.0, 0.0], [2.0, 0.0]])
        q = curve(1, [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        assert discrete_frechet(p, q) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_hand_worked_midpoint(self):
        # the middle vertex 5 must pair with 0 or 10; both cost 5
        p = curve1(0, [0.0, 10.0])
        q = curve1(1, [0.0, 5.0, 10.0])
        assert discrete_frechet(p, q) == 5.0

    def test_single_vertex_against_curve(self):
        p = curve1(0, [3.0])
        q = curve1(1, [0.0, 1.0, 2.0])
        assert discrete_frechet(p, q) == 3.0

    def test_identical_curves(self):
        rng = np.random.default_rng(20)
        c = random_walk_curve(rng, 0, 12, 3)
        assert discrete_frechet(c, c) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(250):
            d = int(rng.integers(1, 4))
            p, q = random_pair(rng, d)
            assert discrete_frechet(p, q) == pytest.approx(
                discrete_frechet_brute(p, q), abs=1e-12
            )

    def test_symmetry(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p, q = random_pair(rng, 2)
            assert discrete_frechet(p, q) == discrete_frechet(q, p)

    def test_brute_guard(self):
        rng = np.random.default_rng(23)
        p = random_walk_curve(rng, 0, 9, 1)
        q = random_walk_curve(rng, 1, 9, 1)
        with pytest.raises(ValueError, match="guard"):
            discrete_frechet_brute(p, q)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            discrete_frechet(curve1(0, [0.0]), curve(1, [[0.0, 0.0]]))


class TestHighDimensionArithmetic:
    """From d = 8 on, numpy's sum adds the squares pairwise, not in
    coordinate order; every array distance must still equal _dist."""

    @pytest.mark.parametrize("d", [8, 12])
    def test_array_distances_equal_dist(self, d):
        rng = np.random.default_rng(40 + d)
        for _ in range(1000):
            p, q = Curve(0, rng.normal(size=(1, d))), Curve(1, rng.normal(size=(1, d)))
            ddf = discrete_frechet(p, q)
            assert ddf == _dist(p.vertices[0].tolist(), q.vertices[0].tolist())
            # the discrete distance bounds the continuous one from above
            assert decide_continuous(p, q, ddf)
            two = Curve(2, rng.normal(size=(2, d)))
            assert longest_edge(two) == _dist(*two.vertices.tolist())


class TestDecideContinuous:
    def test_parallel_segments(self):
        p = curve(0, [[0.0, 0.0], [2.0, 0.0]])
        q = curve(1, [[0.0, 1.0], [2.0, 1.0]])
        assert decide_continuous(p, q, 1.0)
        assert not decide_continuous(p, q, 0.999)

    def test_spike_needs_continuous_matching(self):
        # the apex reaches distance 1 from the segment; the discrete
        # distance is sqrt(5), so this separates the two notions
        p = curve(0, [[0.0, 0.0], [4.0, 0.0]])
        q = curve(1, [[0.0, 0.0], [2.0, 1.0], [4.0, 0.0]])
        assert discrete_frechet(p, q) == pytest.approx(math.sqrt(5.0))
        assert decide_continuous(p, q, 1.0)
        assert not decide_continuous(p, q, 0.999)

    def test_backtracking_wiggle(self):
        # q dips back to 0 while p may only move forward; the best
        # compromise parks p at 0.5 during the dip
        p = curve1(0, [0.0, 5.0])
        q = curve1(1, [0.0, 1.0, 0.0, 5.0])
        assert decide_continuous(p, q, 0.5)
        assert not decide_continuous(p, q, 0.499)

    def test_zero_radius_identical(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            c = random_walk_curve(rng, 0, int(rng.integers(1, 15)), 2)
            assert decide_continuous(c, c, 0.0)

    def test_zero_length_edges_are_transparent(self):
        p = curve(0, [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        q = curve(1, [[0.0, 0.0], [1.0, 0.0]])
        assert decide_continuous(p, q, 0.0)

    def test_single_vertex_cases(self):
        p = curve1(0, [1.0])
        q = curve1(1, [0.0, 2.0])
        assert decide_continuous(p, q, 1.0)
        assert not decide_continuous(p, q, 0.5)
        assert decide_continuous(p, curve1(1, [1.0]), 0.0)

    def test_radius_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p, q = random_pair(rng, int(rng.integers(1, 3)))
            base = discrete_frechet(p, q)
            radii = sorted(rng.uniform(0.0, 1.5, size=4) * (base + 0.1))
            answers = [decide_continuous(p, q, r) for r in radii]
            for a, b in zip(answers, answers[1:]):
                assert (not a) or b, "Near at small r but Far at larger r"

    def test_sandwich_against_discrete(self):
        # Near at r forces discrete <= r + longest edge; Far at r forces
        # discrete > r (the discrete distance upper-bounds the continuous)
        rng = np.random.default_rng(32)
        for _ in range(300):
            p, q = random_pair(rng, int(rng.integers(1, 4)))
            dd = discrete_frechet(p, q)
            iota = max(longest_edge(p), longest_edge(q))
            r = float(rng.uniform(0.0, 1.4)) * (dd + 0.05)
            if decide_continuous(p, q, r):
                assert dd <= r + iota + 1e-9
            else:
                assert dd > r

    def test_upper_bound_accepts_discrete_radius(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            p, q = random_pair(rng, 2)
            assert decide_continuous(p, q, discrete_frechet(p, q) + 1e-12)

    def test_densification_invariance(self):
        # the densified curve traces the same polyline, so decisions at
        # any radius must agree (away from knife-edge radii)
        rng = np.random.default_rng(34)
        for _ in range(60):
            p, q = random_pair(rng, 2)
            r = float(rng.uniform(0.1, 1.2)) * (discrete_frechet(p, q) + 0.05)
            got = decide_continuous(p, q, r)
            assert decide_continuous(densify(p, 0.4), q, r + 1e-9) or not got
            assert not decide_continuous(densify(p, 0.4), q, r - 1e-9) or got

    def test_symmetry(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            p, q = random_pair(rng, 2)
            r = float(rng.uniform(0.2, 1.2)) * (discrete_frechet(p, q) + 0.05)
            assert decide_continuous(p, q, r) == decide_continuous(q, p, r)

    def test_boundary_radius_counts_as_near(self):
        p = curve(0, [[0.0, 0.0], [1.0, 0.0]])
        q = curve(1, [[0.0, 2.0], [1.0, 2.0]])
        assert decide_continuous(p, q, 2.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            decide_continuous(curve1(0, [0.0]), curve1(1, [0.0]), -1.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    @pytest.mark.parametrize("decider", [
        decide_continuous, verify, verify_heur, greedy_upper, negative_filter,
        lambda p, q, r: verify_simpl(p, q, r, 1.0),
    ], ids=["decide_continuous", "verify", "verify_heur", "greedy_upper",
            "negative_filter", "verify_simpl"])
    def test_non_finite_radius_rejected(self, decider, r):
        p = curve1(0, [0.0, 1.0])
        with pytest.raises(ValueError, match="radius"):
            decider(p, p, r)


class TestInputChecks:
    STEPS = [endpoints_filter, bbox_filter, equal_time_upper, greedy_upper,
             negative_filter, verify_heur, lambda p, q, r: verify_simpl(p, q, r, 1.0)]
    IDS = ["endpoints_filter", "bbox_filter", "equal_time_upper", "greedy_upper",
           "negative_filter", "verify_heur", "verify_simpl"]

    @pytest.mark.parametrize("step", STEPS, ids=IDS)
    def test_every_cascade_step_checks_its_inputs(self, step):
        # the curves overlap, so no step could answer Far on geometry alone
        p2 = curve(0, [[0.0, 0.0], [1.0, 0.0]])
        p1 = curve1(1, [0.0, 1.0])
        for p, q in ((p2, p1), (p1, p2)):
            with pytest.raises(ValueError, match="dimension"):
                step(p, q, 1.0)
        for r in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(ValueError, match="radius"):
                step(p2, p2, r)


class TestEstimateContinuous:
    def test_spike_value(self):
        p = curve(0, [[0.0, 0.0], [4.0, 0.0]])
        q = curve(1, [[0.0, 0.0], [2.0, 1.0], [4.0, 0.0]])
        assert estimate_continuous(p, q) == pytest.approx(1.0, rel=1e-3)

    def test_backtracking_value(self):
        p = curve1(0, [0.0, 5.0])
        q = curve1(1, [0.0, 1.0, 0.0, 5.0])
        assert estimate_continuous(p, q) == pytest.approx(0.5, rel=1e-3)

    def test_brackets(self):
        rng = np.random.default_rng(40)
        for _ in range(60):
            p, q = random_pair(rng, 2)
            est = estimate_continuous(p, q)
            lo = max(
                float(np.linalg.norm(p.vertices[0] - q.vertices[0])),
                float(np.linalg.norm(p.vertices[-1] - q.vertices[-1])),
            )
            dd = discrete_frechet(p, q)
            assert lo - 1e-12 <= est <= dd * (1 + 1e-11) + 1e-12
            assert decide_continuous(p, q, est)

    def test_every_returned_value_is_accepted(self, monkeypatch):
        # A decision that rejects everything below a floor stands in for a
        # knife-edge radius that floating point lands Far: the estimate
        # keeps widening until it is accepted.
        rng = np.random.default_rng(42)
        exact = decide_continuous
        for floor_factor in (1.0, 1.0 + 1e-7, 1.5):
            for _ in range(20):
                p, q = random_pair(rng, 2)
                floor = discrete_frechet(p, q) * floor_factor
                monkeypatch.setattr(
                    frechet, "decide_continuous",
                    lambda a, b, r, floor=floor: r >= floor and exact(a, b, r))
                est = estimate_continuous(p, q)
                monkeypatch.undo()
                assert est >= floor and exact(p, q, est)

    def test_identical_is_zero(self):
        rng = np.random.default_rng(41)
        c = random_walk_curve(rng, 0, 10, 2)
        assert estimate_continuous(c, c) == 0.0

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_rel_tol_rejected(self, rel_tol):
        c = curve1(0, [0.0, 1.0])
        with pytest.raises(ValueError, match="rel_tol"):
            estimate_continuous(c, c, rel_tol=rel_tol)


class TestSimpleFilters:
    def test_endpoints(self):
        p = curve1(0, [0.0, 1.0])
        q = curve1(1, [0.0, 3.0])
        assert endpoints_filter(p, q, 1.0).verdict is Verdict.FAR
        assert endpoints_filter(p, q, 2.0).verdict is Verdict.UNKNOWN

    def test_bbox_catches_what_endpoints_miss(self):
        p = curve1(0, [0.0, 10.0, 0.0])
        q = curve1(1, [0.0, 0.1, 0.0])
        assert endpoints_filter(p, q, 1.0).verdict is Verdict.UNKNOWN
        out = bbox_filter(p, q, 1.0)
        assert out.verdict is Verdict.FAR
        assert out.stage == "bbox"

    def test_filters_are_sound(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p, q = random_pair(rng, int(rng.integers(1, 3)))
            r = float(rng.uniform(0.0, 1.3)) * (discrete_frechet(p, q) + 0.05)
            near = decide_continuous(p, q, r)
            for filt in (endpoints_filter, bbox_filter):
                out = filt(p, q, r)
                assert out.verdict in (Verdict.FAR, Verdict.UNKNOWN)
                if out.verdict is Verdict.FAR:
                    assert not near

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_float_corners_equal_the_corner_arrays(self, d):
        # verdicts against the array test at every corner gap exactly and
        # one ulp either side, including gaps of exactly r and signed zeros
        rng = np.random.default_rng(60 + d)
        cases = [random_pair(rng, d) for _ in range(60)]
        zeros = Curve(0, np.array([[0.0] * d, [-0.0] * d]))
        cases += [(zeros, Curve(1, np.array([[-0.0] * d]))), (Curve(1, -zeros.vertices), zeros)]
        for u in range(d):
            # quarter values subtract exactly: every corner gap in
            # coordinate u is exactly 0.75
            V = rng.integers(-8, 8, size=(5, d)) / 4.0
            W = V.copy()
            W[:, u] += 0.75
            cases.append((Curve(0, V), Curve(1, W)))
        for p, q in cases:
            P, Q = p.vertices, q.vertices
            gaps = np.abs(np.concatenate((P.min(axis=0) - Q.min(axis=0),
                                          P.max(axis=0) - Q.max(axis=0))))
            for gap in gaps.tolist():
                for r in (gap, math.nextafter(gap, 0.0), math.nextafter(gap, math.inf)):
                    want = Verdict.FAR if bbox_far_arrays(p, q, r) else Verdict.UNKNOWN
                    out = bbox_filter(p, q, r)
                    assert (out.verdict, out.stage) == (want, "bbox"), (p, q, r)
        assert bbox_filter(*cases[-1], 0.75).verdict is Verdict.UNKNOWN
        assert bbox_filter(*cases[-1], math.nextafter(0.75, 0.0)).verdict is Verdict.FAR


class TestEqualTimeUpper:
    def test_parallel_near(self):
        p = curve(0, [[0.0, 0.0], [1.0, 0.0]])
        q = curve(1, [[0.0, 1.0], [1.0, 1.0]])
        assert equal_time_upper(p, q, 1.0).verdict is Verdict.NEAR
        dmax, positions = equal_time_max_arrays(p, q)
        assert dmax == 1.0
        assert_valid_witness(p, q, 1.0, positions)
        assert equal_time_upper(p, q, 0.99).verdict is Verdict.UNKNOWN

    def test_breakpoint_positions_are_exact(self):
        # same polyline sampled differently: uniform traversal coincides,
        # so the pair is Near even at radius zero
        p = curve1(0, [0.0, 2.0])
        q = curve1(1, [0.0, 1.0, 2.0])
        assert equal_time_upper(p, q, 0.0).verdict is Verdict.NEAR
        assert equal_time_max_arrays(p, q) == (0.0, [(0.0, 0.0), (0.5, 1.0), (1.0, 2.0)])

    def test_one_sided(self):
        # curves that wiggle out of phase defeat the uniform traversal
        p = curve1(0, [0.0, 2.0, 0.0])
        q = curve1(1, [0.0, 0.0, 2.0, 0.0, 0.0])
        r = estimate_continuous(p, q) * 1.01
        out = equal_time_upper(p, q, r)
        assert out.verdict in (Verdict.NEAR, Verdict.UNKNOWN)

    def test_max_is_exact_at_breakpoints(self):
        # oracle: dense sampling never exceeds the breakpoint maximum
        rng = np.random.default_rng(43)
        for _ in range(40):
            p, q = random_pair(rng, 2)
            sup = _uniform_traversal_sup(p, q)
            ts = np.linspace(0.0, 1.0, 1001)
            pd = _at_fraction(p.vertices, ts)
            qd = _at_fraction(q.vertices, ts)
            dense = float(np.linalg.norm(pd - qd, axis=1).max())
            assert dense <= sup + 1e-9
            assert equal_time_upper(p, q, sup).verdict is Verdict.NEAR
            if sup > 1e-9:
                assert (
                    equal_time_upper(p, q, sup * (1 - 1e-9) - 1e-12).verdict
                    is Verdict.UNKNOWN
                )

    def test_witness_valid_on_random_near_pairs(self):
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(100):
            p, q = random_pair(rng, 2)
            r = discrete_frechet(p, q) * 1.1 + 0.1
            dmax, positions = equal_time_max_arrays(p, q)
            assert (equal_time_upper(p, q, r).verdict is Verdict.NEAR) == (dmax <= r)
            if dmax <= r:
                assert_valid_witness(p, q, r, positions)
                checked += 1
        assert checked > 20

    def test_walk_equals_the_array_oracle(self):
        # verdicts against the array evaluation, at the traversal's own
        # maximum and one ulp either side of it; the positions the walk
        # visits are a valid witness wherever it answers Near. The walk
        # over the cached breakpoint table also equals the walk that
        # rebuilt the merged set on every call, at that walk's maximum and
        # one ulp either side
        rng = np.random.default_rng(49)
        cases = []
        for i in range(150):
            p, q = random_pair(rng, 1 + i % 3, m_max=(8, 30)[i % 2])
            cases.append((p, q))
            V = q.vertices
            cases.append((p, Curve(1, V[:1])))  # single vertex: mq == 0
            cases.append((Curve(0, p.vertices[:1]), q))  # mp == 0
            cases.append((Curve(0, p.vertices[:1]), Curve(1, V[:1])))
            if len(V) >= len(p):  # mp == mq
                cases.append((p, Curve(1, V[:len(p)])))
            # mp == 2 * mq: every breakpoint of q is one of p's
            cases.append((Curve(0, np.repeat(p.vertices, 2, axis=0)[1:]), p))
        for p, q in cases:
            dmax, positions = equal_time_max_arrays(p, q)
            for r in (0.0, 0.5 * dmax, math.nextafter(dmax, 0.0), dmax,
                      math.nextafter(dmax, math.inf)):
                out = equal_time_upper(p, q, r)
                want = Verdict.NEAR if dmax <= r else Verdict.UNKNOWN
                assert (out.verdict, out.stage) == (want, "equal-time"), (p, q, r)
                if dmax <= r:
                    assert_valid_witness(p, q, r, positions)
            _check_against_the_per_call_walk(p, q)

    def test_evicted_tables_are_built_again_alike(self):
        # more shapes than the cache holds, visited twice: the second round
        # finds every table evicted and builds it again
        steps = frechet._equal_time_steps
        rng = np.random.default_rng(52)
        pairs = [(random_walk_curve(rng, 0, m, 1 + (m + n) % 3),
                  random_walk_curve(rng, 1, n, 1 + (m + n) % 3))
                 for m in range(2, 26) for n in range(2, 26)]
        assert len(pairs) > steps.cache_info().maxsize
        for p, q in pairs:
            _check_against_the_per_call_walk(p, q)
        misses = steps.cache_info().misses
        for p, q in pairs:
            _check_against_the_per_call_walk(p, q)
        assert steps.cache_info().misses - misses == len(pairs)
        assert steps.cache_info().currsize == steps.cache_info().maxsize


def _check_against_the_per_call_walk(p: Curve, q: Curve) -> None:
    dists = equal_time_walk_dists(p, q)
    top = max(dists)
    for r in (0.0, math.nextafter(top, 0.0), top, math.nextafter(top, math.inf)):
        want = Verdict.NEAR if all(x <= r for x in dists) else Verdict.UNKNOWN
        out = equal_time_upper(p, q, r)
        assert (out.verdict, out.stage) == (want, "equal-time"), (p, q, r)


def _at_fraction(V: np.ndarray, ts: np.ndarray) -> np.ndarray:
    if len(V) == 1:
        return np.broadcast_to(V[0], (len(ts), V.shape[1]))
    u = ts * (len(V) - 1)
    i0 = np.clip(np.floor(u).astype(int), 0, len(V) - 2)
    frac = (u - i0)[:, None]
    return V[i0] + frac * (V[i0 + 1] - V[i0])


def _uniform_traversal_sup(p: Curve, q: Curve) -> float:
    """Independent evaluation of the uniform-traversal distance maximum."""
    mp, mq = len(p) - 1, len(q) - 1
    ts = {0.0, 1.0}
    for i in range(mp + 1):
        ts.add(i / mp if mp else 0.0)
    for j in range(mq + 1):
        ts.add(j / mq if mq else 0.0)
    ts = np.array(sorted(ts))
    pd = _at_fraction(p.vertices, ts)
    qd = _at_fraction(q.vertices, ts)
    return float(np.linalg.norm(pd - qd, axis=1).max())


def _last_vertex_far_pairs(rng, n: int) -> list:
    """2-d pairs of 2-5 vertices, q near p but for its last vertex, so the
    last vertices are mostly the farthest breakpoint; each pair with the
    last vertices' distance x."""
    out = []
    for _ in range(n):
        m, k = (int(v) for v in rng.integers(2, 6, size=2))
        p = Curve(0, np.cumsum(rng.normal(size=(m, 2)), axis=0))
        V = p.vertices[np.linspace(0, m - 1, k).round().astype(int)] + rng.normal(size=(k, 2)) * 0.1
        V[-1] += rng.normal(size=2) * 2.0
        q = Curve(1, V)
        out.append((p, q, _dist(p._points[-1], q._points[-1])))
    return out


def _single_vertex_pairs(rng, n: int) -> list:
    """A single vertex against a 2-5 vertex 2-d curve moving away from it,
    either way round, each with the farthest vertex distance x."""
    out = []
    for _ in range(n):
        a = Curve(0, rng.normal(size=(1, 2)))
        b = Curve(1, a.vertices + np.cumsum(np.abs(rng.normal(size=(int(rng.integers(2, 6)), 2))),
                                             axis=0))
        p, q = (a, b) if rng.random() < 0.5 else (b, a)
        out.append((p, q, max(_dist(u, v) for u in p._points for v in q._points)))
    return out


class TestTrueLastVertices:
    """The equal-time walk reads both curves' last vertices themselves, not
    P[mp - 1] + 1.0 * DP[mp - 1], which can land an ulp nearer: one ulp
    below the distance the traversal must exceed, no step answers Near."""

    @pytest.mark.parametrize("make", [_last_vertex_far_pairs, _single_vertex_pairs])
    def test_one_ulp_below_the_farthest_vertex_is_not_near(self, make):
        for p, q, x in make(np.random.default_rng(57), 6000):
            r = math.nextafter(x, 0.0)
            assert equal_time_upper(p, q, r).verdict is Verdict.UNKNOWN, (p, q, x)
            assert verify_heur(p, q, r).verdict is Verdict.FAR, (p, q, x)


class TestGreedyUpper:
    def test_identical_curves_walk_diagonal(self):
        rng = np.random.default_rng(45)
        c = random_walk_curve(rng, 0, 8, 2)
        assert greedy_upper(c, c, 0.0).verdict is Verdict.NEAR
        path = greedy_traversal(c, c, 0.0)
        assert path == [(float(i), float(i)) for i in range(8)]
        assert_valid_witness(c, c, 0.0, path)
        # from (0,0) the diagonal and advancing p both cost 1, advancing q 2;
        # the diagonal must win: after advancing p the walk reaches p's end
        # and must then advance q to a distance of 2
        p = curve1(0, [-2.0, -1.0, -2.0])
        q = curve1(1, [-2.0, 0.0, -2.0])
        assert greedy_upper(p, q, 1.0).verdict is Verdict.NEAR

    def test_tie_prefers_advancing_p(self):
        # from (0,0): diagonal costs 2, advancing either curve costs 1;
        # the p step must win the tie
        p = curve1(0, [0.0, 1.0])
        q = curve1(1, [0.0, -1.0])
        assert greedy_upper(p, q, 2.0).verdict is Verdict.NEAR
        path = greedy_traversal(p, q, 2.0)
        assert path == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        assert_valid_witness(p, q, 2.0, path)
        # from (0,0) advancing p and advancing q both cost 1, the diagonal 2;
        # advancing q first would leave only moves that cost 2
        p = curve1(0, [-1.0, -2.0, -1.0])
        q = curve1(1, [-1.0, 0.0])
        assert greedy_upper(p, q, 1.0).verdict is Verdict.NEAR

    def test_start_pair_checked(self):
        p = curve1(0, [5.0, 0.0])
        q = curve1(1, [0.0, 0.0])
        assert greedy_upper(p, q, 1.0).verdict is Verdict.UNKNOWN

    def test_near_implies_discrete_bound(self):
        rng = np.random.default_rng(46)
        near = 0
        for _ in range(150):
            p, q = random_pair(rng, 2)
            r = float(rng.uniform(0.5, 1.5)) * (discrete_frechet(p, q) + 0.02)
            path = greedy_traversal(p, q, r)
            assert (greedy_upper(p, q, r).verdict is Verdict.NEAR) == (path is not None)
            if path is not None:
                # the walk is one monotone traversal, so it bounds the
                # discrete distance as well
                assert discrete_frechet(p, q) <= r + 1e-12
                assert_valid_witness(p, q, r, path)
                near += 1
        assert near > 30


class TestNegativeFilter:
    def test_order_violation_detected(self):
        # p revisits low values after going high; on a monotone segment
        # there is no position for the second low visit
        p = curve1(0, [0.0, 5.0, 0.0, 5.0])
        q = curve1(1, [0.0, 5.0])
        out = negative_filter(p, q, 1.0)
        assert out.verdict is Verdict.FAR
        assert not decide_continuous(p, q, 1.0)

    def test_both_directions_checked(self):
        p = curve1(0, [0.0, 5.0])
        q = curve1(1, [0.0, 5.0, 0.0, 5.0])
        assert negative_filter(p, q, 1.0).verdict is Verdict.FAR

    def test_single_vertex_other(self):
        p = curve1(0, [0.0, 3.0])
        q = curve1(1, [0.0])
        assert negative_filter(p, q, 1.0).verdict is Verdict.FAR
        assert negative_filter(p, q, 3.0).verdict is Verdict.UNKNOWN

    def test_sound_on_random_pairs(self):
        rng = np.random.default_rng(47)
        fars = 0
        for _ in range(300):
            p, q = random_pair(rng, int(rng.integers(1, 3)))
            r = float(rng.uniform(0.0, 1.2)) * (discrete_frechet(p, q) + 0.02)
            out = negative_filter(p, q, r)
            if out.verdict is Verdict.FAR:
                assert not decide_continuous(p, q, r)
                fars += 1
        assert fars > 30


class TestVerifyHeur:
    def test_always_decisive_and_correct(self):
        rng = np.random.default_rng(48)
        for _ in range(300):
            p, q = random_pair(rng, int(rng.integers(1, 4)))
            r = float(rng.uniform(0.0, 1.3)) * (discrete_frechet(p, q) + 0.02)
            out = verify_heur(p, q, r)
            assert out.verdict in (Verdict.NEAR, Verdict.FAR)
            assert (out.verdict is Verdict.NEAR) == decide_continuous(p, q, r)
            if out.stage == "equal-time":
                dmax, positions = equal_time_max_arrays(p, q)
                assert dmax <= r
                assert_valid_witness(p, q, r, positions)
            elif out.stage == "greedy":
                assert_valid_witness(p, q, r, greedy_traversal(p, q, r))

    def test_stage_labels(self):
        p = curve(0, [[0.0, 0.0], [1.0, 0.0]])
        q = curve(1, [[0.0, 1.0], [1.0, 1.0]])
        assert verify_heur(p, q, 1.0).stage == "equal-time"
        spike_p = curve(0, [[0.0, 0.0], [4.0, 0.0]])
        spike_q = curve(1, [[0.0, 0.0], [2.0, 1.0], [4.0, 0.0]])
        assert verify_heur(spike_p, spike_q, 1.0).stage in (
            "equal-time",
            "greedy",
            "full-verify",
        )


class TestVerifySimpl:
    def test_parameter_values(self):
        par = frechet._simpl_level(1.0, 1.0)
        assert par.mu_minus == pytest.approx(1.0 / 28.0)
        assert par.mu_plus == pytest.approx(3.0 / 112.0)
        assert par.r_minus == pytest.approx(15.0 / 14.0)
        assert par.r_plus == pytest.approx(45.0 / 56.0)
        # the level is one cached value that also holds its three outcomes
        assert (par.far, par.near, par.unknown) == tuple(
            VerificationOutcome(v, "simpl-1") for v in (Verdict.FAR, Verdict.NEAR, Verdict.UNKNOWN))
        assert frechet._simpl_level(1.0, 1.0) is par

    def test_overflowing_budget_rejected(self):
        # r * eps overflows to inf; a finite radius of that size is refused
        # rather than checked with an infinite simplification error.
        with pytest.raises(ValueError, match="budget"):
            frechet._simpl_level(1e308, 10.0)
        c = curve1(0, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="budget"):
            verify(c, c, 1e308)

    def test_error_budget_identities(self):
        # Far check: shrinking back by twice the simplification error
        # lands exactly on r; Near check stays at or below r
        for r in (0.3, 1.0, 7.5):
            for eps in (10.0, 1.0, 0.1):
                par = frechet._simpl_level(r, eps)
                assert par.r_minus - 2 * par.mu_minus == pytest.approx(r, rel=1e-12)
                assert par.r_plus + 2 * par.mu_plus <= r * (1 + 1e-12)

    def test_sound_against_exact_decision(self):
        rng = np.random.default_rng(49)
        decided = 0
        for _ in range(200):
            p, q = random_pair(rng, 2)
            r = float(rng.uniform(0.3, 1.3)) * (discrete_frechet(p, q) + 0.05)
            for eps in (10.0, 1.0, 0.1):
                out = verify_simpl(p, q, r, eps)
                if out.verdict is Verdict.UNKNOWN:
                    continue
                decided += 1
                assert (out.verdict is Verdict.NEAR) == decide_continuous(p, q, r)
        assert decided > 100

    def test_rejects_bad_parameters(self):
        p = curve1(0, [0.0, 1.0])
        with pytest.raises(ValueError):
            verify_simpl(p, p, 1.0, 0.0)
        with pytest.raises(ValueError):
            verify_simpl(p, p, 0.0, 1.0)

    def test_a_cached_level_still_rejects_bad_values(self):
        # the level of (1.0, 1.0) is cached before every bad call and read
        # after them; the shared outcome cannot be changed
        p = curve1(0, [0.0, 1.0, 0.0])
        good = verify_simpl(p, p, 1.0, 1.0)
        assert good == VerificationOutcome(Verdict.NEAR, "simpl-1")
        for bad in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="radius"):
                verify_simpl(p, p, bad, 1.0)
            with pytest.raises(ValueError, match="eps"):
                verify_simpl(p, p, 1.0, bad)
            assert verify_simpl(p, p, 1.0, 1.0) == good
        with pytest.raises(dataclasses.FrozenInstanceError):
            good.stage = "simpl-2"


class TestVerifyCascade:
    def test_decisive_and_correct(self):
        rng = np.random.default_rng(50)
        for _ in range(250):
            p, q = random_pair(rng, int(rng.integers(1, 3)))
            r = float(rng.uniform(0.0, 1.3)) * (discrete_frechet(p, q) + 0.02)
            out = verify(p, q, r)
            assert out.verdict in (Verdict.NEAR, Verdict.FAR)
            assert (out.verdict is Verdict.NEAR) == decide_continuous(p, q, r)
            assert out.stage in {
                "endpoints",
                "bbox",
                "simpl-10",
                "simpl-1",
                "simpl-0.1",
                "equal-time",
                "greedy",
                "negative-filter",
                "full-verify",
            }

    def test_cheap_stages_fire_first(self):
        far_endpoints = verify(curve1(0, [0.0, 0.0]), curve1(1, [0.0, 9.0]), 1.0)
        assert far_endpoints.verdict is Verdict.FAR
        assert far_endpoints.stage == "endpoints"
        far_bbox = verify(curve1(0, [0.0, 10.0, 0.0]), curve1(1, [0.0, 0.1, 0.0]), 1.0)
        assert far_bbox.stage == "bbox"

    def test_zero_radius_skips_simplification(self):
        c = curve1(0, [0.0, 1.0, 2.0])
        out = verify(c, c, 0.0)
        assert out.verdict is Verdict.NEAR

    def test_eps_list_validation(self):
        c = curve1(0, [0.0, 1.0])
        with pytest.raises(ValueError):
            verify(c, c, 1.0, eps_list=())
        with pytest.raises(ValueError):
            verify(c, c, 1.0, eps_list=(1.0, 1.0))
        with pytest.raises(ValueError):
            verify(c, c, 1.0, eps_list=(0.1, 10.0))
        for bad in ((1.0, math.nan), (math.inf, 1.0), (1.0, 0.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="finite"):
                verify(c, c, 1.0, eps_list=bad)

    def test_bad_eps_lists_raise_on_every_call(self):
        # after a good list has passed, each bad list (tuple or list) still
        # raises on every call, with the same text each time
        c = curve1(0, [0.0, 1.0])
        good = (10.0, 1.0, 0.1)
        for _ in range(2):
            assert verify(c, c, 1.0, eps_list=good).verdict is Verdict.NEAR
            frechet.check_eps_list(good)
        bads = [(math.nan,), (1.0, math.nan), (0.0,), (10.0, 0.0), (0.1, 1.0),
                (1.0, 1.0), (), [1.0, 0.0], [0.1, 1.0], []]
        texts = []
        for bad in bads:
            with pytest.raises(ValueError) as first:
                frechet.check_eps_list(bad)
            texts.append(str(first.value))
        for _ in range(2):
            for bad, text in zip(bads, texts):
                with pytest.raises(ValueError) as again:
                    verify(c, c, 1.0, eps_list=bad)
                assert str(again.value) == text
        assert verify(c, c, 1.0, eps_list=[10.0, 1.0]).verdict is Verdict.NEAR
        assert "strictly decreasing" in texts[4] and "finite" in texts[0]


def _ulps(x: float) -> tuple[float, float, float]:
    return math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)


def _knife_edges(xs, eps_list) -> list[float]:
    """Each x, and the radii whose level checks land on x: x / (1 + eps/14)
    has r_minus about x and x / (3(1 + eps/14) / (3 + eps)) has r_plus about
    x; each one ulp either side too."""
    out = []
    for x in xs:
        out += _ulps(x)
        for eps in eps_list:
            out += _ulps(x / (1.0 + eps / 14.0))
            out += _ulps(x / (3.0 * (1.0 + eps / 14.0) / (3.0 + eps)))
    return out


def _tail_levels(p: Curve, q: Curve, r: float, eps_list) -> int:
    """How many levels the tail holds: from the first level after the first
    whose coarse copies are both curves themselves to the end of eps_list;
    0 if no level starts a tail."""
    for k in range(1, len(eps_list)):
        mu = frechet._simpl_level(r, eps_list[k]).mu_minus
        if simplify(p, mu) is p and simplify(q, mu) is q:
            return len(eps_list) - k
    return 0


class TestVerifyTail:
    """verify decides the levels whose copies are the curves, and the final
    check, together (_verify_tail); verify_ladder in helpers is the
    level-by-level cascade it must equal."""

    EPS_LISTS = ((10.0, 1.0, 0.1), (10.0, 1e-15, 1e-16), (0.5,), (3.0, 1.0, 0.01, 1e-14))

    def _assert_same(self, p: Curve, q: Curve, radii, eps_list) -> None:
        # each case without a store, then with one store per cascade
        for new, old in ((None, None), (SimplifiedCopies(), SimplifiedCopies())):
            for r in radii:
                assert verify(p, q, r, eps_list, new) == verify_ladder(p, q, r, eps_list, old), \
                    (p.id, q.id, r, eps_list)

    def test_acceptance_corpus_equals_the_ladder(self):
        for i, (p, q, r, ddf) in enumerate(acceptance_corpus()):
            self._assert_same(p, q, _ulps(r) + _ulps(ddf), self.EPS_LISTS[i % 4])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_walk_families_equal_the_ladder_at_level_knife_edges(self, d):
        rng = np.random.default_rng(90 + d)
        data = walk_families(rng, 2, d, m=6)
        k = 0
        for f in range(2):
            fam = [data[5 * f + a] for a in range(5)]
            for a in range(5):
                for b in range(a + 1, 5):
                    p, q = fam[a], fam[b]
                    dists = [_dist(u, v) for u in p._points for v in q._points]
                    xs = [discrete_frechet(p, q)] + rng.choice(dists, 2, replace=False).tolist()
                    eps_list = self.EPS_LISTS[k % 4]
                    self._assert_same(p, q, _knife_edges(xs, eps_list), eps_list)
                    k += 1

    def test_single_vertex_curves_equal_the_ladder(self):
        rng = np.random.default_rng(94)
        for d in (1, 2, 3):
            dot = Curve(0, rng.normal(size=(1, d)))
            other = Curve(1, rng.normal(size=(1, d)))
            walk = random_walk_curve(rng, 2, 5, d, step=0.3, start=dot.vertices[0])
            for p, q in ((dot, other), (dot, walk), (walk, dot)):
                xs = [_dist(u, v) for u in p._points for v in q._points]
                for eps_list in self.EPS_LISTS:
                    self._assert_same(p, q, _knife_edges(xs, eps_list), eps_list)

    def test_densified_near_duplicates_equal_the_ladder(self):
        p, q = densified_twins(np.random.default_rng(5))
        assert min(len(p), len(q)) > 90
        ddf = discrete_frechet(p, q)
        for eps_list in self.EPS_LISTS:
            self._assert_same(p, q, _knife_edges([ddf], eps_list), eps_list)

    @pytest.mark.parametrize("r, eps_list", [
        (1e308, DEFAULT_EPS_LIST), (1.75e308, (1.0,)), (1.75e308, (1.0, 0.1)),
        (math.nan, DEFAULT_EPS_LIST), (math.inf, DEFAULT_EPS_LIST), (-1.0, DEFAULT_EPS_LIST),
        (1.0, ()), (1.0, (1.0, 1.0)), (1.0, (0.1, 10.0)), (1.0, (1.0, math.nan)),
        (1.0, (10.0, 0.0)), (math.nan, ()),
    ])
    def test_bad_values_raise_as_the_ladder_does(self, r, eps_list):
        c = curve1(0, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError) as new:
            verify(c, c, r, eps_list)
        with pytest.raises(ValueError) as old:
            verify_ladder(c, c, r, eps_list)
        assert str(new.value) == str(old.value)

    def test_a_near_duplicate_pair_repeats_fewer_decisions(self, monkeypatch):
        p, q = densified_twins(np.random.default_rng(5))
        r = discrete_frechet(p, q) * (1.0 + 1e-9)
        counts = count_cascade_calls(monkeypatch)
        new = verify(p, q, r)
        tail = counts.copy()
        counts.clear()
        assert new == verify_ladder(p, q, r)
        assert tail["verify_simpl"] == 1
        assert tail["decide_continuous"] < counts["decide_continuous"]
        assert tail["simplify"] < counts["simplify"]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_tail_runs_at_most_one_check_per_level_and_the_final_one(self, monkeypatch, d):
        data = walk_families(np.random.default_rng(95 + d), 3, d)
        counts = count_cascade_calls(monkeypatch)
        tails = fewer = 0
        for i in range(data.n):
            for j in range(i + 1, 5 * (i // 5) + 5):
                p, q = data[i], data[j]
                for r in (1.0, discrete_frechet(p, q)):
                    levels = _tail_levels(p, q, r, DEFAULT_EPS_LIST)
                    counts.clear()
                    new = verify(p, q, r)
                    got = counts.copy()
                    counts.clear()
                    assert new == verify_ladder(p, q, r)
                    assert got["outside verify_simpl"] <= 1 + levels
                    assert got["verify_heur"] <= counts["verify_heur"] + 1
                    tails += levels > 0
                    fewer += got["verify_heur"] < counts["verify_heur"]
        assert tails and fewer


class TestCopyStore:
    """verify and verify_simpl read every simplified copy through one store
    keyed by the curve itself, so curves that share an id share no copy,
    and verify without a store makes one for the call."""

    SAME_ID = ([[0, 0], [1, .01], [2, 0], [2.5, 1], [3, 0], [4, 0]],
               [[0, 0], [1, 1], [2, 0], [3, 1], [3.5, 0], [4, 0]])

    def test_two_curves_with_one_id_share_a_store(self):
        p, q = (curve(0, v) for v in self.SAME_ID)
        want = verify(p, q, 0.5)
        assert (want.verdict, want.stage) == (Verdict.FAR, "simpl-10")
        assert not decide_continuous(p, q, 0.5)
        assert verify(p, q, 0.5, copies=SimplifiedCopies()) == want
        assert verify_simpl(p, q, 0.5, 10.0, SimplifiedCopies()) == want

    def test_curves_of_one_id_through_one_store_decide_as_without_it(self):
        data = walk_families(np.random.default_rng(61), 4, 2)
        curves = [Curve(0, c.vertices) for c in data]
        store = SimplifiedCopies()
        for p in curves:
            for q in curves:
                if p is not q:
                    assert verify(p, q, 1.0, copies=store) == verify(p, q, 1.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_without_a_store_no_copy_is_built_twice(self, monkeypatch, d):
        # the tail test's coarse copies are the ones verify_simpl reads, so
        # verify never simplifies more often than the level-by-level cascade
        data = walk_families(np.random.default_rng(d), 20, d, m=12)
        counts = count_cascade_calls(monkeypatch)
        fewer = 0
        for f in range(20):
            fam = [data[5 * f + a] for a in range(5)]
            for a in range(5):
                for b in range(a + 1, 5):
                    counts.clear()
                    new = verify(fam[a], fam[b], 1.0)
                    got = counts["simplify"]
                    counts.clear()
                    assert new == verify_ladder(fam[a], fam[b], 1.0)
                    assert got <= counts["simplify"], (f, a, b)
                    fewer += got < counts["simplify"]
        assert fewer


class TestMetricProperties:
    def test_discrete_triangle_inequality(self):
        rng = np.random.default_rng(99)
        for _ in range(120):
            d = int(rng.integers(1, 3))
            curves = [random_walk_curve(rng, i, int(rng.integers(1, 6)), d)
                      for i in range(3)]
            ab = discrete_frechet(curves[0], curves[1])
            bc = discrete_frechet(curves[1], curves[2])
            ac = discrete_frechet(curves[0], curves[2])
            assert ac <= ab + bc + 1e-12

    def test_brute_force_on_single_vertices(self):
        assert discrete_frechet_brute(curve1(0, [0.0]), curve1(1, [3.0])) == 3.0

    def test_far_verdicts_never_return_as_the_radius_grows(self):
        # every free-space window grows with r, and every step's arithmetic
        # rounds monotonically, so for fixed curves a step that is not Far
        # at r is not Far at any larger R: at knife-edge radii (each
        # vertex-vertex distance and the discrete distance, 3 ulps either
        # side) and at each level's r_minus and r_plus of those radii, which
        # verify's tail compares, the Far verdicts form a prefix of the
        # sorted radii
        def ulps(x, k=3):
            lo = hi = x
            out = [x]
            for _ in range(k):
                lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
                out += [lo, hi]
            return out

        steps = (
            lambda p, q, r: not decide_continuous(p, q, r),
            lambda p, q, r: negative_filter(p, q, r).verdict is Verdict.FAR,
            lambda p, q, r: verify_heur(p, q, r).verdict is Verdict.FAR,
        )
        rng = np.random.default_rng(72)
        for i in range(45):
            p, q = random_pair(rng, 1 + i % 3, m_max=5)
            diff = p.vertices[:, None, :] - q.vertices[None, :, :]
            base = np.sqrt((diff * diff).sum(axis=2)).ravel().tolist()
            edges = {x for b in base + [discrete_frechet(p, q)] for x in ulps(b)}
            levels = [frechet._simpl_level(x, eps) for x in edges if x > 0
                      for eps in DEFAULT_EPS_LIST]
            radii = sorted(edges.union(*((par.r_minus, par.r_plus) for par in levels)))
            for k, far in enumerate(steps):
                fars = [far(p, q, r) for r in radii]
                assert fars == sorted(fars, reverse=True), (i, k)


class TestWorkedExamples:
    def test_decision_with_zero_radius_across_a_midpoint_vertex(self):
        # the extra vertex of q lies exactly on p's segment
        p = curve1(0, [0.0, 10.0])
        q = curve1(1, [0.0, 5.0, 10.0])
        assert decide_continuous(p, q, 0.0)

    def test_estimate_sees_through_a_midpoint_vertex(self):
        # discrete distance is 5, continuous distance is 0
        p = curve1(0, [0.0, 10.0])
        q = curve1(1, [0.0, 5.0, 10.0])
        assert estimate_continuous(p, q) <= 5.0 * 1e-4 + 1e-12

    def test_greedy_confirms_a_uniform_shift(self):
        p = curve1(0, [0.0, 1.0, 2.0])
        q = curve1(1, [0.1, 1.1, 2.1])
        assert greedy_upper(p, q, 0.2).verdict is Verdict.NEAR
        path = greedy_traversal(p, q, 0.2)
        assert path is not None
        assert_valid_witness(p, q, 0.2, path)

    def test_position_scan_rejects_a_detour(self):
        # p climbs to height 3 while q stays on the base line
        p = curve(0, [(0.0, 0.0), (4.0, 3.0), (8.0, 0.0)])
        q = curve(1, [(0.0, 0.0), (8.0, 0.0)])
        assert negative_filter(p, q, 1.0).verdict is Verdict.FAR

    def test_position_scan_cannot_reject_near_pairs(self):
        p = curve1(0, [0.0, 10.0])
        q = curve1(1, [0.0, 5.0, 10.0])
        assert negative_filter(p, q, 0.1).verdict is Verdict.UNKNOWN

    def test_identical_curves_decide_at_the_coarsest_simplification(self):
        p = curve1(0, [0.0, 4.0, 1.0, 5.0])
        out = verify(p, Curve(1, p.vertices.copy()), 1.0)
        assert out.verdict is Verdict.NEAR
        assert out.stage == "simpl-10"

    def test_simplification_budgets_worked_example(self):
        # r = 1, eps = 10
        params = frechet._simpl_level(1.0, 10.0)
        assert params.mu_minus == pytest.approx(10.0 / 28.0, abs=1e-15)
        assert params.r_minus == pytest.approx(12.0 / 7.0, abs=1e-15)
        assert params.mu_plus == pytest.approx(15.0 / 182.0, abs=1e-15)
        assert params.r_plus == pytest.approx(36.0 / 91.0, abs=1e-15)
        assert params.r_plus < params.r_minus
        assert params.mu_plus < params.mu_minus
