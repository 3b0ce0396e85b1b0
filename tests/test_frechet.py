import math

import numpy as np
import pytest

from curvejoin import (
    Curve,
    SimplVerifyParams,
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
from helpers import (
    assert_valid_witness,
    curve,
    curve1,
    discrete_frechet_brute,
    equal_time_max_arrays,
    random_pair,
    random_walk_curve,
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


class TestEqualTimeUpper:
    def test_parallel_near(self):
        p = curve(0, [[0.0, 0.0], [1.0, 0.0]])
        q = curve(1, [[0.0, 1.0], [1.0, 1.0]])
        out = equal_time_upper(p, q, 1.0)
        assert out.verdict is Verdict.NEAR
        assert_valid_witness(p, q, 1.0, out.witness)
        assert equal_time_upper(p, q, 0.99).verdict is Verdict.UNKNOWN

    def test_breakpoint_positions_are_exact(self):
        # same polyline sampled differently: uniform traversal coincides,
        # so the pair is Near even at radius zero
        p = curve1(0, [0.0, 2.0])
        q = curve1(1, [0.0, 1.0, 2.0])
        out = equal_time_upper(p, q, 0.0)
        assert out.verdict is Verdict.NEAR
        assert out.witness == [(0.0, 0.0), (0.5, 1.0), (1.0, 2.0)]

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
            out = equal_time_upper(p, q, r)
            if out.verdict is Verdict.NEAR:
                assert_valid_witness(p, q, r, out.witness)
                checked += 1
        assert checked > 20

    def test_walk_equals_the_array_oracle(self):
        # verdicts and witnesses against the array evaluation, at the
        # traversal's own maximum and one ulp either side of it
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
                want = (VerificationOutcome(Verdict.NEAR, "equal-time", positions)
                        if dmax <= r else VerificationOutcome(Verdict.UNKNOWN, "equal-time"))
                assert equal_time_upper(p, q, r) == want, (p, q, r)


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


class TestGreedyUpper:
    def test_identical_curves_walk_diagonal(self):
        rng = np.random.default_rng(45)
        c = random_walk_curve(rng, 0, 8, 2)
        out = greedy_upper(c, c, 0.0)
        assert out.verdict is Verdict.NEAR
        assert out.witness == [(float(i), float(i)) for i in range(8)]

    def test_tie_prefers_advancing_p(self):
        # from (0,0): diagonal costs 2, advancing either curve costs 1;
        # the p step must win the tie
        p = curve1(0, [0.0, 1.0])
        q = curve1(1, [0.0, -1.0])
        out = greedy_upper(p, q, 2.0)
        assert out.verdict is Verdict.NEAR
        assert out.witness == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]

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
            out = greedy_upper(p, q, r)
            if out.verdict is Verdict.NEAR:
                # the walk is one monotone traversal, so it bounds the
                # discrete distance as well
                assert discrete_frechet(p, q) <= r + 1e-12
                assert_valid_witness(p, q, r, out.witness)
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
            if out.witness is not None:
                assert_valid_witness(p, q, r, out.witness)

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
        par = SimplVerifyParams.for_radius(1.0, 1.0)
        assert par.mu_minus == pytest.approx(1.0 / 28.0)
        assert par.mu_plus == pytest.approx(3.0 / 112.0)
        assert par.r_minus == pytest.approx(15.0 / 14.0)
        assert par.r_plus == pytest.approx(45.0 / 56.0)

    def test_overflowing_budget_rejected(self):
        # r * eps overflows to inf; a finite radius of that size is refused
        # rather than checked with an infinite simplification error.
        with pytest.raises(ValueError, match="budget"):
            SimplVerifyParams.for_radius(1e308, 10.0)
        c = curve1(0, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="budget"):
            verify(c, c, 1e308)

    def test_error_budget_identities(self):
        # Far check: shrinking back by twice the simplification error
        # lands exactly on r; Near check stays at or below r
        for r in (0.3, 1.0, 7.5):
            for eps in (10.0, 1.0, 0.1):
                par = SimplVerifyParams.for_radius(r, eps)
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
        out = greedy_upper(p, q, 0.2)
        assert out.verdict is Verdict.NEAR
        assert_valid_witness(p, q, 0.2, out.witness)

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
        params = SimplVerifyParams.for_radius(1.0, 10.0)
        assert params.mu_minus == pytest.approx(10.0 / 28.0, abs=1e-15)
        assert params.r_minus == pytest.approx(12.0 / 7.0, abs=1e-15)
        assert params.mu_plus == pytest.approx(15.0 / 182.0, abs=1e-15)
        assert params.r_plus == pytest.approx(36.0 / 91.0, abs=1e-15)
        assert params.r_plus < params.r_minus
        assert params.mu_plus < params.mu_minus
