"""Differential tests: the 2-d branches of curves._dist, frechet._ball_window
and equal_time_upper's walk, which unroll their coordinate loops, against
the loop forms kept in helpers as oracles. Every float must be the same bit
for bit: signed zeros, zero-length edges, squares that overflow to inf and
squares that underflow included."""

import itertools
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvejoin import Curve, Verdict, equal_time_upper
from curvejoin.curves import _dist
from curvejoin.frechet import _ball_window

from helpers import (
    ball_window_loop,
    dist_loop,
    equal_time_walk_dists,
    random_walk_curve,
)

# Coordinates whose differences and products hit the edge cases: signed
# zeros, a subnormal, values whose squares underflow (1e-170) or overflow
# (1e155), and ordinary values.
SPECIAL = (0.0, -0.0, 5e-324, 1e-170, -3e-170, 1.0, -1.5, 0.1, 1e155, -1.2e155)
RADII = (0.0, 5e-324, 1e-170, 0.1, 1.0, 2.5, 1e155, 3e155)


def bits(*xs) -> bytes:
    """The IEEE 754 bytes of floats: equal exactly when the floats are the
    same bit for bit, the sign of zero included."""
    return struct.pack(f"<{len(xs)}d", *xs)


def edge_terms(start, end) -> tuple[list, float]:
    """An edge's delta and squared length, with Curve._edges' operations."""
    delta = [e - s for s, e in zip(start, end)]
    aa = delta[0] * delta[0]
    for x in delta[1:]:
        aa = aa + x * x
    return delta, aa


def assert_same_window(start, end, point, r: float) -> None:
    delta, aa = edge_terms(start, end)
    rr = r * r
    got = _ball_window(start, delta, aa, point, rr)
    want = ball_window_loop(start, delta, aa, point, rr)
    assert bits(*got) == bits(*want), (start, end, point, r, got, want)


def test_dist_2d_equals_the_loop_bit_for_bit():
    for a0, a1, b0, b1 in itertools.product(SPECIAL, repeat=4):
        got = _dist((a0, a1), [b0, b1])
        assert bits(got) == bits(dist_loop((a0, a1), (b0, b1))), (a0, a1, b0, b1)


def test_dist_other_dimensions_keep_the_loop():
    rng = np.random.default_rng(81)
    for d in (1, 3, 4):
        for _ in range(200):
            a, b = rng.choice(SPECIAL, size=(2, d)).tolist()
            assert bits(_dist(a, b)) == bits(dist_loop(a, b)), (a, b)


def test_scalar_window_2d_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(82)
    cases = rng.choice(SPECIAL, size=(6000, 3, 2)).tolist()
    cases[::5] = [[s, s, x] for s, _, x in cases[::5]]  # zero-length edges
    for start, end, point in cases:
        for r in RADII:
            assert_same_window(start, end, point, r)


def test_scalar_window_knife_edges_2d():
    # radii at which the window opens or reaches an edge end, one ulp either
    # side: the roots sit at 0 and 1, where the clamps decide the bits
    rng = np.random.default_rng(83)
    for _ in range(400):
        start, end, point = rng.normal(size=(3, 2)).tolist()
        for base in (dist_loop(start, point), dist_loop(end, point)):
            for r in (math.nextafter(base, 0.0), base, math.nextafter(base, math.inf)):
                assert_same_window(start, end, point, r)


def test_scalar_window_other_dimensions_keep_the_loop():
    rng = np.random.default_rng(84)
    for d in (1, 3):
        for start, end, point in rng.choice(SPECIAL, size=(800, 3, d)).tolist():
            for r in RADII:
                assert_same_window(start, end, point, r)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(st.lists(_finite, min_size=6, max_size=6), st.sampled_from(RADII))
def test_property_2d_branches_equal_the_loops(xs, r):
    start, end, point = xs[0:2], xs[2:4], xs[4:6]
    assert bits(_dist(start, point)) == bits(dist_loop(start, point))
    assert_same_window(start, end, point, r)


def assert_walk_verdicts(p: Curve, q: Curve) -> None:
    """equal_time_upper at every breakpoint distance of the loop oracle, and
    one ulp either side: Near exactly when the oracle's largest distance is
    <= r. A step distance that differed from the oracle's by one bit would
    flip the verdict at the largest distance or the ulp below it."""
    dists = equal_time_walk_dists(p, q)
    dmax = max(dists)
    radii = {0.0}
    for x in dists:
        radii |= {x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)}
    for r in sorted(radii):
        if r < math.inf:
            near = equal_time_upper(p, q, r).verdict is Verdict.NEAR
            assert near == (dmax <= r), (p.vertices, q.vertices, r, dmax)


def test_equal_time_walk_2d_equals_the_loop():
    rng = np.random.default_rng(85)
    with np.errstate(over="ignore"):  # squared edge lengths of 1e155 overflow
        for i in range(400):
            m, n = rng.integers(1, 7, size=2)
            if i % 4 == 0:
                # special coordinates, with repeated vertices: zero-length edges
                P = rng.choice(SPECIAL, size=(m, 2))
                Q = rng.choice(SPECIAL, size=(n, 2))
                Q[1::2] = Q[:-1:2]
            else:
                # differences whose squares underflow, ordinary ones, and
                # squares that overflow to inf
                scale = (1e-165, 1.0, 3e154)[i % 4 - 1]
                P = random_walk_curve(rng, 0, int(m), 2).vertices * scale
                Q = random_walk_curve(rng, 1, int(n), 2).vertices * scale
            assert_walk_verdicts(Curve(0, P), Curve(1, Q))
            assert_walk_verdicts(Curve(0, P), Curve(1, P.copy()))
