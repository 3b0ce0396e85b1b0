"""Differential tests: the band sweep of decide_continuous and its block
window kernel, and the lazy scan of negative_filter and its scalar window,
against the slow paths they replace (the full m*n sweep and the per-edge
numpy scan, kept in helpers as oracles). Every boolean must be identical,
knife-edge radii included."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvejoin import Curve, Verdict, decide_continuous, densify, negative_filter
from curvejoin.frechet import (
    _ball_window,
    _ball_windows,
    _monotone_position_scan,
    discrete_frechet,
    estimate_continuous,
)
from curvejoin.curves import _dist, longest_edge

from helpers import (
    _ball_windows_rows,
    acceptance_corpus,
    curve,
    decide_continuous_full,
    monotone_position_scan_scalar,
    negative_filter_far_scalar,
    perturbed_copy,
    random_pair,
    random_walk_curve,
)


def assert_same(p: Curve, q: Curve, r: float) -> None:
    assert decide_continuous(p, q, r) == decide_continuous_full(p, q, r), r
    far = negative_filter(p, q, r).verdict is Verdict.FAR
    assert far == negative_filter_far_scalar(p, q, r), r


def knife_edge_radii(p: Curve, q: Curve) -> list:
    """The discrete distance, one ulp either side, and the margins of the
    acceptance gate's sandwich criterion."""
    ddf = discrete_frechet(p, q)
    radii = [ddf, math.nextafter(ddf, 0.0), math.nextafter(ddf, math.inf),
             ddf * (1.0 + 4e-16)]
    low = ddf - max(longest_edge(p), longest_edge(q))
    if low > 0.0:
        radii.append(low * (1.0 - 1e-9))
    return [r for r in radii if r >= 0.0]


def test_kernel_matches_row_windows_bit_for_bit():
    rng = np.random.default_rng(60)
    for d in (1, 2, 3):
        P = rng.normal(size=(9, d))
        Q = rng.normal(size=(7, d))
        Q[3] = Q[2]  # a zero-length edge
        P[5] = P[4]
        cols = [Q[None, :, u] for u in range(d)]
        rows = [P[:, u, None] for u in range(d)]
        for r in (0.0, 0.3, 1.0, 5.0):
            # points of P against the edges of Q, one row per point
            lo, hi = _ball_windows([c[:, :-1] for c in cols],
                                   [c[:, 1:] - c[:, :-1] for c in cols], rows, r)
            for i in range(len(P)):
                want = _ball_windows_rows(Q[:-1] - P[i], Q[1:] - Q[:-1], r)
                np.testing.assert_array_equal(lo[i], want[0])
                np.testing.assert_array_equal(hi[i], want[1])
            # edges of P against the points of Q, one row per edge
            lo, hi = _ball_windows([c[:-1] for c in rows],
                                   [c[1:] - c[:-1] for c in rows], cols, r)
            for i in range(len(P) - 1):
                want = _ball_windows_rows(
                    P[i] - Q, np.broadcast_to(P[i + 1] - P[i], Q.shape), r)
                np.testing.assert_array_equal(lo[i], want[0])
                np.testing.assert_array_equal(hi[i], want[1])


def kernel_window(start, end, point, r: float) -> tuple[float, float]:
    """One window from the block kernel, on arrays of one element."""
    lo, hi = _ball_windows([np.array([s]) for s in start],
                           [np.array([e - s]) for s, e in zip(start, end)],
                           [np.array([x]) for x in point], r)
    return float(lo[0]), float(hi[0])


def window_knife_edges(start, end, point) -> list:
    """Radii at which the window of the edge around the point opens, or
    reaches an edge end: the distance to each end and to the edge's line,
    and one ulp either side of each."""
    delta = np.subtract(end, start)
    w = np.subtract(start, point)
    aa = float(delta @ delta)
    edges = [_dist(start, point), _dist(end, point)]
    if aa > 0.0:
        edges.append(math.sqrt(max(float(w @ w) - float(w @ delta) ** 2 / aa, 0.0)))
    return [x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]


def assert_same_window(start, end, point, r: float) -> None:
    # the scalar window reads the edge's delta and squared length from the
    # prepared view of a curve holding the edge; equal as floats: the lo or
    # hi of 0 may differ in the sign of zero only
    ((delta,), (aa,)) = Curve(0, [start, end])._edges
    assert _ball_window(start, delta, aa, point, r) == kernel_window(start, end, point, r), (
        start, end, point, r)


def test_scalar_window_matches_the_kernel_bit_for_bit():
    rng = np.random.default_rng(66)
    for d in (1, 2, 3):
        B = rng.normal(size=(12, d))
        B[4] = B[3]  # a zero-length edge
        A = np.vstack([rng.normal(size=(8, d)), B[:3], (B[6] + B[7]) / 2.0])
        for e in range(len(B) - 1):
            start, end = B[e].tolist(), B[e + 1].tolist()
            for point in A.tolist():
                for r in [0.0, 0.3, 1.0, 5.0] + window_knife_edges(start, end, point):
                    assert_same_window(start, end, point, r)


def test_scan_on_the_long_pair_equals_the_scalar_oracle():
    # the 2,400-vertex pair of the memory test: q runs 0.1 above p, shifted
    # by 0.05, so below r = 0.1118 the first vertex of p matches no edge of
    # q and its scan runs to the last edge
    t = np.arange(2400, dtype=np.float64)
    p = curve(0, np.column_stack([t, np.zeros_like(t)]))
    q = curve(1, np.column_stack([t + 0.05, np.full_like(t, 0.1)]))
    corner = _dist([0.0, 0.0], [0.05, 0.1])
    for r in (0.05, 0.1, math.nextafter(corner, 0.0), corner, 0.2):
        far = negative_filter(p, q, r).verdict is Verdict.FAR
        assert far == negative_filter_far_scalar(p, q, r), r
        assert far or r >= corner, r


def test_scans_that_run_to_the_last_edge():
    # A starts on B, then asks for a point at B's end, just inside or just
    # outside r of it, or far away: the scan walks on toward B's last edge,
    # where it matches or fails
    rng = np.random.default_rng(67)
    fars = 0
    for i in range(150):
        d = 1 + i % 3
        B = random_walk_curve(rng, 1, int(rng.integers(2, 30)), d).vertices
        r = float(rng.uniform(0.0, 0.5))
        off = rng.normal(size=d)
        off /= np.linalg.norm(off)
        for tail in (B[-1], B[-1] + off * r * 0.999, B[-1] + off * r * 1.001,
                     B[-1] + off * 100.0):
            A = np.vstack([B[:1], tail])
            a, b = Curve(0, A), Curve(1, B)
            got = _monotone_position_scan(a, b, r)
            assert got == monotone_position_scan_scalar(A, B, r)
            fars += not got
            assert_same(a, b, r)
    assert fars > 150


def test_acceptance_corpus():
    for p, q, r, _ in acceptance_corpus():
        assert_same(p, q, r)


def test_knife_edge_radii():
    rng = np.random.default_rng(61)
    for i in range(300):
        # up to 40 vertices: rows longer than one read of the band
        p, q = random_pair(rng, 1 + i % 3, m_max=(8, 40)[i % 2])
        for r in knife_edge_radii(p, q):
            assert_same(p, q, r)


def test_knife_edge_at_the_continuous_distance():
    # the bisection's answer and the radius one ulp below it sit on the
    # decision's own knife edge
    rng = np.random.default_rng(62)
    for i in range(60):
        p, q = random_pair(rng, 1 + i % 3)
        est = estimate_continuous(p, q)
        for r in (est, math.nextafter(est, 0.0)):
            assert_same(p, q, r)


def test_zero_length_edges_single_vertices_and_swaps():
    rng = np.random.default_rng(63)
    for i in range(200):
        d = 1 + i % 3
        p, q = random_pair(rng, d)
        V = p.vertices
        k = int(rng.integers(0, len(V)))
        stutter = Curve(0, np.insert(V, k, V[k], axis=0))
        single = Curve(1, q.vertices[:1])
        for a, b in ((stutter, q), (p, single), (single, p)):
            for r in knife_edge_radii(a, b):
                assert_same(a, b, r)
                assert_same(b, a, r)


def test_densified_long_pair():
    rng = np.random.default_rng(64)
    base = random_walk_curve(rng, 0, 30, 2, step=1.0)
    p = densify(base, 0.1)
    q = densify(perturbed_copy(rng, base, 1, amp=0.2), 0.11)
    assert len(p) >= 250 and len(q) >= 250
    ddf = discrete_frechet(p, q)
    for factor in (0.5, 0.9, 1.0, 1.0 + 1e-9, 1.1, 2.0):
        assert_same(p, q, ddf * factor)
        assert_same(q, p, ddf * factor)


def test_band_far_from_column_zero():
    # A shared straight run of 100 vertices leads into a small random pair,
    # so the later blocks of rows start with the band far from column 0 and
    # the corner is sometimes reached only along the last line.
    rng = np.random.default_rng(65)
    for i in range(40):
        p, q = random_pair(rng, 1 + i % 3, m_max=6)
        start = p.vertices[0]
        run = np.zeros((100, p.dim))
        run[:, 0] = np.linspace(-1.0, 0.0, 100, endpoint=False)
        run = start + run * 1000.0 * (1.0 + np.abs(start).max())
        a = Curve(0, np.vstack([run, p.vertices]))
        b = Curve(1, np.vstack([run, q.vertices]))
        ddf = discrete_frechet(p, q)
        for r in (ddf, ddf * 0.9, ddf * 1.2):
            assert_same(a, b, r)


def test_memory_stays_below_one_full_matrix():
    # two 2,400-vertex curves, a thin reachable band
    t = np.arange(2400, dtype=np.float64)
    p = curve(0, np.column_stack([t, np.zeros_like(t)]))
    q = curve(1, np.column_stack([t + 0.05, np.full_like(t, 0.1)]))
    full_matrix = len(p) * len(q) * 8
    tracemalloc.start()
    try:
        assert decide_continuous(p, q, 0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_matrix, f"peak {peak} B vs one matrix {full_matrix} B"


# Coordinates from a small grid make repeated vertices, collinear runs and
# exact ties between distances common.
_coord = st.integers(-6, 6).map(lambda k: k / 4.0)


@st.composite
def _pair_and_radius(draw):
    d = draw(st.integers(1, 3))
    point = st.lists(_coord, min_size=d, max_size=d)
    p = draw(st.lists(point, min_size=1, max_size=9))
    q = draw(st.lists(point, min_size=1, max_size=9))
    p, q = curve(0, p), curve(1, q)
    ddf = discrete_frechet(p, q)
    r = draw(st.one_of(
        st.sampled_from(knife_edge_radii(p, q) or [0.0]),
        st.floats(0.0, 1.5).map(lambda f: f * ddf),
        st.integers(0, 12).map(lambda k: k / 4.0),
    ))
    return p, q, r


@settings(max_examples=300, deadline=None)
@given(_pair_and_radius())
def test_property_identical_to_the_slow_paths(case):
    p, q, r = case
    assert_same(p, q, r)


@st.composite
def _window_case(draw):
    d = draw(st.integers(1, 3))
    point = st.lists(_coord, min_size=d, max_size=d)
    start, end, a = draw(point), draw(point), draw(point)
    r = draw(st.one_of(
        st.sampled_from(window_knife_edges(start, end, a)),
        st.integers(0, 12).map(lambda k: k / 4.0),
        st.floats(0.0, 4.0),
    ))
    return start, end, a, r


@settings(max_examples=500, deadline=None)
@given(_window_case())
def test_property_scalar_window_equals_the_kernel(case):
    assert_same_window(*case)
