"""Differential tests: the band sweep of decide_continuous, the lazy scan
of negative_filter and the scalar window both compute with, against the
slow paths they replace (the full m*n sweep, the per-edge numpy scan and the
row window kernel, kept in helpers as oracles). Every boolean must be
identical, knife-edge radii included."""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curvejoin import Curve, Verdict, decide_continuous, densify, negative_filter, verify
from curvejoin import frechet
from curvejoin.frechet import (
    _ball_window,
    _monotone_position_scan,
    discrete_frechet,
    estimate_continuous,
)
from curvejoin.curves import _dist, longest_edge

from helpers import (
    _ball_windows_rows,
    _curve_at,
    acceptance_corpus,
    curve,
    curve1,
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


def kernel_window(start, end, point, r: float) -> tuple[float, float]:
    """One window from the row window kernel, on a single row."""
    start, end, point = (np.array([v], dtype=np.float64) for v in (start, end, point))
    lo, hi = _ball_windows_rows(start - point, end - start, r)
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
    assert _ball_window(start, delta, aa, point, r * r) == kernel_window(
        start, end, point, r), (
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


# ---------------------------------------------------------------------------
# Long pairs with a thin reachable band: decide_continuous computes only the
# windows of the cells its sweep reaches. The verdicts must equal the full
# sweep's.


def band_radii(p: Curve, q: Curve) -> list:
    ddf = discrete_frechet(p, q)
    return knife_edge_radii(p, q) + [
        ddf * f for f in (0.9, 1.0 - 1e-9, 1.0 + 1e-9, 1.1)]


def long_pair(rng, m: int, length: float, edge: float, amp: float = 0.2):
    """A densified near-duplicate pair, built as the long-pair-2d workload
    builds them: a walk scaled to a fixed arc length, a copy with every
    vertex moved by up to amp and the same endpoints, and both densified,
    the copy 1.1 times coarser."""
    base = random_walk_curve(rng, 0, m, 2).vertices
    base = base * (length / np.linalg.norm(np.diff(base, axis=0), axis=1).sum())
    twin = perturbed_copy(rng, Curve(1, base), 1, amp).vertices.copy()
    twin[[0, -1]] = base[[0, -1]]
    return densify(Curve(0, base), edge), densify(Curve(1, twin), 1.1 * edge)


def test_band_on_densified_long_pairs():
    rng = np.random.default_rng(70)
    for m, length in ((15, 17.0), (25, 25.0), (40, 37.0)):
        p, q = long_pair(rng, m, length, 0.1)
        assert 150 <= min(len(p), len(q)) and max(len(p), len(q)) <= 400
        for r in band_radii(p, q):
            assert decide_continuous(p, q, r) == decide_continuous_full(p, q, r), r


def test_band_when_one_curve_is_much_longer():
    # 423 x 49: the band climbs about one column every nine rows
    rng = np.random.default_rng(71)
    p, q = long_pair(rng, 40, 40.0, 0.1)
    q = densify(Curve(1, q.vertices[::8]), 1.0)
    assert len(p) >= 400 and len(q) <= 60
    for r in band_radii(p, q):
        assert decide_continuous(p, q, r) == decide_continuous_full(p, q, r), r
        assert decide_continuous(q, p, r) == decide_continuous(p, q, r), r


def test_band_windows_stay_a_fraction_of_the_grid(monkeypatch):
    # A thin band: every window one decision computes is counted, and the
    # sum must stay far below the two windows per cell of a full sweep.
    p, q = long_pair(np.random.default_rng(72), 40, 30.0, 0.1)
    r = discrete_frechet(p, q) * (1.0 + 1e-9)
    calls = []
    real = frechet._ball_window

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(frechet, "_ball_window", counting)
    assert decide_continuous(p, q, r)
    assert len(calls) <= 0.05 * 2 * len(p) * len(q), (len(calls), len(p), len(q))


def lingering(rng, at, count: int, spread: float) -> np.ndarray:
    """count points scattered within spread of the point at."""
    offs = rng.normal(size=(count, len(at)))
    offs *= spread * rng.uniform(0.0, 1.0, size=(count, 1)) / np.linalg.norm(
        offs, axis=1, keepdims=True)
    return at + offs


def test_band_that_drifts_off_the_diagonal():
    # the band of a long near-duplicate pair wanders off the corner-to-corner
    # slope
    p, q = long_pair(np.random.default_rng(73), 30, 30.0, 0.1)
    for r in band_radii(p, q):
        assert decide_continuous(p, q, r) == decide_continuous_full(p, q, r), r


def test_left_boundary_reachable_for_many_rows():
    # p waits near q's first vertex for 84 vertices: the left boundary stays
    # reachable for many rows
    rng = np.random.default_rng(74)
    q = densify(random_walk_curve(rng, 1, 12, 2), 0.3)
    wait = lingering(rng, q.vertices[0], 84, 0.2)
    p = Curve(0, np.vstack([wait, q.vertices[1:]]))
    for r in band_radii(p, q) + [0.25]:
        assert decide_continuous(p, q, r) == decide_continuous_full(p, q, r), r
    assert decide_continuous(p, q, 0.25)


def test_right_boundary_reached_across_a_long_row():
    # q waits near its last vertex for 60 vertices; once p arrives there a
    # row runs across all of them to the right boundary
    rng = np.random.default_rng(75)
    base = densify(random_walk_curve(rng, 0, 16, 2), 0.3).vertices
    wait = lingering(rng, base[-1], 60, 0.2)
    q = Curve(1, np.vstack([base, wait, base[-1:]]))
    p = densify(Curve(0, base), 0.05)
    assert len(p) > len(q)
    for r in band_radii(p, q) + [0.25]:
        near = decide_continuous(p, q, r)
        assert near == decide_continuous_full(p, q, r), r
    assert near


def test_long_bottom_line_prefix():
    # q waits near its first vertex for 60 vertices, all within r of p's
    # first vertex: the bottom line's reachable prefix runs across all of
    # them
    rng = np.random.default_rng(76)
    base = densify(random_walk_curve(rng, 0, 16, 2), 0.3).vertices
    wait = lingering(rng, base[0], 60, 0.2)
    q = Curve(1, np.vstack([base[:1], wait, base]))
    p = densify(Curve(0, base), 0.05)
    assert len(p) > len(q)
    for r in band_radii(p, q) + [0.25]:
        assert decide_continuous(p, q, r) == decide_continuous_full(p, q, r), r


def test_walk_corpus_verdicts_unchanged():
    # 3,000 pairs of 2-d walks of 2-11 vertices at r = their discrete
    # distance. The windows are not closed at the vertices (ROADMAP item 1),
    # so some answers are a wrong Far; computing only the windows the sweep
    # reaches moves none of them: the Far counts stay 675, 234 and 340.
    rng = np.random.default_rng(9)
    pairs = []
    for _ in range(3000):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        pairs.append((Curve(0, np.cumsum(rng.normal(size=(m, 2)), axis=0)),
                      Curve(1, np.cumsum(rng.normal(size=(n, 2)), axis=0))))
    radii = [discrete_frechet(p, q) for p, q in pairs]
    assert sum(not decide_continuous(p, q, r) for (p, q), r in zip(pairs, radii)) == 675
    assert sum(verify(p, q, r).verdict is Verdict.FAR
               for (p, q), r in zip(pairs, radii)) == 234
    assert sum(negative_filter(p, q, r).verdict is Verdict.FAR
               for (p, q), r in zip(pairs, radii)) == 340
    for (p, q), r in list(zip(pairs, radii))[::10]:
        assert_same(p, q, r)


@st.composite
def _walk_pair_and_radius(draw):
    m, n = draw(st.integers(2, 200)), draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_walk_curve(rng, 0, m, 2, step=0.3)
    if draw(st.booleans()):
        # q follows p: n evenly spaced points of p's polyline, moved a little
        at = _curve_at(p.vertices, np.linspace(0.0, m - 1.0, n))
        q = Curve(1, at + rng.normal(size=(n, 2)) * 0.1)
    else:
        q = random_walk_curve(rng, 1, n, 2, step=0.3, start=p.vertices[0])
    ddf = discrete_frechet(p, q)
    r = draw(st.one_of(st.sampled_from(band_radii(p, q)),
                       st.floats(0.5, 1.5).map(lambda f: f * ddf)))
    return p, q, r


@settings(max_examples=40, deadline=None)
@given(_walk_pair_and_radius())
def test_property_band_on_long_walks(case):
    p, q, r = case
    assert decide_continuous(p, q, r) == decide_continuous_full(p, q, r)


def test_final_line_walk_past_the_last_entry():
    # A 1-d pair found by search. At r = its discrete distance, the distance
    # of p's last vertex to q[19], the last row's propagation stops at q[19]
    # by rounding while the final line's windows stay open, so the walk to
    # the corner runs on past the final line's last entry.
    p = curve1(0, [
        2.9347213020657295, 1.9195420874710085, 2.545100207311376, 3.0461055312550926,
        4.9800643048891935, 5.709239655086185, 4.199914467286552, 4.859440081502035,
        5.47317646814037, 8.30275750796863, 7.632963999122913, 6.57386330972381,
        5.886952306792454, 5.084842533931499, 3.8851102785536007, 4.792073326403597,
        4.581423393012919, 4.697135151237106, 4.391861369325733, 5.014046894156234,
        5.630855123340941, 5.231346750754996, 5.599179166053641, 3.307557032428259,
        4.677536426182657, 5.296911080823963, 4.1219737859125365, 1.2391039637560342,
        1.9828687830453344, 2.084018253251828, 2.5886298105402505, 2.373031278390422,
        1.456081058078256, 0.12083884039964721])
    q = curve1(1, [
        3.3743133898827002, -3.1250596207104877, -3.311511249600504, -2.3508928910136397,
        -4.64126014940135, -4.883333828535895, -5.8344361866455055, -5.204066678118374,
        -5.170189492342346, -5.634123400276581, -5.071264207580529, -3.614446920966655,
        -3.028515065558574, -1.5070560404487177, 0.30759720083379305, 1.0449981539135327,
        0.7654840108343222, -3.152238951456339, -3.5630502381948403, -6.158229487004625,
        -3.475069427746896, -2.370355899205859, -0.2152630709514054, -1.018426476008007,
        2.496572697742674, 4.39335231826266, 3.010879994562859, 1.350797279728936,
        -0.9132716559996661, -0.6275725686490814, -0.416403214548831, 0.9003749618352099,
        0.7740464076699016, 1.338444433754185])
    r = discrete_frechet(p, q)
    assert decide_continuous(p, q, r)
    assert decide_continuous_full(p, q, r)
