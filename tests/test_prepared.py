"""The prepared view of a curve against the per-call computations it
replaces, bit for bit: float vertices, edge deltas and squared lengths,
and the bounding box's corners as floats (equal_time_upper's inline
points are checked against the array oracle in test_frechet). simplify returns the curve itself exactly when it drops
no vertex, no caller can change a prepared view, and verify's outcomes do
not depend on which earlier call prepared a curve."""

import dataclasses

import numpy as np
import pytest

from curvejoin import Curve, simplify, verify
from curvejoin.frechet import SimplifiedCopies

from helpers import acceptance_corpus, random_walk_curve, walk_families


def bits(xs) -> list[str]:
    """Exact float bits, the sign of zero included."""
    return [float(x).hex() for x in xs]


def view_cases() -> list[Curve]:
    """d = 1-3: single vertices, zero-length edges (signed zeros too),
    random walks, and a 2,400-vertex curve."""
    rng = np.random.default_rng(90)
    out = []
    for d in (1, 2, 3):
        for m in (1, 2, 7, 30):
            V = rng.normal(size=(m, d)) * rng.uniform(0.1, 1e3, size=d)
            if m > 3:
                V[3] = V[2]
            out.append(Curve(len(out), V))
        out.append(Curve(len(out), np.array([[0.0] * d, [-0.0] * d, [-0.0] * d])))
        out.append(random_walk_curve(rng, len(out), 40, d, step=1e-9))
    t = np.arange(2400, dtype=np.float64)
    out.append(Curve(len(out), np.column_stack([t, np.full_like(t, 0.1) * np.sin(t)])))
    return out


@pytest.mark.parametrize("c", view_cases(), ids=lambda c: f"m{len(c)}-d{c.dim}")
def test_view_equals_the_per_call_computation(c):
    V = c.vertices
    P = V.tolist()
    assert [bits(a) for a in c._points] == [bits(a) for a in P]

    deltas, sqlens = c._edges
    assert len(deltas) == len(sqlens) == len(c) - 1
    for a, b, delta, aa in zip(P, P[1:], deltas, sqlens):
        # the per-window arithmetic the negative filter's scan used
        want = [e - s for s, e in zip(a, b)]
        want_aa = want[0] * want[0]
        for u in range(1, len(want)):
            want_aa = want_aa + want[u] * want[u]
        assert bits(delta) == bits(want)
        assert aa.hex() == want_aa.hex()

    assert bits(c._corners) == bits(V.min(axis=0).tolist() + V.max(axis=0).tolist())


def test_simplify_returns_the_curve_exactly_when_it_drops_nothing():
    rng = np.random.default_rng(92)
    same = new = 0
    for i in range(300):
        d = 1 + i % 3
        c = random_walk_curve(rng, i, int(rng.integers(1, 15)), d)
        if i % 4 == 0:
            V = c.vertices
            k = int(rng.integers(len(V)))
            c = Curve(i, np.insert(V, k, V[k], axis=0))  # a repeated vertex
        for mu in (0.0, 0.05, float(rng.uniform(0.1, 3.0))):
            s = simplify(c, mu)
            if len(s) == len(c):
                assert s is c
                same += 1
            else:
                assert s is not c and s.id == c.id
                new += 1
    assert same > 100 and new > 100


class _RecordingCopies(SimplifiedCopies):
    """A store that also records every key asked for."""

    def __init__(self):
        super().__init__()
        self.asked = set()

    def get(self, c, mu):
        self.asked.add((c.id, mu))
        return super().get(c, mu)


def test_store_counts_every_copy_whether_or_not_it_is_the_curve():
    data = walk_families(np.random.default_rng(93), 6, 2)
    store = _RecordingCopies()
    for i in range(data.n):
        for j in range(i + 1, data.n):
            verify(data[i], data[j], 1.0, copies=store)
    # the simplified_copies counter is len(store): one entry per key asked
    assert len(store) == len(store.asked) > 0
    itself = sum(store.get(data[cid], mu) is data[cid] for cid, mu in list(store.asked))
    assert 0 < itself < len(store)


def outcome(out) -> tuple:
    return out.verdict, out.stage


def fresh(c: Curve) -> Curve:
    return Curve(c.id, c.vertices)


def test_verify_on_fresh_and_warmed_curves_acceptance_corpus():
    for k, (p, q, r, _) in enumerate(acceptance_corpus()):
        want = outcome(verify(fresh(p), fresh(q), r))
        pw, qw = fresh(p), fresh(q)
        verify(pw, qw, r * (0.5 if k % 2 else 2.0))  # prepares both at another radius
        assert outcome(verify(pw, qw, r)) == want, k


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_on_fresh_and_warmed_curves_walk_families(d):
    data = walk_families(np.random.default_rng(94 + d), 5, d, repeats=d == 2)
    pairs = [(i, j) for i in range(data.n) for j in range(data.n) if i != j]
    warm = SimplifiedCopies()
    for i, j in pairs:
        verify(data[i], data[j], 0.8, copies=warm)
    warm_store, fresh_store = SimplifiedCopies(), SimplifiedCopies()
    fresh_curves = [fresh(c) for c in data]
    stages = set()
    for i, j in pairs:
        got = outcome(verify(data[i], data[j], 1.0, copies=warm_store))
        want = outcome(verify(fresh_curves[i], fresh_curves[j], 1.0, copies=fresh_store))
        assert got == want, (i, j)
        stages.add(got[1])
    assert len(stages) >= 4


def test_the_view_cannot_be_changed():
    data = walk_families(np.random.default_rng(95), 3, 2)
    pairs = [(data[i], data[j]) for i in range(data.n) for j in range(i + 1, data.n)]
    before = [outcome(verify(p, q, 1.0)) for p, q in pairs]
    c = data[0]
    corners = c._corners
    for name in ("_points", "_edges", "_corners"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, None)
    with pytest.raises(TypeError):
        c._points[0][0] = 1e9
    with pytest.raises(TypeError):
        c._edges[0][0][0] = 1e9
    with pytest.raises(TypeError):
        c._corners[0] = 1e9
    assert c._corners is corners
    assert [outcome(verify(p, q, 1.0)) for p, q in pairs] == before
