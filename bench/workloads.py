"""The benchmark workloads.

A workload makes its inputs from the seed and writes them to files before
any timing starts. `setup` parses those files and builds what the timed
calls need; `run_pass` makes the timed library calls and returns their
timing-free outputs; `check` compares those outputs with exact or
analytic truth. The library is always reached through module attributes
(`engine.self_join`, `frechet.verify`, ...) so the traced run can wrap
the very names the benchmark calls.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import gen
from curvejoin import curves, engine, frechet, lsh


class Timer:
    """Times each public library call from outside, in call order."""

    def __init__(self):
        self.calls: list[tuple[str, float]] = []

    def __call__(self, label: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((label, time.perf_counter() - t0))
        return out

    def total(self) -> float:
        return sum(s for _, s in self.calls)


def _pairs(items) -> list[list[int]]:
    return sorted([min(a, b), max(a, b)] for a, b in items)


def _recall_precision(reported: int, truth: int, hits: int) -> tuple[float, float]:
    return (hits / truth if truth else 1.0, hits / reported if reported else 1.0)


class Workload:
    name = ""
    sizes: dict = {}
    # spans that must fire on this workload, and span prefixes that must not
    expect_spans: tuple = ()
    forbid_spans: tuple = ()

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.p = self.sizes["tiny" if tiny else "full"]
        self.rng = np.random.default_rng(seed)
        self.make_inputs(Path(workdir))

    def make_inputs(self, workdir: Path) -> None:
        raise NotImplementedError

    def setup(self, timer: Timer) -> dict:
        raise NotImplementedError

    def prepare(self, state: dict) -> None:
        """Untimed reference answers that later checks compare against."""

    def run_pass(self, state: dict, timer: Timer) -> dict:
        raise NotImplementedError

    def check(self, state: dict, out: dict) -> list[str]:
        raise NotImplementedError

    def quality(self, out: dict) -> tuple[float, float]:
        raise NotImplementedError

    def near_pairs(self, out: dict) -> set:
        """Truly Near (low id, high id) pairs, for the candidate ratio."""
        return set()

    def index_of(self, state: dict):
        """(index parameters, dataset) for the memory and file-size pass, or None."""
        return (state["params"], state["data"]) if "params" in state else None


class _Join(Workload):
    """A tau=1 self join checked against exact_join."""

    def check(self, st, out):
        bad = []
        if out["pairs"] != out["exact"]:
            bad.append("tau=1 join pairs differ from exact_join")
        n = st["data"].n
        if sum(out["hist"].values()) != n * (n - 1) // 2:
            bad.append("stage histogram does not sum to n(n-1)/2")
        return bad

    def quality(self, out):
        exact = self.near_pairs(out)
        hits = sum(tuple(x) in exact for x in out["pairs"])
        return _recall_precision(len(out["pairs"]), len(exact), hits)

    def near_pairs(self, out):
        return {tuple(x) for x in out["exact"]}


class JoinClustered1d(_Join):
    """LSH scoring dominates (L=1024 probes per query) while every pair is
    settled by endpoints or simpl-10; verification and exact decisions
    stay cheap.
    """

    name = "join-clustered-1d"
    sizes = {
        "full": dict(clusters=10, per_cluster=12, m=6, L=1024),
        "tiny": dict(clusters=3, per_cluster=5, m=6, L=64),
    }
    expect_spans = ("curves.parse", "lsh.build", "lsh.snap", "lsh.score",
                    "engine.self_join", "engine.range_query", "engine.exact_join",
                    "frechet.verify", "curves.simplify", "frechet.endpoints_filter",
                    "frechet.verify_simpl", "frechet.equal_time_upper")
    R = 1.0

    def make_inputs(self, workdir):
        p = self.p
        cs, _, truth = gen.clustered(self.rng, p["clusters"], p["per_cluster"], 1,
                                     self.R, p["m"], ring="last-vertex")
        self.truth = _pairs(truth)
        self.path = gen.write_series(cs, workdir / "series.txt")

    def setup(self, timer):
        data = timer("parse", curves.parse_series_1d, self.path)
        cfg = engine.QueryConfig(r=self.R, tau=1.0)
        params = engine.make_params(data, cfg, k=2, L=self.p["L"], seed=self.seed)
        return dict(data=data, cfg=cfg, params=params)

    def run_pass(self, st, timer):
        rep = timer("join", engine.self_join, st["data"], st["params"], st["cfg"])
        exact = timer("exact_join", engine.exact_join, st["data"], self.R)
        return dict(pairs=_pairs(rep.pairs), exact=_pairs(exact),
                    hist=engine.stage_histogram(rep))

    def check(self, st, out):
        bad = super().check(st, out)
        if out["exact"] != self.truth:
            bad.append("exact_join differs from the analytic cluster truth")
        return bad


class VerifyWalks2d(_Join):
    """Families of 2-d random walks whose pair distances straddle r: the
    cascade and decide_continuous do the work while LSH passes every
    in-family pair.
    """

    name = "verify-walks-2d"
    sizes = {
        "full": dict(families=40, m=12, sample=6, L=16),
        "tiny": dict(families=8, m=12, sample=4, L=16),
    }
    expect_spans = ("curves.parse", "lsh.build", "engine.self_join", "engine.exact_join",
                    "engine.percentile_radius", "engine.estimate", "frechet.verify",
                    "curves.simplify") + tuple(f"frechet.{fn}" for fn in (
                        "endpoints_filter", "bbox_filter", "verify_simpl", "equal_time_upper",
                        "greedy_upper", "negative_filter", "decide_continuous"))
    # The join radius is part of the workload, never the timed
    # percentile_radius output, so a change to the estimator cannot move
    # the join's input.
    R = 1.0
    # A family is a walk plus copies moved by up to these multiples of r.
    # The fixed ladder gives every family the same mix of easy and
    # borderline pairs; many small families keep the total work close
    # across seeds.
    AMPS = (0.4, 0.7, 1.0, 1.3)
    FAMILY_GAP = 100.0  # far beyond the grid side: families never collide
    END = (6.0, 0.0)

    def make_inputs(self, workdir):
        p = self.p
        families = []
        for _ in range(p["families"]):
            walk = gen.bridge_walk(self.rng, p["m"], 0.3, 0.3, np.array(self.END))
            family = [walk] + [gen.perturbed(self.rng, walk, a * self.R) for a in self.AMPS]
            # a notched copy sits just beyond r: only the negative filter at
            # full radius or the exact decision can settle it
            family.append(gen.notched(self.rng, walk, 1.003 * self.R))
            families.append(family)
        cs = [v + np.array([self.FAMILY_GAP * fi, 0.0])
              for fi, family in enumerate(families) for v in family]
        self.path = gen.write_trajectories(cs, workdir / "walks")
        self.sample_path = gen.write_trajectories(families[0][: p["sample"]], workdir / "sample")

    def setup(self, timer):
        data = timer("parse", curves.parse_trajectories_2d, self.path)
        sample = timer("parse", curves.parse_trajectories_2d, self.sample_path)
        cfg = engine.QueryConfig(r=self.R, tau=1.0, grid_factor=16.0)
        params = engine.make_params(data, cfg, k=1, L=self.p["L"], seed=self.seed)
        return dict(data=data, sample=sample, cfg=cfg, params=params)

    def run_pass(self, st, timer):
        rep = timer("join", engine.self_join, st["data"], st["params"], st["cfg"])
        exact = timer("exact_join", engine.exact_join, st["data"], self.R)
        radius = timer("radius", engine.percentile_radius, st["sample"], 5,
                       sample_size=st["sample"].n, seed=self.seed)
        return dict(pairs=_pairs(rep.pairs), exact=_pairs(exact),
                    hist=engine.stage_histogram(rep), radius=repr(radius))

    def check(self, st, out):
        bad = super().check(st, out)
        hist = out["hist"]
        for bucket in ("negative-filter", "full-verify"):
            if not hist.get(bucket):
                bad.append(f"no pair decided by {bucket}")
        for verdict in ("near", "far"):
            if not any(k.startswith("simpl-") and k.endswith(verdict) and v
                       for k, v in hist.items()):
                bad.append(f"no pair decided simpl-*-{verdict}")
        if not float(out["radius"]) > 0.0:
            bad.append("percentile radius is not positive")
        return bad


class Index2d(Workload):
    """Index writes (build, save) beside reads (load, 1-client closed-loop
    range queries at tau=0, half hits and half misses); frechet is
    bypassed.
    """

    name = "index-2d"
    sizes = {
        "full": dict(clusters=100, per_cluster=20, m=40, L=256, queries=400),
        "tiny": dict(clusters=4, per_cluster=5, m=10, L=16, queries=20),
    }
    expect_spans = ("curves.parse", "lsh.build", "lsh.snap", "lsh.score", "lsh.save",
                    "lsh.load", "engine.range_query")
    forbid_spans = ("frechet.", "curves.simplify")
    R = 1.0
    HIT_AMP = 0.3  # a hit stays within 0.3r + 0.02r of every cluster member
    MISS_Y = 1000.0  # misses start far off the axis every cluster lies on

    def make_inputs(self, workdir):
        p = self.p
        cs, centers, _ = gen.clustered(self.rng, p["clusters"], p["per_cluster"], 2,
                                       self.R, p["m"], ring="translate")
        self.n = len(cs)
        stride = p["per_cluster"] + 1  # members, then the ring curve
        queries, self.truth = [], []
        for i in range(p["queries"]):
            if i % 2 == 0:
                ci = int(self.rng.integers(p["clusters"]))
                queries.append(gen.perturbed(self.rng, centers[ci], self.HIT_AMP))
                self.truth.append(set(range(ci * stride, ci * stride + p["per_cluster"])))
            else:
                start = np.array([self.rng.uniform(0.0, 100.0 * p["clusters"]), self.MISS_Y])
                queries.append(gen.random_walk(self.rng, p["m"], 2, 3.0 * self.R, start=start))
                self.truth.append(set())
        self.path = gen.write_trajectories(cs, workdir / "data")
        self.query_path = gen.write_trajectories(queries, workdir / "queries")
        self.index_path = workdir / "index.bin"

    def setup(self, timer):
        data = timer("parse", curves.parse_trajectories_2d, self.path)
        cfg = engine.QueryConfig(r=self.R, tau=0.0)
        params = engine.make_params(data, cfg, k=2, L=self.p["L"], seed=self.seed)
        idx = timer("build", lsh.build_index, data, params)
        return dict(data=data, cfg=cfg, params=params, idx=idx)

    def prepare(self, st):
        # external queries get ids past the dataset's, so no query is
        # mistaken for a dataset curve
        st["queries"] = [curves.Curve(self.n + c.id, c.vertices)
                         for c in curves.parse_trajectories_2d(self.query_path)]
        st["in_memory"] = [self._answer(engine.range_query(st["idx"], st["data"], q, st["cfg"]))
                           for q in st["queries"]]

    @staticmethod
    def _answer(res) -> list[list[int]]:
        return [[d.curve_id, d.collisions] for d in res.kept]

    def run_pass(self, st, timer):
        timer("save", lsh.save_index, st["idx"], self.index_path)
        loaded = timer("load", lsh.load_index, self.index_path, st["data"])
        answers = [self._answer(timer("query", engine.range_query, loaded, st["data"], q, st["cfg"]))
                   for q in st["queries"]]
        return dict(answers=answers)

    def check(self, st, out):
        bad = []
        if out["answers"] != st["in_memory"]:
            bad.append("reloaded index answers differ from the in-memory index")
        return bad

    def quality(self, out):
        reported = truth = hits = 0
        for ans, near in zip(out["answers"], self.truth):
            ids = {cid for cid, _ in ans}
            reported += len(ids)
            truth += len(near)
            hits += len(ids & near)
        return _recall_precision(reported, truth, hits)

    def near_pairs(self, out):
        return {(cid, self.n + qi) for qi, near in enumerate(self.truth) for cid in near}


class LongPair2d(Workload):
    """Densified near-duplicate pairs of ~300 vertices decided below, at and
    above their discrete distance: long inputs with a thin reachable band.
    """

    name = "long-pair-2d"
    sizes = {
        "full": dict(pairs=2, m=40, length=30.0, edge=0.1),
        "tiny": dict(pairs=1, m=8, length=6.0, edge=0.2),
    }
    expect_spans = ("curves.parse", "frechet.verify", "frechet.decide_continuous",
                    "curves.simplify", "frechet.endpoints_filter", "frechet.verify_simpl")
    # radii as multiples of the pair's discrete distance; the continuous
    # distance never exceeds the discrete one, so the last two are Near
    FACTORS = (0.9, 1.0 + 1e-9, 1.1)
    AMP = 0.2

    def make_inputs(self, workdir):
        p = self.p
        cs, self.radii = [], []
        for _ in range(p["pairs"]):
            base = gen.random_walk(self.rng, p["m"], 2, 1.0)
            # a fixed arc length fixes the vertex counts, and with them the
            # cost of every decision
            base *= p["length"] / np.linalg.norm(np.diff(base, axis=0), axis=1).sum()
            twin = gen.perturbed(self.rng, base, self.AMP)
            twin[[0, -1]] = base[[0, -1]]  # shared endpoints: no endpoint shortcut
            a = gen.densified(base, p["edge"])
            b = gen.densified(twin, 1.1 * p["edge"])
            dd = gen.discrete_frechet(a, b)
            cs += [a, b]
            self.radii.append([dd * f for f in self.FACTORS])
        self.path = gen.write_trajectories(cs, workdir / "pairs")

    def setup(self, timer):
        return dict(data=timer("parse", curves.parse_trajectories_2d, self.path))

    def run_pass(self, st, timer):
        rows = []
        for k, radii in enumerate(self.radii):
            a, b = st["data"][2 * k], st["data"][2 * k + 1]
            for r in radii:
                out = timer("verify", frechet.verify, a, b, r)
                near = timer("decide", frechet.decide_continuous, a, b, r)
                rows.append([k, repr(r), out.verdict.value, out.stage, bool(near)])
        return dict(decisions=rows)

    def check(self, st, out):
        bad = []
        for k, r, verdict, stage, near in out["decisions"]:
            if (verdict == "near") != near:
                bad.append(f"pair {k} at r={r}: verify says {verdict} ({stage}), "
                           f"decide_continuous says {near}")
        for (k, r, _, _, near), factor in zip(out["decisions"], self.FACTORS * len(self.radii)):
            if factor >= 1.0 and not near:
                bad.append(f"pair {k} is Far at r={r}, at or above its discrete distance")
        return bad

    def quality(self, out):
        rows = out["decisions"]
        hits = sum(v == "near" and near for _, _, v, _, near in rows)
        return _recall_precision(sum(v == "near" for _, _, v, _, _ in rows),
                                 sum(near for *_, near in rows), hits)


WORKLOADS = {w.name: w for w in (JoinClustered1d, VerifyWalks2d, Index2d, LongPair2d)}
