"""Range queries, self-similarity join, exact baseline, and metrics.

A range query asks for all dataset curves within continuous Frechet
distance r of a query curve. Candidates come from the grid index with
collision scores; a fraction tau of them, lowest scores first, goes
through the decisive verification cascade (low score = likely false
positive). Verified Far candidates are dropped, everything else is
reported.

The self join runs one range query per curve and merges the unordered
pairs. It decides each selected pair once, in the order the exact join
decides it (lower id first), and both queries of the pair report that
outcome; every simplified copy is built once per join. The exact join
filters all pairs by endpoints and bounding boxes as arrays and verifies
the survivors; it is the ground truth.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .curves import Curve, Dataset, _dists, bounding_box, check_positive
from .frechet import (
    DEFAULT_EPS_LIST,
    SimplifiedCopies,
    Verdict,
    VerificationOutcome,
    check_eps_list,
    estimate_continuous,
    verify,
)
from .lsh import LshIndex, LshParams, build_index, query_scores

__all__ = [
    "CandidateDecision",
    "JoinReport",
    "Metrics",
    "QueryConfig",
    "QueryRecord",
    "RangeQueryResult",
    "exact_join",
    "make_params",
    "metrics",
    "pairs_csv",
    "percentile_radius",
    "query_record_dicts",
    "range_query",
    "self_join",
    "stage_histogram",
    "summary_dict",
]

RADIUS_SLACK_MODES = ("none", "longest-edge")


@dataclass(frozen=True)
class QueryConfig:
    """Knobs of a range query or join.

    The grid side is grid_factor * d * r; with radius_slack
    "longest-edge" the radius is first widened by the dataset's longest
    edge, which makes discrete-distance collisions safe bounds for the
    continuous distance on sparsely sampled curves.
    """

    r: float
    tau: float = 1.0
    eps_list: tuple = DEFAULT_EPS_LIST
    radius_slack: str = "none"
    grid_factor: float = 4.0

    def __post_init__(self):
        check_positive("r", self.r)
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        check_positive("grid_factor", self.grid_factor)
        if self.radius_slack not in RADIUS_SLACK_MODES:
            raise ValueError(f"radius_slack must be one of {RADIUS_SLACK_MODES}")
        object.__setattr__(self, "eps_list", tuple(self.eps_list))
        check_eps_list(self.eps_list)

    def lsh_radius(self, dataset: Dataset) -> float:
        if self.radius_slack == "none":
            return self.r
        return self.r + dataset.max_edge

    def grid_delta(self, dataset: Dataset) -> float:
        return self.grid_factor * dataset.d * self.lsh_radius(dataset)


def make_params(dataset: Dataset, cfg: QueryConfig, k: int, L: int, seed: int) -> LshParams:
    """Index parameters whose grid side matches the query configuration."""
    return LshParams(cfg.grid_delta(dataset), k, L, dataset.d, seed)


@dataclass(frozen=True)
class CandidateDecision:
    """One candidate of one query: its score and what became of it."""

    curve_id: int
    collisions: int
    score: float
    verdict: str  # "near" | "far" | "unverified"
    stage: str | None  # deciding cascade stage; None when unverified


@dataclass(frozen=True)
class RangeQueryResult:
    """kept = reported positives; rejected = candidates verified Far."""

    kept: tuple
    rejected: tuple

    @property
    def candidates(self) -> int:
        return len(self.kept) + len(self.rejected)


def range_query(
    idx: LshIndex,
    dataset: Dataset,
    q: Curve,
    cfg: QueryConfig,
    exclude_id: int | None = None,
    decide=None,
) -> RangeQueryResult:
    """Scored candidates with the tau-fraction verified, cheapest first.

    The ceil(tau * candidates) lowest-score candidates (ties by id) are
    decided by the verification cascade, or by decide(q, candidate) when
    given; the rest are reported as unverified positives. idx must index
    dataset: every candidate id is resolved there. The index grid must
    match the configuration. A query that is the dataset's own curve
    object (dataset[q.id] is q) is scored from its stored key row; any
    other curve, even an equal one, is hashed on the index's grid whatever
    its edge lengths.
    """
    expected = cfg.grid_delta(dataset)
    if idx.params.delta != expected:
        raise ValueError(
            f"index grid {idx.params.delta} does not match configuration "
            f"grid {expected}; rebuild the index for this config"
        )
    row = q.id if 0 <= q.id < dataset.n and dataset[q.id] is q else None
    cands = query_scores(idx, q, row=row)
    if exclude_id is not None:
        cands = [s for s in cands if s.curve_id != exclude_id]
    nsel = math.ceil(cfg.tau * len(cands))
    kept = []
    rejected = []
    for rank, cand in enumerate(cands):
        if rank < nsel:
            c = dataset[cand.curve_id]
            out = verify(q, c, cfg.r, cfg.eps_list) if decide is None else decide(q, c)
            dec = CandidateDecision(
                cand.curve_id,
                cand.collisions,
                cand.score,
                out.verdict.value,
                out.stage,
            )
            (kept if out.verdict is Verdict.NEAR else rejected).append(dec)
        else:
            kept.append(
                CandidateDecision(
                    cand.curve_id, cand.collisions, cand.score, "unverified", None
                )
            )
    return RangeQueryResult(tuple(kept), tuple(rejected))


@dataclass(frozen=True)
class QueryRecord:
    query_id: int
    result: RangeQueryResult
    elapsed: float


@dataclass(frozen=True)
class Metrics:
    """Counts against a ground truth; undefined ratios read 1.0, flagged."""

    tp: int
    fp: int
    fn: int
    recall: float
    precision: float
    recall_defined: bool
    precision_defined: bool


def metrics(predicted, truth) -> Metrics:
    """Recall and precision of a predicted pair set versus the truth."""
    pred = {_norm_pair(p) for p in predicted}
    tru = {_norm_pair(p) for p in truth}
    tp = len(pred & tru)
    fp = len(pred - tru)
    fn = len(tru - pred)
    recall = tp / len(tru) if tru else 1.0
    precision = tp / len(pred) if pred else 1.0
    return Metrics(tp, fp, fn, recall, precision, bool(tru), bool(pred))


def _norm_pair(p) -> tuple[int, int]:
    a, b = p
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class JoinReport:
    """Everything a self join produced, ready for reporting.

    decided maps each unordered pair that surfaced as a candidate to its
    (stage, verdict); pairs that never collided are implicit lsh-rejects.
    counters holds the join's deterministic work counts (see
    summary_dict).
    """

    n_curves: int
    params: LshParams
    config: QueryConfig
    queries: tuple
    pairs: tuple
    decided: dict
    counters: dict
    metrics: Metrics | None
    build_seconds: float
    query_seconds: float

    @property
    def total_pairs(self) -> int:
        return self.n_curves * (self.n_curves - 1) // 2


def self_join(
    dataset: Dataset,
    params: LshParams,
    cfg: QueryConfig,
    truth=None,
) -> JoinReport:
    """Range-query every curve against the rest and merge unordered pairs.

    Every selected unordered pair is decided once, as verify(lower-id
    curve, higher-id curve), the call exact_join makes for it, with every
    simplified copy built once per join; both sides' query records carry
    that one outcome. A pair is reported when it was decided Near, or when
    no side selected it and at least one kept it unverified; with tau = 1
    the pairs equal exact_join's.
    """
    t0 = time.perf_counter()
    idx = build_index(dataset, params)
    build_seconds = time.perf_counter() - t0
    r, eps_list = cfg.r, cfg.eps_list
    copies = SimplifiedCopies()
    outcomes: dict[tuple[int, int], VerificationOutcome] = {}

    def decide(p: Curve, q: Curve) -> VerificationOutcome:
        if p.id > q.id:
            p, q = q, p
        pair = (p.id, q.id)
        if pair not in outcomes:
            outcomes[pair] = verify(p, q, r, eps_list, copies)
        return outcomes[pair]

    def run(c: Curve) -> QueryRecord:
        tq = time.perf_counter()
        res = range_query(idx, dataset, c, cfg, exclude_id=c.id, decide=decide)
        return QueryRecord(c.id, res, time.perf_counter() - tq)

    t1 = time.perf_counter()
    records = tuple(run(c) for c in dataset)
    query_seconds = time.perf_counter() - t1

    decided = {pair: (out.stage, out.verdict.value) for pair, out in outcomes.items()}
    candidates = selected = 0
    for rec in records:
        candidates += rec.result.candidates
        for dec in rec.result.kept + rec.result.rejected:
            if dec.verdict == "unverified":
                pair = _norm_pair((rec.query_id, dec.curve_id))
                decided.setdefault(pair, ("unverified-positive", "unverified"))
            else:
                selected += 1
    pairs = tuple(sorted(pair for pair, (_, verdict) in decided.items() if verdict != "far"))
    counters = {
        "candidates": candidates,
        "selected": selected,
        "pairs_verified": len(outcomes),
        "simplified_copies": len(copies),
    }

    rep_metrics = metrics(pairs, truth) if truth is not None else None
    return JoinReport(
        dataset.n,
        params,
        cfg,
        records,
        pairs,
        decided,
        counters,
        rep_metrics,
        build_seconds,
        query_seconds,
    )


def exact_join(dataset: Dataset, r: float, eps_list=DEFAULT_EPS_LIST) -> tuple:
    """All unordered pairs within continuous Frechet distance r (ground truth).

    Each row of pairs (i, j > i) is first tested as arrays: the bounding-box
    corner gaps with bbox_filter's arithmetic, the endpoint distances with
    endpoints_filter's, so the arrays drop exactly the pairs those filters
    reject. Only the pairs that pass go through verify, which makes the
    final call, with one store of simplified copies for the whole call.
    The radius and eps_list are checked up front, even when no pair
    reaches verify.
    """
    check_positive("r", r)
    eps_list = tuple(eps_list)
    check_eps_list(eps_list)
    copies = SimplifiedCopies()
    firsts = np.array([c.vertices[0] for c in dataset])
    lasts = np.array([c.vertices[-1] for c in dataset])
    boxes = [bounding_box(c) for c in dataset]
    lower = np.array([b.lower for b in boxes])
    upper = np.array([b.upper for b in boxes])
    out = []
    for i in range(dataset.n - 1):
        passed = (
            (_dists(firsts[i + 1:] - firsts[i]) <= r)
            & (_dists(lasts[i + 1:] - lasts[i]) <= r)
            & (np.abs(lower[i + 1:] - lower[i]).max(axis=1) <= r)
            & (np.abs(upper[i + 1:] - upper[i]).max(axis=1) <= r)
        )
        p = dataset[i]
        for j in (np.flatnonzero(passed) + (i + 1)).tolist():
            if verify(p, dataset[j], r, eps_list, copies).verdict is Verdict.NEAR:
                out.append((i, j))
    return tuple(out)


def percentile_radius(
    dataset: Dataset,
    pct: int,
    sample_size: int = 1000,
    seed: int = 0,
) -> float:
    """Nearest-rank percentile of pairwise distances on a curve sample.

    The caller must reject a zero radius (an all-identical sample yields
    0 at any percentile).
    """
    if not 1 <= pct <= 99:
        raise ValueError("pct must be in [1, 99]")
    if sample_size < 2:
        raise ValueError("sample_size must be >= 2")
    if dataset.n < 2:
        raise ValueError("dataset must contain at least 2 curves")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    size = min(sample_size, dataset.n)
    ids = sorted(int(i) for i in rng.choice(dataset.n, size=size, replace=False))
    dists = []
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            dists.append(estimate_continuous(dataset[ids[a]], dataset[ids[b]]))
    dists.sort()
    rank = math.ceil(pct / 100.0 * len(dists))  # nearest-rank, 1-based
    return dists[rank - 1]


# ---------------------------------------------------------------------------
# Report serialization


def stage_histogram(report: JoinReport) -> dict:
    """Pairs per deciding bucket; the values sum to n*(n-1)/2.

    Simplification stages are split by verdict; pairs that never collided
    count as lsh-reject.
    """
    hist: dict[str, int] = {}
    for stage, verdict in report.decided.values():
        key = stage
        if verdict == "unverified":
            key = "unverified-positive"
        elif stage.startswith("simpl-"):
            key = f"{stage}-{verdict}"
        hist[key] = hist.get(key, 0) + 1
    hist["lsh-reject"] = report.total_pairs - len(report.decided)
    return dict(sorted(hist.items()))


def summary_dict(report: JoinReport) -> dict:
    """JSON-ready summary; volatile values live only under "timings".

    "counters" holds the join's deterministic work counts: candidates and
    selected (summed over the queries, so a pair counts once per side),
    pairs_verified (cascade runs, one per selected unordered pair) and
    simplified_copies (copies built in the join's store).
    """
    p, cfg = report.params, report.config
    out = {
        "n_curves": report.n_curves,
        "total_pairs": report.total_pairs,
        "params": {
            "delta": p.delta,
            "k": p.k,
            "L": p.L,
            "l_prime": p.l_prime,
            "d": p.d,
            "seed": p.seed,
        },
        "config": {
            "r": cfg.r,
            "tau": cfg.tau,
            "eps_list": list(cfg.eps_list),
            "radius_slack": cfg.radius_slack,
            "grid_factor": cfg.grid_factor,
        },
        "predicted_pairs": len(report.pairs),
        "stage_histogram": stage_histogram(report),
        "counters": dict(report.counters),
        "timings": {
            "build_seconds": report.build_seconds,
            "query_seconds": report.query_seconds,
        },
    }
    if report.metrics is not None:
        out["metrics"] = asdict(report.metrics)
    return out


def query_record_dicts(report: JoinReport) -> list[dict]:
    """One JSON-lines row per query; timings segregated per row."""
    rows = []
    for rec in report.queries:
        rows.append(
            {
                "query_id": rec.query_id,
                "candidates": rec.result.candidates,
                "kept": [
                    {
                        "id": d.curve_id,
                        "collisions": d.collisions,
                        "score": d.score,
                        "verdict": d.verdict,
                        "stage": d.stage,
                    }
                    for d in rec.result.kept
                ],
                "rejected": [
                    {"id": d.curve_id, "score": d.score, "stage": d.stage}
                    for d in rec.result.rejected
                ],
                "timings": {"elapsed": rec.elapsed},
            }
        )
    return rows


def pairs_csv(pairs) -> str:
    """CSV text "idA,idB", one unordered pair per line, sorted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["idA", "idB"])
    for a, b in sorted(_norm_pair(p) for p in pairs):
        writer.writerow([a, b])
    return buf.getvalue()
