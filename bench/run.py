"""curvejoin benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload join-clustered-1d --seed 1 --seconds 20 --trace 0

Paths are relative to the checkout that holds this file: the library is
imported from its src/, and nothing is installed. Inputs are made from --seed and
written under .bench_work/ before timing starts, and removed at exit.

--trace 0 measures the end-to-end metrics: the median of repeated set-ups,
then whole passes of the workload's library calls, repeated until
--seconds have passed (at least MIN_PASSES passes). --trace 1 runs one
untraced pass, then the same pass with every layer wrapped, and reports
the per-layer metrics; spans go to .bench_out/. Every pass is checked
against exact or analytic truth. The last line of stdout is the result
object; the line before it is the full report, also saved in .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import CASCADE, Tracer

# pinned in main() before numpy loads: the measured path is single-threaded
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up runs at least MIN_SETUPS times, and cheap set-ups repeat until
# they have taken SETUP_SHARE of the run, so their median is not one
# noisy sample.
MIN_SETUPS, MAX_SETUPS, SETUP_SHARE = 3, 2000, 0.1
MIN_PASSES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("recall", "ratio"),
    ("precision", "ratio"),
)

STAGE_BUCKETS = (
    "lsh-reject", "endpoints", "bbox",
    "simpl-10-near", "simpl-10-far", "simpl-1-near", "simpl-1-far",
    "simpl-0.1-near", "simpl-0.1-far",
    "equal-time", "greedy", "negative-filter", "full-verify", "unverified-positive",
)
OPS = ("join", "exact_join", "radius", "load", "verify", "decide")

# (name, unit, better) of every metric the traced run reports.
PER_LAYER = (
    [("curves.parse_s", "s", "lower"),
     ("curves.simplify_calls", "count", "lower"),
     ("curves.simplify_s", "s", "lower"),
     ("lsh.build_s", "s", "lower"),
     ("lsh.grid_evals", "count", "lower"),
     ("lsh.snap_calls", "count", "lower"),
     ("lsh.snap_s", "s", "lower"),
     ("lsh.score_calls", "count", "lower"),
     ("lsh.score_s", "s", "lower"),
     ("lsh.candidates", "count", "lower"),
     ("lsh.candidate_near_ratio", "ratio", "higher"),
     ("lsh.save_s", "s", "lower"),
     ("lsh.load_s", "s", "lower"),
     ("lsh.index_mb", "MB", "lower"),
     ("lsh.index_file_mb", "MB", "lower")]
    + [(f"frechet.decided.{b}", "count",
        "higher" if b in ("lsh-reject", "endpoints", "bbox") else "lower")
       for b in STAGE_BUCKETS]
    + [m for fn in CASCADE for m in ((f"frechet.{fn}.calls", "count", "lower"),
                                     (f"frechet.{fn}.s", "s", "lower"))]
    + [("frechet.verify_calls", "count", "lower"),
       ("frechet.verify_per_pair", "calls/pair", "lower"),
       ("frechet.verify_self_s", "s", "lower"),
       ("frechet.decide_grid_cells", "count", "lower"),
       ("engine.range_query_self_s", "s", "lower"),
       ("engine.merge_s", "s", "lower"),
       ("engine.exact_join_self_s", "s", "lower"),
       ("engine.percentile_radius_self_s", "s", "lower"),
       ("engine.estimate_calls", "count", "lower"),
       ("engine.estimate_self_s", "s", "lower")]
    + [(f"op.{op}_s", "s", "lower") for op in OPS]
    + [("op.query_p50_ms", "ms", "lower"),
       ("op.query_p95_ms", "ms", "lower"),
       ("op.queries", "count", "higher"),
       ("trace.untraced_s", "s", "lower"),
       ("trace.traced_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.attributed_s", "s", "lower"),
       ("trace.unattributed_s", "s", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.coverage_errors", "count", "lower"),
       ("error_rate", "ratio", "lower")]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the smoke test only")
    return ap.parse_args(argv)


def net_source_lines() -> int:
    """Non-blank, non-comment lines of src/curvejoin/*.py."""
    total = 0
    for path in sorted((SRC / "curvejoin").glob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            s = line.strip()
            total += bool(s) and not s.startswith("#")
    return total


def machine_facts() -> dict:
    import numpy as np

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_net_lines": net_source_lines(),
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
    }


def digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def pass_seconds(passes) -> float:
    """One pass as the sum, call by call, of each call's median time."""
    labels = [label for label, _ in passes[0]]
    if any([label for label, _ in p] != labels for p in passes):
        raise RuntimeError("passes made different call sequences")
    return sum(statistics.median(p[j][1] for p in passes) for j in range(len(labels)))


def measure(wl, seconds: float, report: dict) -> tuple[dict, int, list]:
    """End-to-end metrics of untraced set-ups and passes."""
    from workloads import Timer

    attempted, failures, setups = 0, [], []

    def set_up() -> dict:
        nonlocal attempted
        timer = Timer()
        state = wl.setup(timer)
        setups.append(timer.total())
        attempted += len(timer.calls)
        return state

    state = set_up()
    wl.prepare(state)
    passes, first = [], None
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        timer = Timer()
        out = wl.run_pass(state, timer)
        attempted += len(timer.calls)
        passes.append(timer.calls)
        failures += wl.check(state, out)
        if first is None:
            first = out
        elif out != first:
            failures.append(f"pass {len(passes)} output differs from pass 1")
        # Set-ups run between the passes, so that they sample the same
        # stretch of the machine's time as the passes. Only the first
        # set-up's state is used.
        if len(setups) < MIN_SETUPS:
            set_up()
        while len(setups) < MAX_SETUPS and sum(setups) < SETUP_SHARE * (time.perf_counter() - t0):
            set_up()
    recall, precision = wl.quality(first)
    report.update(digest=digest(first), passes=len(passes), setup_seconds=setups,
                  pass_seconds=[sum(s for _, s in p) for p in passes])
    metrics = {"setup_s": statistics.median(setups), "pass_s": pass_seconds(passes),
               "recall": recall, "precision": precision}
    return metrics, attempted, failures


def index_size(wl, state, workdir: Path) -> tuple[float, float]:
    """(MB traced while building the index and still held, MB of its file).

    A separate, untimed build: tracemalloc slows it several times over.
    """
    from curvejoin import lsh

    got = wl.index_of(state)
    if got is None:
        return 0.0, 0.0
    params, data = got
    tracemalloc.start()
    try:
        built = lsh.build_index(data, params)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    path = workdir / "sized.idx"
    lsh.save_index(built, path)
    return held / 1e6, path.stat().st_size / 1e6


def traced(wl, workdir: Path, report: dict) -> tuple[dict, int, list]:
    """Per-layer metrics: one untraced pass, then the same pass traced."""
    from workloads import Timer

    base = Timer()
    state = wl.setup(base)
    wl.prepare(state)
    setup_calls = len(base.calls)
    out = wl.run_pass(state, base)
    failures = wl.check(state, out)

    tracer = Tracer()
    timer = Timer()
    tracer.install()
    try:
        state2 = wl.setup(timer)
    finally:
        tracer.uninstall()
    wl.prepare(state2)
    tracer.install()
    try:
        out2 = wl.run_pass(state2, timer)
    finally:
        tracer.uninstall()
    failures += wl.check(state2, out2)
    if out2 != out:
        failures.append("traced pass output differs from the untraced pass")

    names = tracer.by_name()
    coverage = [f"span {s} never fired" for s in wl.expect_spans if s not in names]
    coverage += [f"span {s} fired {names[s][0]} times" for s in names
                 if s.startswith(wl.forbid_spans)]
    failures += coverage

    def calls(name):
        return names.get(name, (0, 0.0))[0]

    def secs(name):
        return names.get(name, (0, 0.0))[1]

    near = wl.near_pairs(out2)
    cand = useful = 0
    for qid, cids in tracer.candidates:
        cand += len(cids)
        useful += sum((min(qid, c), max(qid, c)) in near for c in cids)
    verified = tracer.join_verifications()
    unique = len({(min(a, b), max(a, b)) for a, b in verified})
    index_mb, index_file_mb = index_size(wl, state, workdir)
    op_calls = base.calls[setup_calls:]
    queries = [s * 1e3 for label, s in op_calls if label == "query"]
    hist = out2.get("hist", {})

    m = {
        "curves.parse_s": secs("curves.parse"),
        "curves.simplify_calls": calls("curves.simplify"),
        "curves.simplify_s": secs("curves.simplify"),
        "lsh.build_s": secs("lsh.build"),
        "lsh.grid_evals": tracer.counts["lsh.grid_evals"],
        "lsh.snap_calls": calls("lsh.snap"),
        "lsh.snap_s": secs("lsh.snap"),
        "lsh.score_calls": calls("lsh.score"),
        "lsh.score_s": secs("lsh.score"),
        "lsh.candidates": cand,
        "lsh.candidate_near_ratio": useful / cand if cand else 0.0,
        "lsh.save_s": secs("lsh.save"),
        "lsh.load_s": secs("lsh.load"),
        "lsh.index_mb": index_mb,
        "lsh.index_file_mb": index_file_mb,
    }
    unknown = set(hist) - set(STAGE_BUCKETS)
    if unknown:
        failures.append(f"unexpected stage buckets {sorted(unknown)}")
    m.update({f"frechet.decided.{b}": hist.get(b, 0) for b in STAGE_BUCKETS})
    for fn in CASCADE:
        m[f"frechet.{fn}.calls"] = calls(f"frechet.{fn}")
        m[f"frechet.{fn}.s"] = secs(f"frechet.{fn}")
    m.update({
        "frechet.verify_calls": len(verified),
        "frechet.verify_per_pair": len(verified) / unique if unique else 0.0,
        "frechet.verify_self_s": secs("frechet.verify"),
        "frechet.decide_grid_cells": tracer.counts["frechet.decide_grid_cells"],
        "engine.range_query_self_s": secs("engine.range_query"),
        "engine.merge_s": secs("engine.self_join"),
        "engine.exact_join_self_s": secs("engine.exact_join"),
        "engine.percentile_radius_self_s": secs("engine.percentile_radius"),
        "engine.estimate_calls": calls("engine.estimate"),
        "engine.estimate_self_s": secs("engine.estimate"),
    })
    m.update({f"op.{op}_s": sum(s for label, s in op_calls if label == op) for op in OPS})
    m.update({
        "op.query_p50_ms": statistics.median(queries) if queries else 0.0,
        "op.query_p95_ms": statistics.quantiles(queries, n=20)[-1] if len(queries) > 1 else 0.0,
        "op.queries": len(queries),
    })
    attributed = tracer.root_seconds()
    m.update({
        "trace.untraced_s": base.total(),
        "trace.traced_s": timer.total(),
        "trace.overhead_s": timer.total() - base.total(),
        "trace.attributed_s": attributed,
        "trace.unattributed_s": timer.total() - attributed,
        "trace.spans": len(tracer.spans),
        "trace.coverage_errors": len(coverage),
    })
    attempted = len(base.calls) + len(timer.calls)
    m["error_rate"] = len(failures) / attempted
    report.update(digest=digest(out2), spans_by_name={k: list(v) for k, v in sorted(names.items())})

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}-seed{wl.seed}.json.gz")
    return m, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_ENV:
        os.environ[var] = "1"
    # a terminated run still removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "curvejoin" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "machine": machine_facts()}
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        if args.trace:
            metrics, attempted, failures = traced(wl, workdir, report)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, attempted, failures = measure(wl, args.seconds, report)
            units = dict(END_TO_END)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    report["failures"] = failures
    for msg in failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report["metrics"] = metrics
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
