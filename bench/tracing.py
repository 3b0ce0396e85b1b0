"""Layer trace of one benchmark pass, installed from outside the library.

The traced run replaces curvejoin functions where the library looks them
up (module attributes) with wrappers that record one span per call --
name, start, end and the enclosing span -- plus counts taken from the
call's arguments and result. The source tree is never modified, and
`uninstall` puts every original back. Spans stay in memory until the run
writes them out at exit.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter

# The seven cascade functions whose calls and self time are reported.
CASCADE = (
    "endpoints_filter",
    "bbox_filter",
    "verify_simpl",
    "equal_time_upper",
    "greedy_upper",
    "negative_filter",
    "decide_continuous",
)

# (module, attribute, span name). A name reached through two modules --
# the library imports some functions by name -- is wrapped in both.
PATCH_POINTS = (
    ("curves", "parse_series_1d", "curves.parse"),
    ("curves", "parse_trajectories_2d", "curves.parse"),
    ("frechet", "simplify", "curves.simplify"),
    ("lsh", "snap_signature", "lsh.snap"),
    ("lsh", "build_index", "lsh.build"),
    ("engine", "build_index", "lsh.build"),
    ("engine", "query_scores", "lsh.score"),
    ("lsh", "save_index", "lsh.save"),
    ("lsh", "load_index", "lsh.load"),
    ("engine", "range_query", "engine.range_query"),
    ("engine", "self_join", "engine.self_join"),
    ("engine", "exact_join", "engine.exact_join"),
    ("engine", "percentile_radius", "engine.percentile_radius"),
    ("engine", "estimate_continuous", "engine.estimate"),
    ("engine", "verify", "frechet.verify"),
    ("frechet", "verify", "frechet.verify"),
) + tuple(("frechet", fn, f"frechet.{fn}") for fn in CASCADE)


class Tracer:
    """Spans and counts of the wrapped calls, in call order.

    A span row is [name, start, end, parent index, extra]; parents always
    precede their children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.candidates: list[tuple[int, list[int]]] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in PATCH_POINTS:
            module = importlib.import_module(f"curvejoin.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(row)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(row, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Counts recorded at the boundary where the work happens.

    def _count_lsh_snap(self, row, args, result):
        self.counts["lsh.grid_evals"] += len(args[0])

    def _count_lsh_score(self, row, args, result):
        qid = args[1].id
        self.candidates.append((qid, [c.curve_id for c in result if c.curve_id != qid]))

    def _count_frechet_verify(self, row, args, result):
        row[4] = (args[0].id, args[1].id)

    def _count_frechet_decide_continuous(self, row, args, result):
        self.counts["frechet.decide_grid_cells"] += len(args[0]) * len(args[1])

    # Aggregates.

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                own[row[3]] -= row[2] - row[1]
        return own

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self seconds)."""
        calls: Counter = Counter()
        secs: dict[str, float] = {}
        for row, own in zip(self.spans, self.self_times()):
            calls[row[0]] += 1
            secs[row[0]] = secs.get(row[0], 0.0) + own
        return {name: (calls[name], secs[name]) for name in calls}

    def join_verifications(self) -> list[tuple[int, int]]:
        """The (p, q) ids of every verify call made inside a self join."""
        inside = [False] * len(self.spans)
        out = []
        for i, row in enumerate(self.spans):
            parent = row[3]
            inside[i] = row[0] == "engine.self_join" or (parent >= 0 and inside[parent])
            if row[0] == "frechet.verify" and inside[i]:
                out.append(row[4])
        return out

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans (the sum of all self times)."""
        return sum(row[2] - row[1] for row in self.spans if row[3] < 0)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[r[0], r[1] - t0, r[2] - t0, r[3]] for r in self.spans]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
