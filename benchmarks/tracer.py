"""Run one threadmotifs command in-process with a span around each public call.

Usage: python benchmarks/tracer.py SPANS_JSON POOL_JOBS CLI_ARG...

The benchmark runs this instead of ``python -m threadmotifs.cli`` for its
traced pass (with ``--jobs 1`` in CLI_ARG, so every call happens in this
process). It replaces the traced functions in every module that refers to
them, so calls between modules are seen too. Each call records one span
(name, start, end, parent) and, at the same boundary, counts of the work
it did and checks of its result against an independent computation. The
spans stay in memory and are written to SPANS_JSON when the command ends.
Counts and checks run outside the spans, only after calls that return;
their time and the pickling measurement are reported as ``check_s``, so
they can be subtracted from the traced wall time.

POOL_JOBS is the ``--jobs N`` of the untraced runs: the filtered threads
are pickled in the chunks that ``--jobs N`` would ship to its workers.
"""

from __future__ import annotations

import json
import math
import pickle
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import threadmotifs
from threadmotifs import cli, expression_stats, graphs, macro_metrics, motif_census, thread_model

TRACED = {
    thread_model: ("parse_thread_line", "filter_corpus"),
    graphs: ("build_user_graph", "build_reply_graph", "degree_sequences"),
    motif_census: ("census_fast", "motif_instances", "completion_fractions"),
    macro_metrics: (
        "op_betweenness",
        "responsiveness_median",
        "reciprocity",
        "branching_factor",
        "ecdf",
    ),
    expression_stats: ("assign_bins", "fit_null_model", "z_scores", "classify_expression"),
    cli: ("read_census_csv",),
}
MODULES = (threadmotifs, *TRACED)
# Every NAIVE_EVERY-th census_fast call is compared with census_naive.
NAIVE_EVERY = 25
# Unpatched functions, for the independent checks.
CENSUS_NAIVE = motif_census.census_naive
MOTIF_INSTANCES = motif_census.motif_instances


def _reaching_anchor(g) -> int:
    """Nodes other than the anchor with a directed path to it (reverse BFS)."""
    preds = defaultdict(list)
    for u, v in g.edges:
        preds[v].append(u)
    seen = {g.anchor}
    stack = [g.anchor]
    while stack:
        for u in preds[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) - 1


class Tracer:
    def __init__(self, argv: list[str]):
        self.argv = argv
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.failures: list[str] = []
        self.check_s = 0.0
        self.filtered = None
        self.top_instances: dict[int, int] = {}
        self.census_paths: dict[int, str] = {}

    def install(self) -> None:
        for module, fn_names in TRACED.items():
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                observe = getattr(self, f"_on_{fn_name}", None)
                traced = self._wrap(f"{module.__name__.split('.')[-1]}.{fn_name}", original, observe)
                for other in MODULES:
                    if getattr(other, fn_name, None) is original:
                        setattr(other, fn_name, traced)

    def _wrap(self, name, fn, observe):
        name_id = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index] = [name_id, start, end, parent]
            if observe is not None:
                observe(args, result)
                self.check_s += time.perf_counter() - end
            return result

        return traced

    def _fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        self.counters["check.failures"] += 1

    def _on_parse_thread_line(self, args, result):
        self.counters["thread_model.parse_thread_line.accepted"] += 1
        self.counters["thread_model.parse_thread_line.posts"] += len(result.posts)

    def _on_filter_corpus(self, args, result):
        self.counters["thread_model.filter_corpus.dropped"] += len(args[0]) - len(result)
        self.filtered = result

    def _on_build_user_graph(self, args, result):
        self.counters["graphs.build_user_graph.users"] += result.n_users
        self.counters["graphs.build_user_graph.edges"] += result.n_edges

    def _on_census_fast(self, args, result):
        g, table = args
        self.counters["motif_census.census_fast.checked"] += 1
        if result.total != math.comb(g.n_users - 1, 2):
            self._fail(f"census_fast total {result.total} != C({g.n_users - 1}, 2)")
        sampled = self.counters["motif_census.census_fast.checked"] % NAIVE_EVERY == 1
        if sampled and result != CENSUS_NAIVE(g, table):
            self._fail(f"census_fast differs from census_naive on {g.n_users} users")

    def _on_motif_instances(self, args, result):
        g = args[0]
        self.counters["motif_census.motif_instances.pairs"] += math.comb(g.n_users - 1, 2)
        self.counters["motif_census.motif_instances.instances"] += len(result)
        if not self.stack:
            self.top_instances[id(g)] = len(result)

    def _on_completion_fractions(self, args, result):
        g, cls = args[0], args[1]
        expected = self.top_instances.pop(id(g), None)
        if expected is None:
            expected = len(MOTIF_INSTANCES(g, cls))
        if len(result) != expected:
            self._fail(f"{len(result)} completion fractions for {expected} instances")
        self.counters["motif_census.completion_fractions.checked"] += 1

    def _on_op_betweenness(self, args, result):
        g = args[0]
        if g.n_users > 2:
            self.counters["macro_metrics.op_betweenness.sources"] += g.n_users - 1
            self.counters["macro_metrics.op_betweenness.sources_reaching_anchor"] += (
                _reaching_anchor(g)
            )

    def _on_read_census_csv(self, args, result):
        self.census_paths[id(result)] = str(args[0])

    def _on_assign_bins(self, args, result):
        path = self.census_paths.get(id(args[0]))
        focus = self.argv[self.argv.index("--focus") + 1]
        side = "focus" if path == str(Path(focus)) else "baseline"
        self.counters[f"expression_stats.unbinned_{side}"] += len(result.unbinned)

    def measure_pickling(self, jobs: int) -> None:
        """Size and time of the filtered threads as --jobs N would pickle them."""
        items = self.filtered
        if items is None or len(items) < 2 or jobs <= 1:
            return
        chunk = max(1, len(items) // (jobs * 8))
        start = time.perf_counter()
        size = sum(
            len(pickle.dumps(items[i : i + chunk])) for i in range(0, len(items), chunk)
        )
        elapsed = time.perf_counter() - start
        self.check_s += elapsed
        self.counters["cli.pool.pickle_bytes"] += size
        self.counters["cli.pool.pickle_s"] += elapsed


def main() -> int:
    spans_path, jobs, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(argv)
    tracer.install()
    code = cli.main(argv)
    tracer.measure_pickling(jobs)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit": code,
                "names": tracer.names,
                "spans": tracer.spans,
                "counters": tracer.counters,
                "failures": tracer.failures,
                "check_s": tracer.check_s,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
