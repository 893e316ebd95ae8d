"""threadmotifs benchmark: the paper's batch pipelines, run end to end.

Usage:
    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1] [--size full|quick] [--work DIR]

Each workload is a fixed sequence of CLI commands over corpora generated
from the seed (see corpus.py). A single closed-loop client runs one CLI
process at a time (``python -m threadmotifs.cli`` with ``PYTHONPATH=src``),
alternating the whole sequence at ``--jobs 1`` and at ``--jobs N``, where N
is the number of processors this process may use, until ``--seconds`` have
passed. Wall time, CPU time and peak RSS of every command come from its own
``os.wait4`` rusage; the end-to-end times are then scaled to a reference
host speed (see CALIBRATION). Before the timed loop the sequence runs once at
``--jobs 1`` to warm caches, and five times on an empty corpus to measure
set-up time.

Every command run is checked: exit code 0, data CSVs byte-identical
to the first ``--jobs 1`` run (and to the digests pinned in digests.json for
that workload, size and seed), and each census row summing to
C(n_users - 1, 2). A run that fails any check counts in ``failed``.

With ``--trace 1`` the sequence also runs once through tracer.py, which
records a span around each call into the package's public functions, and
the per-layer metrics are printed instead of the end-to-end ones. The
traced run must have the workload's shape: its designated layer has the
largest self time, and the layers it never exercises record no calls.

The last line of standard output is the result object; the line before
it records the environment, sample counts, corpora and output digests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

from corpus import CorpusParams, write_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEFAULT_SEED = 1
QUICK_DIVISOR = 10  # the quick size keeps 1/QUICK_DIVISOR of the threads
LOOP_LIMIT_S = 120.0  # the timed loop never starts a sequence after this
CLI_COMMANDS = ("census", "compare", "macro", "degrees", "timing")
# End-to-end times are reported at a reference host speed. On a shared host
# the speed of fresh Python processes drifts by tens of percent over
# minutes, for reasons outside the program. So around every timed command
# sequence the benchmark times CALIBRATION, a fixed pure-Python program,
# run as fresh processes like the CLI commands (one at --jobs 1, N side by
# side at --jobs N), and scales the sequence's wall time by
# CALIBRATION_REF_S over the mean calibration time before and after it.
# The raw times are in the record line.
CALIBRATION = """
import json
line = json.dumps({"posts": [{"id": f"p{i}", "parent": f"p{i // 2}", "author": f"u{i % 7}", "t": i}
                             for i in range(40)]})
for _ in range(2500):
    users = {}
    for post in json.loads(line)["posts"]:
        users.setdefault(post["author"], len(users))
"""
CALIBRATION_REF_S = 0.25
EXPRESSION_STATS = (
    "expression_stats.assign_bins",
    "expression_stats.fit_null_model",
    "expression_stats.z_scores",
    "expression_stats.classify_expression",
)
MACRO_METRICS = (
    "macro_metrics.op_betweenness",
    "macro_metrics.responsiveness_median",
    "macro_metrics.reciprocity",
    "macro_metrics.branching_factor",
    "macro_metrics.ecdf",
)

Steps = Callable[[dict, Path, str], list]


@dataclass(frozen=True)
class Workload:
    name: str
    corpora: dict  # corpus name -> CorpusParams
    steps: Steps  # (corpus paths, output root, jobs) -> [(command, argv, out dir)]
    designated: tuple  # spans whose summed self time must be the largest layer
    never_called: tuple  # spans that must record no calls


def _census_compare(inputs, out, jobs):
    return [
        ("census", ["census", "--input", inputs["focus"], "--out", out / "focus", "--jobs", jobs], out / "focus"),
        ("census", ["census", "--input", inputs["baseline"], "--out", out / "baseline", "--jobs", jobs], out / "baseline"),
        ("compare", ["compare", "--focus", out / "focus" / "census.csv",
                     "--baseline", out / "baseline" / "census.csv", "--out", out / "compare"], out / "compare"),
    ]


def _macro_degrees_timing(inputs, out, jobs):
    return [
        ("macro", ["macro", "--input", inputs["heavy"], "--out", out / "macro", "--jobs", jobs], out / "macro"),
        ("degrees", ["degrees", "--input", inputs["heavy"], "--out", out / "degrees", "--jobs", jobs], out / "degrees"),
        ("timing", ["timing", "201-b", "--input", inputs["midsize"], "--out", out / "timing", "--jobs", jobs], out / "timing"),
    ]


# Many small-to-mid threads, mostly inside the default 1-40 user bins with a
# tail above; the focus side answers its repliers more often (the planted
# signal). Parsing dominates.
CENSUS_SIDE = CorpusParams(
    n_threads=4000, size_alpha=1.3, size_min=5, size_cap=400, users_exponent=0.8,
    op_reply_back=0.35, root_reply=0.4, focus_share=1.0, malformed_frac=0.01,
    nonascii_frac=0.1, deleted_root_frac=0.02, id_prefix="f",
)
WORKLOADS = {
    "census-compare": Workload(
        "census-compare",
        {
            "focus": CENSUS_SIDE,
            "baseline": replace(CENSUS_SIDE, op_reply_back=0.15, focus_share=0.0, id_prefix="b"),
        },
        _census_compare,
        designated=("thread_model.parse_thread_line",),
        never_called=(*MACRO_METRICS, "motif_census.motif_instances"),
    ),
    # The per-thread pipelines. macro and degrees read a heavy-tailed corpus
    # with up to hundreds of users per thread and heavy author reuse, so
    # op_betweenness (a BFS from every user) dominates; degrees adds a
    # per-node write stream. timing 201-b reads mid-size threads whose OP
    # answers often, so the O(users^2) instance scan and the instance rows
    # are its cost.
    "macro-degrees-timing": Workload(
        "macro-degrees-timing",
        {
            "heavy": CorpusParams(
                n_threads=1000, size_alpha=1.1, size_min=6, size_cap=1500, users_exponent=0.75,
                op_reply_back=0.25, root_reply=0.3, focus_share=0.5, malformed_frac=0.01,
                nonascii_frac=0.1, deleted_root_frac=0.02, id_prefix="m",
            ),
            "midsize": CorpusParams(
                n_threads=200, size_alpha=3.0, size_min=60, size_cap=250, users_exponent=0.85,
                op_reply_back=0.45, root_reply=0.5, focus_share=1.0, malformed_frac=0.01,
                nonascii_frac=0.1, deleted_root_frac=0.0, id_prefix="x",
            ),
        },
        _macro_degrees_timing,
        designated=("macro_metrics.op_betweenness",),
        never_called=("motif_census.census_fast", *EXPRESSION_STATS),
    ),
}


@dataclass
class Run:
    """One command run: its wall time, CPU time and peak RSS."""

    command: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ref_wall_s: float = 0.0  # wall_s at the reference host speed


class Bench:
    def __init__(self, workload: Workload, seed: int, size: str, work: Path):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work / f"{workload.name}-{size}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.jobs_n = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Pinned digests for this workload, size and seed; otherwise the
        # first checked run of each file sets them.
        self.expected = self._pinned_digests()
        self.content_ok: dict[str, bool] = {}  # sha256 -> content check result
        self.corpora_meta: dict = {}
        self.speeds: list[float] = []  # calibration time over CALIBRATION_REF_S

    # --- inputs -----------------------------------------------------------

    def _params(self) -> dict:
        corpora = self.workload.corpora
        if self.size == "quick":
            corpora = {
                name: replace(p, n_threads=max(20, p.n_threads // QUICK_DIVISOR))
                for name, p in corpora.items()
            }
        return corpora

    def make_corpora(self, cache: Path) -> dict:
        """Generate (or reuse) this run's corpora; drop other cached ones."""
        cache.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, params in self._params().items():
            key = hashlib.sha256(
                json.dumps([asdict(params), self.seed], sort_keys=True).encode()
            ).hexdigest()[:16]
            path = cache / f"{key}.jsonl"
            meta_path = cache / f"{key}.json"
            if not (path.is_file() and meta_path.is_file()):
                meta_path.write_text(json.dumps(write_corpus(path, params, self.seed)))
            self.corpora_meta[name] = json.loads(meta_path.read_text())
            paths[name] = path
        keep = {p.name for p in paths.values()} | {p.with_suffix(".json").name for p in paths.values()}
        keep.add("empty.jsonl")
        for stale in cache.iterdir():
            if stale.name not in keep:
                stale.unlink()
        (cache / "empty.jsonl").write_bytes(b"")
        return paths

    def _pinned_digests(self) -> dict:
        with open(HERE / "digests.json", encoding="utf-8") as fh:
            pinned = json.load(fh)
        return pinned.get(f"{self.workload.name}/{self.size}/{self.seed}", {})

    # --- running ------------------------------------------------------------

    def _steps(self, inputs: dict, out: Path, jobs: str) -> list:
        if out.exists():
            shutil.rmtree(out)
        out.mkdir(parents=True)
        return [
            (command, [str(a) for a in argv], out_dir)
            for command, argv, out_dir in self.workload.steps(inputs, out, jobs)
        ]

    def _spawn(self, argv: list) -> tuple[int, float, float, float]:
        """Run one process to completion: (exit code, wall s, CPU s, peak RSS MB)."""
        stderr_path = self.work / "stderr.txt"
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace").splitlines()[-3:]
            self.error(f"{' '.join(argv[1:4])}... exited {code}: {' | '.join(tail)}")
        # ru_maxrss (KiB) is the largest resident set of the process or of any
        # descendant it waited for, so pool workers are included.
        return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def run_sequence(self, inputs: dict, out: Path, jobs: str, tracer_spans: Path | None = None,
                     check: bool = True) -> list[Run]:
        runs = []
        for i, (command, argv, out_dir) in enumerate(self._steps(inputs, out, jobs)):
            if tracer_spans is None:
                prefix = [sys.executable, "-m", "threadmotifs.cli"]
            else:
                prefix = [sys.executable, str(HERE / "tracer.py"), str(tracer_spans / f"{i}.json"), str(self.jobs_n)]
            code, wall, cpu, rss = self._spawn(prefix + argv)
            ok = code == 0 and (not check or self._check_outputs(out, out_dir))
            self.attempted += 1
            self.failed += not ok
            runs.append(Run(command, wall, cpu, rss))
        return runs

    def calibrate(self, jobs: str) -> float:
        """Seconds until `jobs` CALIBRATION processes started together have all ended."""
        start = time.perf_counter()
        procs = [
            subprocess.Popen([sys.executable, "-c", CALIBRATION], stdout=subprocess.DEVNULL, env=self.env)
            for _ in range(int(jobs))
        ]
        for proc in procs:
            if proc.wait() != 0:
                raise RuntimeError("calibration program failed")
        return time.perf_counter() - start

    def run_calibrated(self, inputs: dict, out: Path, jobs: str, check: bool = True) -> list[Run]:
        """run_sequence, with each run's wall time also at the reference speed."""
        before = self.calibrate(jobs)
        runs = self.run_sequence(inputs, out, jobs, check=check)
        speed = (before + self.calibrate(jobs)) / 2 / CALIBRATION_REF_S
        self.speeds.append(speed)
        for run in runs:
            run.ref_wall_s = run.wall_s / speed
        return runs

    # --- output checks ----------------------------------------------------

    def digests(self, out: Path) -> dict:
        return {str(path.relative_to(out)): _sha256(path) for path in sorted(out.rglob("*.csv"))}

    def _check_outputs(self, out: Path, out_dir: Path) -> bool:
        files = sorted(out_dir.glob("*.csv"))
        if not files:
            self.error(f"{out_dir.name}: no data CSVs written")
            return False
        ok = True
        for path in files:
            rel = str(path.relative_to(out))
            digest = _sha256(path)
            want = self.expected.setdefault(rel, digest)
            if digest != want:
                self.error(f"{rel}: sha256 {digest[:12]} differs from {want[:12]}")
                ok = False
            else:
                if digest not in self.content_ok:
                    self.content_ok[digest] = self._check_content(path)
                ok = self.content_ok[digest] and ok
        return ok

    def _check_content(self, path: Path) -> bool:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            if path.name == "census.csv":
                for row in rows:
                    if sum(map(int, row[4:])) != math.comb(int(row[2]) - 1, 2):
                        self.error(f"census.csv: row {row[0]} does not sum to C(n_users - 1, 2)")
                        return False
            if path.name == "timing.csv":
                kind = None
                for kind, _, _, _, fraction in rows:
                    if not 0.0 <= float(fraction) <= 1.0:
                        self.error(f"timing.csv: fraction {fraction} outside [0, 1]")
                        return False
                if kind not in (None, "median"):
                    self.error("timing.csv: instances but no median row")
                    return False
        return True


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _stats(values: list) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"n": len(values), "min": min(values), "p25": q[0], "median": q[1], "p75": q[2]}


def _per_command(sequences: list[list[Run]], command: str) -> float:
    return _median([sum(r.wall_s for r in seq if r.command == command) for seq in sequences])


def _span_summary(spans_dir: Path) -> tuple[dict, dict, list]:
    """Per span name: calls, inclusive busy and self time; plus counters and check s."""
    summary: dict = {}
    counters: dict = {}
    check_s = []
    failures = []
    for path in sorted(spans_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        names, spans = data["names"], data["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(spans):
            entry = summary.setdefault(names[name_id], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "top_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            if parent < 0:
                entry["top_s"] += end - start
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        check_s.append(data["check_s"])
        failures.extend(data["failures"])
    counters["trace.check_s"] = sum(check_s)
    return summary, counters, failures


def layer_metrics(bench: Bench, spans: dict, counters: dict, traced: list[Run],
                  j1: list[list[Run]], jn: list[list[Run]], setup_s: float, output_bytes: int) -> dict:
    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def count(name):
        return counters.get(name, 0)

    busy_total = sum(entry["top_s"] for entry in spans.values())
    wall_j1 = _median([sum(r.wall_s for r in seq) for seq in j1])
    traced_total = sum(r.wall_s for r in traced) - counters["trace.check_s"]
    lines = spans.get("thread_model.parse_thread_line", {}).get("calls", 0)
    pairs = count("motif_census.motif_instances.pairs")
    sources = count("macro_metrics.op_betweenness.sources")
    m = {
        "thread_model.parse_thread_line.busy_s": busy("thread_model.parse_thread_line"),
        "thread_model.parse_thread_line.lines": lines,
        "thread_model.parse_thread_line.posts": count("thread_model.parse_thread_line.posts"),
        "thread_model.parse_thread_line.rejected": lines - count("thread_model.parse_thread_line.accepted"),
        "thread_model.filter_corpus.busy_s": busy("thread_model.filter_corpus"),
        "thread_model.filter_corpus.dropped": count("thread_model.filter_corpus.dropped"),
        "graphs.build_user_graph.busy_s": busy("graphs.build_user_graph"),
        "graphs.build_user_graph.users": count("graphs.build_user_graph.users"),
        "graphs.build_user_graph.edges": count("graphs.build_user_graph.edges"),
        "graphs.build_reply_graph.busy_s": busy("graphs.build_reply_graph"),
        "graphs.degree_sequences.busy_s": busy("graphs.degree_sequences"),
        "motif_census.census_fast.busy_s": busy("motif_census.census_fast"),
        "motif_census.motif_instances.busy_s": busy("motif_census.motif_instances"),
        "motif_census.motif_instances.pairs": pairs,
        "motif_census.motif_instances.instances": count("motif_census.motif_instances.instances"),
        "motif_census.motif_instances.yield": (
            count("motif_census.motif_instances.instances") / pairs if pairs else 0.0
        ),
        "motif_census.completion_fractions.busy_s": busy("motif_census.completion_fractions"),
        "macro_metrics.op_betweenness.busy_s": busy("macro_metrics.op_betweenness"),
        "macro_metrics.op_betweenness.sources": sources,
        "macro_metrics.op_betweenness.sources_reaching_anchor": count(
            "macro_metrics.op_betweenness.sources_reaching_anchor"
        ),
        "macro_metrics.op_betweenness.reaching_share": (
            count("macro_metrics.op_betweenness.sources_reaching_anchor") / sources if sources else 0.0
        ),
        "macro_metrics.responsiveness_median.busy_s": busy("macro_metrics.responsiveness_median"),
        "macro_metrics.reciprocity.busy_s": busy("macro_metrics.reciprocity"),
        "macro_metrics.branching_factor.busy_s": busy("macro_metrics.branching_factor"),
        "macro_metrics.ecdf.busy_s": busy("macro_metrics.ecdf"),
        "expression_stats.busy_s": sum(busy(name) for name in EXPRESSION_STATS),
        "expression_stats.unbinned_focus": count("expression_stats.unbinned_focus"),
        "expression_stats.unbinned_baseline": count("expression_stats.unbinned_baseline"),
        "cli.read_census_csv.busy_s": busy("cli.read_census_csv"),
        "cli.pool.pickle_bytes": count("cli.pool.pickle_bytes"),
        "cli.pool.pickle_s": count("cli.pool.pickle_s"),
        "cli.output_bytes": output_bytes,
        "cli.residual_s": wall_j1 - setup_s - busy_total,
        "run.cpu_j1_s": _median([sum(r.cpu_s for r in seq) for seq in j1]),
        "run.cpu_jN_s": _median([sum(r.cpu_s for r in seq) for seq in jn]),
        "trace.overhead_s": traced_total - wall_j1,
        "trace.designated_share": (
            sum(spans.get(n, {}).get("self_s", 0.0) for n in bench.workload.designated) / busy_total
            if busy_total else 0.0
        ),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.wall_j1_s"] = _per_command(j1, command)
        m[f"cli.{command}.wall_jN_s"] = _per_command(jn, command)
    return m


def shape_errors(workload: Workload, spans: dict) -> list[str]:
    """Why the traced run does not have the workload's intended shape, if it does not."""
    errors = []
    self_s = {name: entry["self_s"] for name, entry in spans.items()}
    designated = sum(self_s.get(name, 0.0) for name in workload.designated)
    others = {name: s for name, s in self_s.items() if name not in workload.designated}
    if others:
        top = max(others, key=others.get)
        if others[top] >= designated:
            errors.append(
                f"designated layer {'+'.join(workload.designated)} ({designated:.3f} s) "
                f"is not the largest: {top} took {others[top]:.3f} s"
            )
    for name in workload.never_called:
        if spans.get(name, {}).get("calls", 0):
            errors.append(f"{name} was called {spans[name]['calls']} times")
    return errors


def _git_rev() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "quick"), default="full")
    parser.add_argument("--work", type=Path, default=HERE / "_work", help="scratch directory")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "threadmotifs" / "cli.py").is_file():
        print(f"error: no threadmotifs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed, args.size, args.work)
    bench.work.mkdir(parents=True, exist_ok=True)
    inputs = bench.make_corpora(args.work / "corpora")
    empty = {name: args.work / "corpora" / "empty.jsonl" for name in inputs}
    jobs_n = str(bench.jobs_n)
    j1_out, jn_out = bench.work / "j1", bench.work / "jN"

    # Warm-up: fills the page and bytecode caches and fixes the reference
    # digests (unless pinned) before anything is timed.
    bench.run_sequence(inputs, j1_out, "1")
    output_bytes = sum(p.stat().st_size for p in j1_out.rglob("*.csv"))
    setup = [
        bench.run_calibrated(empty, bench.work / "setup", "1", check=False) for _ in range(SETUP_RUNS)
    ]
    setup_s = _median([sum(r.wall_s for r in seq) for seq in setup])

    traced: list[Run] = []
    spans: dict = {}
    counters: dict = {}
    shape: list[str] = []
    if args.trace:
        spans_dir = bench.work / "spans"
        if spans_dir.exists():
            shutil.rmtree(spans_dir)
        spans_dir.mkdir()
        traced = bench.run_sequence(inputs, bench.work / "trace", "1", tracer_spans=spans_dir)
        spans, counters, trace_failures = _span_summary(spans_dir)
        shape = shape_errors(workload, spans) + trace_failures
        for message in shape:
            bench.error(f"trace: {message}")
        if shape:
            bench.failed += 1

    # The timed loop: j1, jN, jN, j1, j1, jN, ... so neither setting always
    # runs first, until --seconds have passed and both have a sample.
    j1: list[list[Run]] = []
    jn: list[list[Run]] = []
    start = time.monotonic()
    while not (j1 and jn) or time.monotonic() - start < args.seconds:
        if time.monotonic() - start > LOOP_LIMIT_S:
            break
        if (len(j1) + len(jn)) % 4 in (0, 3):
            j1.append(bench.run_calibrated(inputs, j1_out, "1"))
        else:
            jn.append(bench.run_calibrated(inputs, jn_out, jobs_n))

    samples = {
        "wall_j1_s": [sum(r.ref_wall_s for r in seq) for seq in j1],
        "wall_jN_s": [sum(r.ref_wall_s for r in seq) for seq in jn],
        "peak_rss_j1_mb": [max(r.rss_mb for r in seq) for seq in j1],
        "peak_rss_jN_mb": [max(r.rss_mb for r in seq) for seq in jn],
        "setup_s": [sum(r.ref_wall_s for r in seq) for seq in setup],
    }
    raw = {
        "wall_j1_s": [sum(r.wall_s for r in seq) for seq in j1],
        "wall_jN_s": [sum(r.wall_s for r in seq) for seq in jn],
        "setup_s": [sum(r.wall_s for r in seq) for seq in setup],
        "host_speed": bench.speeds,
    }
    stats = {name: _stats(v) for name, v in samples.items()}
    if args.trace:
        values = layer_metrics(bench, spans, counters, traced, j1, jn, setup_s, output_bytes)
        listed = spec["per_layer"]
    else:
        values = {name: stat["median"] for name, stat in stats.items()}
        values["ok_frac"] = (bench.attempted - bench.failed) / bench.attempted
        listed = spec["end_to_end"]

    record = {
        "workload": workload.name,
        "size": args.size,
        "seed": args.seed,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "nproc": bench.jobs_n,
        "jobs_n": bench.jobs_n,
        "samples": {"j1": len(j1), "jN": len(jn), "setup": len(setup), "traced": len(traced)},
        "stats": stats,
        "raw_stats": {name: _stats(v) for name, v in raw.items()},
        "bench_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "corpora": bench.corpora_meta,
        "digests": bench.digests(j1_out),
        "errors": bench.errors,
        "layers": spans,
    }
    for message in bench.errors:
        print(f"benchmark: {message}", file=sys.stderr)
    print(json.dumps({"record": record}))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
