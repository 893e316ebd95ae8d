"""The benchmark at its quick size, end to end, so the harness cannot rot.

Each workload runs through benchmarks/run.py exactly as the benchmark
command does (CLI subprocesses at --jobs 1 and --jobs N, output checks,
pinned digests, the traced pass and its shape check), only on corpora a
tenth of the full size and with a one-second timed loop.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import CorpusParams, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "thread_model.parse_thread_line.lines",
    "thread_model.parse_thread_line.rejected",
    "thread_model.filter_corpus.dropped",
    "graphs.build_user_graph.users",
    "graphs.build_user_graph.edges",
    "motif_census.motif_instances.pairs",
    "motif_census.motif_instances.instances",
    "macro_metrics.op_betweenness.sources_reaching_anchor",
    "expression_stats.unbinned_focus",
    "expression_stats.unbinned_baseline",
    "cli.output_bytes",
)


def run_bench(tmp_path, *args, cwd=ROOT, script=ROOT / "benchmarks" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--size", "quick", "--seconds", "1",
         "--work", str(tmp_path / "work"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced quick run per workload, shared by the tests below."""
    return {
        name: result_of(run_bench(tmp_path_factory.mktemp(name), "--workload", name, "--trace", "1"))
        for name in WORKLOADS
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct_and_complete(traced, workload):
    result = traced[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_exact_counts_repeat(traced, tmp_path):
    again = result_of(run_bench(tmp_path, "--workload", "census-compare", "--trace", "1"))
    first = traced["census-compare"]["metrics"]
    for name in EXACT_COUNTS:
        assert again["metrics"][name] == first[name], name
    assert first["thread_model.parse_thread_line.rejected"]["value"] > 0
    assert first["expression_stats.unbinned_focus"]["value"] > 0


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    result = result_of(run_bench(tmp_path, "--workload", "census-compare", "--trace", "0", "--seed", "7"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    assert metrics["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    shutil.copy(HERE / "digests.json", tmp_path / "benchmarks")
    proc = run_bench(tmp_path, "--workload", "census-compare", cwd=tmp_path,
                     script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corpus_is_seeded_and_valid_utf8():
    params = CorpusParams(
        n_threads=200, size_alpha=1.3, size_min=5, size_cap=100, users_exponent=0.8,
        op_reply_back=0.3, root_reply=0.4, focus_share=0.5, malformed_frac=0.05,
        nonascii_frac=0.3, deleted_root_frac=0.05,
    )
    first = list(generate(params, 3))
    assert first == list(generate(params, 3))
    assert first != list(generate(params, 4))
    data = "\n".join(first).encode("utf-8")
    assert data.decode("utf-8") == "\n".join(first)
    assert any(b >= 0x80 for b in data)
    bad = 0
    for line in first:
        try:
            json.loads(line)
        except json.JSONDecodeError:
            bad += 1
    assert bad > 0
