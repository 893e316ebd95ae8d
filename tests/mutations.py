"""Mutation checks that can be re-run: each edit to src/ must fail its tests.

Each entry of MUTATIONS changes one place in one file of src/ and names the
tests that must fail on that change. The runner copies src/, tests/ and
pyproject.toml into a temporary directory, applies one edit at a time there,
and runs the named tests with ``pytest -x`` inside the copy. pytest must run
inside the copy: pyproject.toml's ``pythonpath`` puts the checkout's own
``src`` ahead of PYTHONPATH, so a run pointed at another tree by PYTHONPATH
alone imports this one.

The run fails if an entry's old text does not occur exactly once in its
file (the code has moved, so the entry needs updating), or if the named
tests pass on an edit (the mutation survived). Run it from anywhere:

    python tests/mutations.py

Its name does not match ``test_*.py``, so a plain ``pytest`` never collects it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

CLI = "src/threadmotifs/cli.py"
STATS = "src/threadmotifs/expression_stats.py"
MACRO = "src/threadmotifs/macro_metrics.py"
MODEL = "src/threadmotifs/thread_model.py"
CLI_TESTS = "tests/test_cli.py"


class Mutation(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


MUTATIONS = (
    # The compare and macro references.
    Mutation(
        "compare: mu_null and sigma_null columns swapped", CLI,
        "*map(_fmt, (cell.mu_null, cell.sigma_null, cell.se_null)),",
        "*map(_fmt, (cell.sigma_null, cell.mu_null, cell.se_null)),",
        (f"{CLI_TESTS}::test_compare_matches_the_reference",),
    ),
    Mutation(
        "compare: unbinned warning dropped", CLI,
        "        if unbinned:\n",
        "        if False:\n",
        (f"{CLI_TESTS}::test_compare_matches_the_reference",),
    ),
    Mutation(
        "compare: Z = 1 labelled over", STATS,
        "elif cell.z > 1.0:",
        "elif cell.z >= 1.0:",
        (f"{CLI_TESTS}::test_compare_matches_the_reference",),
    ),
    Mutation(
        "compare: variance from the rounded mean square and mean", STATS,
        "sigma = math.sqrt((k * squares - total * total) / (k * k))",
        "sigma = math.sqrt(squares / k - (total / k) ** 2)",
        ("tests/test_expression_stats.py::TestZScores::test_matches_an_exact_rational_oracle",),
    ),
    Mutation(
        "compare: Z from the rounded means", STATS,
        "z = (sum_f * m - sum_b * n) / n / math.sqrt(m * null.squares[b][i] - sum_b**2)",
        "z = (sum_f / n - sum_b / m) / sigma",
        (f"{CLI_TESTS}::TestCompareCommand::test_z_is_exact_past_2_53",),
    ),
    Mutation(
        "macro: reciprocity and op_betweenness columns swapped", MACRO,
        "        reciprocity=reciprocity(ug),\n        op_betweenness=op_betweenness(ug),\n",
        "        reciprocity=op_betweenness(ug),\n        op_betweenness=reciprocity(ug),\n",
        (f"{CLI_TESTS}::test_macro_matches_the_reference",),
    ),
    Mutation(
        "macro: empty-ECDF warning dropped", CLI,
        '_diag(f"warning: no defined values for {metric}, ECDF is empty")',
        "pass",
        (f"{CLI_TESTS}::test_macro_matches_the_reference",),
    ),
    Mutation(
        "macro: --branching-mode ignored", CLI,
        "partial(_macro_rows, branching_mode=args.branching_mode)",
        'partial(_macro_rows, branching_mode="internal")',
        (f"{CLI_TESTS}::test_macro_matches_the_reference",),
    ),
    # One output set per command.
    Mutation(
        "writer: each file renamed as soon as it is written", CLI,
        "                writer.writerows(rows)\n        for tmp, path in written:\n",
        "                writer.writerows(rows)\n            os.replace(tmp, out / name)\n"
        "        for tmp, path in written:\n",
        (f"{CLI_TESTS}::TestWholeOutputSet",),
    ),
    # The corpus path and the census, degrees and timing references.
    Mutation(
        "filter: deleted-root flags dropped", CLI,
        "    policy = FilterPolicy(\n"
        "        args.min_extra_posts, args.drop_deleted_root, args.deleted_sentinel\n"
        "    )\n",
        "    policy = FilterPolicy(args.min_extra_posts)\n",
        (f"{CLI_TESTS}::TestCensusCommand::test_deleted_root_flags_reach_the_filter",),
    ),
    Mutation(
        "census: two class names swapped in the header", CLI,
        '"bin", *get_class_table().names]',
        '"bin", *get_class_table().names[1::-1], *get_class_table().names[2:]]',
        (f"{CLI_TESTS}::test_census_matches_the_reference",),
    ),
    Mutation(
        "census: two count columns swapped", CLI,
        "label, *census.counts]]",
        "label, *census.counts[1::-1], *census.counts[2:]]]",
        (f"{CLI_TESTS}::test_census_matches_the_reference",),
    ),
    Mutation(
        "batches: first line numbered 0", CLI,
        "    first_line = 1\n",
        "    first_line = 0\n",
        (f"{CLI_TESTS}::test_census_matches_the_reference",),
    ),
    Mutation(
        "corpus: duplicate thread_id warning dropped", CLI,
        "                _diag(\n"
        '                    f"warning: skipped line {line_no}: duplicate thread_id "\n'
        '                    f"{thread_id!r} (first on line {first})"\n'
        "                )\n",
        "",
        (f"{CLI_TESTS}::test_census_matches_the_reference",),
    ),
    Mutation(
        "degrees: in and out columns swapped", CLI,
        "zip(r.nodes, r.in_degrees, r.out_degrees)",
        "zip(r.nodes, r.out_degrees, r.in_degrees)",
        (f"{CLI_TESTS}::test_degrees_matches_the_reference",),
    ),
    Mutation(
        "degrees: reply-tree rows dropped", CLI,
        "degree_sequences(build_user_graph(thread)), degree_sequences(thread))",
        "degree_sequences(build_user_graph(thread)),)",
        (f"{CLI_TESTS}::test_degrees_matches_the_reference",),
    ),
    Mutation(
        "timing: v and w users swapped", CLI,
        "graph.users[v], graph.users[w], frac)",
        "graph.users[w], graph.users[v], frac)",
        (f"{CLI_TESTS}::test_timing_matches_the_reference",),
    ),
    Mutation(
        "timing: median row dropped", CLI,
        '            yield ("median", "", "", "", _fmt(lower_median(fractions)))\n',
        "            pass\n",
        (f"{CLI_TESTS}::test_timing_matches_the_reference",),
    ),
    # The nesting limit.
    Mutation(
        "nesting: strings ignored", MODEL,
        """structure = b"".join(structure.split(b'"')[::2])""",
        """structure = b"".join(structure.split(b'"'))""",
        ("tests/test_thread_model.py::TestParseOracle::test_nesting_matches_oracle",),
    ),
    Mutation(
        "nesting: escapes ignored", MODEL,
        "structure = _ESCAPE.sub(b\"\", line).translate(",
        "structure = line.translate(",
        ("tests/test_thread_model.py::TestParseOracle::test_nesting_matches_oracle",),
    ),
    Mutation(
        "nesting: a line at the limit rejected", MODEL,
        "_nesting(line) > MAX_NESTING",
        "_nesting(line) >= MAX_NESTING",
        (
            "tests/test_thread_model.py::TestParseOracle::test_nesting_matches_oracle",
            f"{CLI_TESTS}::test_nesting_limit_holds_at_any_jobs",
        ),
    ),
)


def run(mutations, copy: Path) -> list[str]:
    """Apply each mutation alone in ``copy`` and run its tests; return the faults."""
    faults = []
    # No bytecode: an edit and its undo within one second, of the same size,
    # would let the next run import the other's cached module.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for m in mutations:
        path = copy / m.path
        text = path.read_text(encoding="utf-8")
        found = text.count(m.old)
        if found != 1:
            faults.append(f"{m.name}: the old text occurs {found} times in {m.path}")
            print(f"   STALE {m.name}", flush=True)
            continue
        path.write_text(text.replace(m.old, m.new), encoding="utf-8")
        start = time.perf_counter()
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.tests],
                cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
        finally:
            path.write_text(text, encoding="utf-8")
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
        # pytest exits 1 when a test failed; 0 means every test passed, and
        # anything else (a usage error, no test collected) is no verdict.
        verdict = {0: "SURVIVED", 1: "killed"}.get(result.returncode, "ERROR")
        print(f"{verdict:>8} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        if result.returncode != 1:
            faults.append(f"{m.name}: pytest exited {result.returncode}")
            print(result.stdout[-3000:], flush=True)
    return faults


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutations-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part, ignore=ignore)
        shutil.copy2(root / "pyproject.toml", copy)
        faults = run(MUTATIONS, copy)
    print(f"{len(MUTATIONS) - len(faults)} of {len(MUTATIONS)} mutations killed "
          f"in {time.perf_counter() - start:.1f} s")
    for fault in faults:
        print(f"FAIL: {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
