"""End-to-end command-line pipeline tests."""

from __future__ import annotations

import contextlib
import csv
import errno
import itertools
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from multiprocessing.connection import Connection

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from threadmotifs import cli, motif_census
from threadmotifs.cli import census_header, main
from threadmotifs.errors import ThreadValidationError
from threadmotifs.expression_stats import BinSpec
from threadmotifs.graphs import build_user_graph
from threadmotifs.macro_metrics import lower_median
from threadmotifs.motif_census import census_naive, get_class_table
from threadmotifs.thread_model import MAX_NESTING, parse_thread_line

from support import (
    README_BINS, README_MACRO_METRICS, census_reference, class_table_oracle, compare_reference,
    degrees_reference, fig2_thread, macro_reference, make_thread, nested_thread_line, run_python,
    synth_corpus, timing_reference, to_json_line,
)


def write_corpus(path, threads):
    path.write_text("\n".join(to_json_line(t) for t in threads) + "\n")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def csv_files(out):
    """The bytes of every CSV file in ``out``, by name."""
    return {path.name: path.read_bytes() for path in out.glob("*.csv")}


needs_mkfifo = pytest.mark.skipif(
    not hasattr(os, "mkfifo"), reason="no os.mkfifo on this platform"
)


@contextlib.contextmanager
def fifo_of(source, fifo):
    """Make ``fifo`` a FIFO that a child process fills with ``source``'s bytes.

    The writer is a process, not a thread, as a run that forks workers must
    not fork a process that runs threads.
    """
    os.mkfifo(fifo)
    copy = (
        "import sys\n"
        "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
        "    dst.write(src.read())\n"
    )
    writer = subprocess.Popen([sys.executable, "-c", copy, str(source), str(fifo)])
    try:
        yield fifo
    finally:
        try:
            code = writer.wait(timeout=30)
        finally:
            writer.kill()  # a writer still waiting for a reader
    assert code == 0


def write_census(path, n_users, source="focus"):
    """A census file with one valid row per user count, its triads in one class."""
    header = ",".join(census_header()).encode()
    lines = [_census_line(n, i % 36, source) for i, n in enumerate(n_users)]
    path.write_bytes(b"\n".join([header, *lines]) + b"\n")
    return path


def filler_thread(thread_id, source="focus", n_replies=5, author="root"):
    """A thread that passes the default size filter."""
    posts = [("p0", None, author, 0)] + [
        (f"p{i}", "p0", f"u{i}", i * 10) for i in range(1, n_replies + 1)
    ]
    return make_thread(thread_id, source, posts)


@pytest.fixture
def fixture_corpus(tmp_path):
    threads = [
        fig2_thread(),
        filler_thread("t-star", n_replies=6),
        filler_thread("t-more", n_replies=8),
    ]
    return write_corpus(tmp_path / "corpus.jsonl", threads)


class TestMacroCommand:
    def test_three_thread_fixture(self, tmp_path, fixture_corpus):
        out = tmp_path / "macro"
        assert main(["macro", "--input", str(fixture_corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "macro_metrics.csv")
        assert rows[0] == [
            "thread_id", "n_posts", "n_users", "responsiveness_median_s",
            "reciprocity", "op_betweenness", "branching_factor",
        ]
        assert len(rows) == 4  # header + 3 threads
        ecdfs = sorted(p.name for p in out.glob("ecdf_*.csv"))
        assert ecdfs == [
            "ecdf_branching_factor.csv",
            "ecdf_op_betweenness.csv",
            "ecdf_reciprocity.csv",
            "ecdf_responsiveness_median_s.csv",
        ]
        fig2_row = next(r for r in rows if r[0] == "fig2")
        assert fig2_row[1:3] == ["8", "5"]
        assert fig2_row[4] == f"{4 / 6:.6f}"

    def test_empty_after_filter(self, tmp_path, capsys):
        corpus = write_corpus(
            tmp_path / "small.jsonl", [filler_thread("tiny", n_replies=2)]
        )
        out = tmp_path / "macro"
        assert main(["macro", "--input", str(corpus), "--out", str(out)]) == 0
        assert read_rows(out / "macro_metrics.csv") == [
            [
                "thread_id", "n_posts", "n_users", "responsiveness_median_s",
                "reciprocity", "op_betweenness", "branching_factor",
            ]
        ]
        err = capsys.readouterr().err.splitlines()
        assert "warning: no threads remain after filtering" in err
        assert [line for line in err if "ECDF is empty" in line] == [
            f"warning: no defined values for {metric}, ECDF is empty"
            for metric in cli.ECDF_METRICS
        ]

    def test_malformed_line_reported_not_fatal(self, tmp_path, capsys):
        lines = [
            to_json_line(filler_thread("ok-1")),
            "{broken",
            to_json_line(filler_thread("ok-2")),
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "macro"
        assert main(["macro", "--input", str(corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "macro_metrics.csv")
        assert [r[0] for r in rows[1:]] == ["ok-1", "ok-2"]
        err = capsys.readouterr().err
        assert "1 malformed" in err

    def test_missing_input_is_input_error(self, tmp_path, capsys):
        code = main(
            ["macro", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unwritable_output_is_input_error(self, tmp_path, fixture_corpus, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        code = main(["macro", "--input", str(fixture_corpus), "--out", str(blocker)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_jobs_do_not_change_output(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c.jsonl", synth_corpus(40, "focus", 0.4, seed=77)
        )
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["macro", "--input", str(corpus), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["macro", "--input", str(corpus), "--out", str(out2), "--jobs", "3"]) == 0
        for name in ("macro_metrics.csv", "ecdf_reciprocity.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_branching_mode_reaches_the_rows(self, tmp_path):
        corpus = write_corpus(tmp_path / "fig2.jsonl", [fig2_thread()])
        factors = {}
        for mode in ("internal", "all"):
            out = tmp_path / mode
            argv = ["macro", "--input", str(corpus), "--out", str(out)]
            assert main([*argv, "--branching-mode", mode]) == 0
            factors[mode] = read_rows(out / "macro_metrics.csv")[1][-1]  # branching_factor
        # fig2 has 8 posts, 4 of which have replies.
        assert factors == {"internal": f"{7 / 4:.6f}", "all": f"{7 / 8:.6f}"}


class TestCensusCommand:
    def test_fig2_row(self, tmp_path, fixture_corpus):
        out = tmp_path / "census"
        assert main(["census", "--input", str(fixture_corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "census.csv")
        header, data = rows[0], rows[1:]
        row = dict(zip(header, next(r for r in data if r[0] == "fig2")))
        assert row["n_users"] == "5"
        assert row["bin"] == "1-5"
        assert row["021U-a"] == "1"
        assert row["111D-b"] == "4"
        assert row["201-b"] == "1"
        zero_classes = [
            k for k in header[4:] if k not in ("021U-a", "111D-b", "201-b")
        ]
        assert all(row[k] == "0" for k in zero_classes)

    def test_single_author_thread_counts_zero(self, tmp_path):
        posts = [("p0", None, "solo", 0)] + [
            (f"p{i}", f"p{i-1}", "solo", i) for i in range(1, 6)
        ]
        corpus = write_corpus(
            tmp_path / "solo.jsonl", [make_thread("solo", "focus", posts)]
        )
        out = tmp_path / "census"
        assert main(["census", "--input", str(corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "census.csv")
        assert rows[1][2] == "1"  # one user
        assert set(rows[1][4:]) == {"0"}

    def test_fast_and_naive_byte_identical(self, tmp_path):
        # The CLI's census.csv, byte for byte, against rows built here from
        # the naive oracle over the same threads.
        threads = synth_corpus(60, "focus", 0.5, seed=101)
        corpus = write_corpus(tmp_path / "c.jsonl", threads)
        out = tmp_path / "census"
        assert main(["census", "--input", str(corpus), "--out", str(out)]) == 0
        table, bins = get_class_table(), BinSpec()
        expected = [census_header()]
        for thread in threads:
            census = census_naive(build_user_graph(thread), table)
            b = bins.bin_of(census.n_users)
            label = "" if b is None else bins.labels[b]
            expected.append(
                [thread.thread_id, thread.source, census.n_users, label, *census.counts]
            )
        text = "".join(",".join(map(str, row)) + "\n" for row in expected)
        assert (out / "census.csv").read_bytes() == text.encode()

    def test_jobs_do_not_change_output(self, tmp_path):
        corpus = write_corpus(
            tmp_path / "c.jsonl", synth_corpus(40, "baseline", 0.3, seed=103)
        )
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert main(["census", "--input", str(corpus), "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["census", "--input", str(corpus), "--out", str(out2), "--jobs", "4"]) == 0
        assert (out1 / "census.csv").read_bytes() == (out2 / "census.csv").read_bytes()

    def test_custom_bins(self, tmp_path, fixture_corpus):
        out = tmp_path / "census"
        assert main(
            ["census", "--input", str(fixture_corpus), "--out", str(out), "--bins", "1-4,5-8"]
        ) == 0
        rows = read_rows(out / "census.csv")
        row = next(r for r in rows if r[0] == "fig2")
        assert row[3] == "5-8"

    @pytest.mark.parametrize(
        "flags, kept",
        [
            ([], ["plain", "gone"]),
            (["--keep-deleted-root"], ["plain", "deleted", "gone"]),
            (["--deleted-sentinel", "gone"], ["plain", "deleted"]),
        ],
        ids=["default", "keep-deleted-root", "deleted-sentinel"],
    )
    def test_deleted_root_flags_reach_the_filter(self, tmp_path, flags, kept):
        threads = [
            filler_thread("plain"),
            filler_thread("deleted", author="[deleted]"),
            filler_thread("gone", author="gone"),
        ]
        census = run_census(tmp_path, "c", threads, *flags)
        assert [row[0] for row in read_rows(census)[1:]] == kept

    def test_bad_bins_is_config_error(self, tmp_path, fixture_corpus, capsys):
        for bins in ("oops", ""):
            code = main(
                ["census", "--input", str(fixture_corpus), "--out", str(tmp_path), "--bins", bins]
            )
            assert code == 2
            assert "error" in capsys.readouterr().err

    def test_invalid_utf8_line_is_skipped(self, tmp_path, capsys):
        bad = to_json_line(filler_thread("bad", author="BAD")).encode()
        lines = [
            to_json_line(filler_thread("ok-1")).encode(),
            bad.replace(b"BAD", b"r\xff"),
            to_json_line(filler_thread("ok-3")).encode(),
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "census"
        assert main(["census", "--input", str(corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "census.csv")
        assert [r[0] for r in rows[1:]] == ["ok-1", "ok-3"]
        err = capsys.readouterr().err
        assert "line 2: invalid UTF-8" in err

    def test_duplicate_thread_id_keeps_first(self, tmp_path, monkeypatch, capsys):
        lines = [
            to_json_line(filler_thread("t1")),
            to_json_line(filler_thread("t2")),
            to_json_line(filler_thread("t1", n_replies=7)),
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "BATCH_BYTES", 1)  # one line per batch
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            assert main(["census", "--input", str(corpus), "--out", str(out), "--jobs", jobs]) == 0
            outputs.append(((out / "census.csv").read_bytes(), capsys.readouterr().err))
        assert outputs[0] == outputs[1]
        rows = read_rows(tmp_path / "j1" / "census.csv")
        assert [(r[0], r[2]) for r in rows[1:]] == [("t1", "6"), ("t2", "6")]
        err = outputs[0][1]
        assert "warning: skipped line 3: duplicate thread_id 't1' (first on line 1)" in err
        assert "warning: 1 malformed line(s)/thread(s) skipped" in err

    @needs_mkfifo
    def test_workers_capped_at_usable_processors(self, tmp_path, monkeypatch):
        class ThreadWorker:
            """Stands in for a start method's Process: serves batches on a thread."""

            started = []
            daemon = False

            def __init__(self, target, args):
                fn, conn, parent_ends = args
                # A worker process has its own copy of every end: the parent
                # closes the worker's end after start() and the worker the
                # parent's ends.
                conn, *parent_ends = [
                    Connection(os.dup(c.fileno())) for c in (conn, *parent_ends)
                ]
                self.thread = threading.Thread(target=target, args=(fn, conn, parent_ends))

            def start(self):
                self.daemon_at_start = self.daemon
                self.started.append(self)
                self.thread.start()

            def terminate(self):
                pass  # the thread ends once the parent closes its end

            def join(self):
                self.thread.join(timeout=30)
                assert not self.thread.is_alive()

        # _ordered_map starts its workers from the context of the method it picks.
        for method in multiprocessing.get_all_start_methods():
            monkeypatch.setattr(multiprocessing.get_context(method), "Process", ThreadWorker)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        corpus = write_corpus(
            tmp_path / "c.jsonl", [filler_thread(f"t{i}") for i in range(6)]
        )
        args = ["census", "--input", str(corpus), "--jobs", "5000"]
        assert main([*args, "--out", str(tmp_path / "one")]) == 0
        assert ThreadWorker.started == []  # a file of one batch runs serially
        monkeypatch.setattr(cli, "BATCH_BYTES", 1)
        assert main([*args, "--out", str(tmp_path / "many")]) == 0
        assert len(ThreadWorker.started) == 3
        assert all(worker.daemon_at_start is True for worker in ThreadWorker.started)
        assert (tmp_path / "one" / "census.csv").read_bytes() == (
            tmp_path / "many" / "census.csv"
        ).read_bytes()
        ThreadWorker.started.clear()
        two = write_corpus(tmp_path / "two.jsonl", [filler_thread("t1"), filler_thread("t2")])
        assert main(["census", "--input", str(two), "--out", str(tmp_path / "two"), "--jobs", "3"]) == 0
        assert len(ThreadWorker.started) == 2  # never more workers than batches
        assert len(read_rows(tmp_path / "two" / "census.csv")) == 3
        ThreadWorker.started.clear()
        fifo = tmp_path / "c.fifo"  # a FIFO of several batches takes the same path
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(corpus.read_bytes(),))
        writer.start()
        assert main(["census", "--input", str(fifo), "--out", str(tmp_path / "fifo"), "--jobs", "2"]) == 0
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert len(ThreadWorker.started) == 2
        assert (tmp_path / "fifo" / "census.csv").read_bytes() == (
            tmp_path / "one" / "census.csv"
        ).read_bytes()

    def test_negative_jobs_is_config_error(self, tmp_path, fixture_corpus, capsys):
        code = main(
            ["census", "--input", str(fixture_corpus), "--out", str(tmp_path), "--jobs", "-7"]
        )
        assert code == 2
        assert "--jobs" in capsys.readouterr().err


def run_census(tmp_path, name, threads, *extra):
    corpus = write_corpus(tmp_path / f"{name}.jsonl", threads)
    out = tmp_path / name
    assert main(["census", "--input", str(corpus), "--out", str(out), *extra]) == 0
    return out / "census.csv"


class TestCompareCommand:
    def test_corpus_against_itself_zero(self, tmp_path):
        census = run_census(
            tmp_path, "self", synth_corpus(80, "baseline", 0.4, seed=301)
        )
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--focus", str(census), "--baseline", str(census), "--out", str(out)]
        ) == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # Both sides come from one fit, so each baseline column equals its
        # focus twin, and each populated bin has a row per class.
        for row in rows:
            assert [row[k] for k in ("M", "mu_null", "sigma_null", "se_null")] == [
                row[k] for k in ("N", "mean_focus", "sigma_focus", "se_focus")
            ]
            assert (row["z"], row["reason"] != "") in (("0.000000", False), ("", True))
        populated = {row[3] for row in read_rows(census)[1:] if row[3]}
        assert Counter(row["bin"] for row in rows) == dict.fromkeys(populated, 36)
        # Many cells have variance, so the checks above are not vacuous.
        assert (len(populated), sum(row["z"] == "0.000000" for row in rows)) == (7, 131)

    def test_planted_reciprocity_marks_201b_over(self, tmp_path):
        baseline = run_census(
            tmp_path, "base", synth_corpus(400, "baseline", 0.15, seed=887)
        )
        focus = run_census(
            tmp_path, "foc", synth_corpus(400, "focus", 1.0, seed=887)
        )
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--focus", str(focus), "--baseline", str(baseline), "--out", str(out)]
        ) == 0
        rows = read_rows(out / "compare.csv")
        header = rows[0]
        labels = [
            row[header.index("label")]
            for row in rows[1:]
            if row[header.index("class")] == "201-b"
        ]
        assert "over" in labels
        summary = dict(read_rows(out / "expression_summary.csv")[1:])
        assert summary["201-b"] == "over"

    def test_single_graph_bins_all_undefined(self, tmp_path):
        # One baseline graph per populated bin: sigma_null is 0 everywhere,
        # so every Z is undefined with a reason.
        baseline = run_census(
            tmp_path, "base", [fig2_thread(), filler_thread("b1", n_replies=6)]
        )
        focus = run_census(
            tmp_path,
            "foc",
            [fig2_thread(), filler_thread("f1", n_replies=6), filler_thread("f2", n_replies=8)],
        )
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--focus", str(focus), "--baseline", str(baseline), "--out", str(out)]
        ) == 0
        rows = read_rows(out / "compare.csv")
        header = rows[0]
        assert len(rows) > 1
        reasons = set()
        for row in rows[1:]:
            assert row[header.index("z")] == ""
            assert row[header.index("reason")] != ""
            reasons.add(row[header.index("reason")])
        assert "zero baseline variance" in reasons

    def test_schema_mismatch_names_column(self, tmp_path, capsys):
        census = run_census(
            tmp_path, "good", synth_corpus(10, "focus", 0.5, seed=11)
        )
        bad = tmp_path / "bad.csv"
        rows = read_rows(census)
        rows[0][7] = "wrong-name"
        bad.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--focus", str(bad), "--baseline", str(census), "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "column 8" in err and "wrong-name" in err

    def test_census_total_mismatch_is_input_error(self, tmp_path, capsys):
        census = run_census(
            tmp_path, "good", synth_corpus(10, "focus", 0.5, seed=11)
        )
        bad = tmp_path / "bad.csv"
        rows = read_rows(census)
        off_by_100 = [*rows[1][:4], str(int(rows[1][4]) + 100), *rows[1][5:]]
        # n_users 4 with 003 = 5 and 012-a = -2: the sum is C(3, 2), a count is not.
        negative = [*rows[1][:2], "4", rows[1][3], "5", "-2", *["0"] * 34]
        for row in (off_by_100, negative):
            bad.write_text("\n".join(",".join(r) for r in [rows[0], row, *rows[2:]]) + "\n")
            code = main(
                ["compare", "--focus", str(bad), "--baseline", str(census), "--out", str(tmp_path / "cmp")]
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "line 2" in err and str(bad) in err

    def test_n_users_must_fit_signed_64_bits(self, tmp_path, capsys):
        header = ",".join(census_header()).encode()

        def census(name, *n_users):
            path = tmp_path / f"{name}.csv"
            # C(n - 1, 2) is undefined below n = 1, so those rows hold all-zero counts
            lines = [
                _census_line(n, 0, "focus") if n >= 1 else f"t{n},focus,{n},{',0' * 36}".encode()
                for n in n_users
            ]
            path.write_bytes(b"\n".join([header, *lines]) + b"\n")
            return path

        bins = ["--bins", f"1-5,6-{2 * 10**200}"]
        ok = census("ok", 2**63 - 1, 2**62)
        out = tmp_path / "cmp"
        argv = ["compare", "--focus", str(ok), "--baseline", str(ok), "--out", str(out), *bins]
        assert main(argv) == 0
        assert read_rows(out / "compare.csv")[1][:3] == [f"6-{2 * 10**200}", "003", "2"]
        for n_users, bound in (
            (2**63, "below 2**63"), (10**200, "below 2**63"), (0, "at least 1"), (-1, "at least 1"),
        ):
            bad = census("bad", n_users)
            for focus, baseline in ((bad, ok), (ok, bad)):
                code = main(
                    ["compare", "--focus", str(focus), "--baseline", str(baseline),
                     "--out", str(out), *bins]
                )
                assert code == 1
                assert capsys.readouterr().err.splitlines()[-1] == (
                    f"error: line 2: {bad}: n_users must be {bound}"
                )

    def test_unbinned_graphs_are_reported(self, tmp_path, capsys):
        big = [filler_thread(f"big{i}", n_replies=45 + i) for i in range(3)]
        focus = run_census(tmp_path, "foc", [fig2_thread(), *big[:1]])
        baseline = run_census(
            tmp_path, "base", [fig2_thread(), filler_thread("b1", n_replies=6), *big[1:]]
        )
        capsys.readouterr()
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--focus", str(focus), "--baseline", str(baseline), "--out", str(out)]
        ) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines() if "unbinned" in line
        ]
        assert warnings == [
            "warning: 1 focus graph(s) outside every bin left unbinned",
            "warning: 2 baseline graph(s) outside every bin left unbinned",
        ]

    def test_non_finite_rarity_is_config_error(self, tmp_path, capsys):
        census = run_census(tmp_path, "c", [fig2_thread()], "--min-extra-posts", "0")
        for value in ("nan", "inf", "-1"):
            code = main(
                ["compare", "--focus", str(census), "--baseline", str(census),
                 "--out", str(tmp_path / "cmp"), "--rarity-threshold", value]
            )
            assert code == 2, value
        assert "rarity threshold" in capsys.readouterr().err

    def test_rarity_threshold_reaches_the_labels(self, tmp_path):
        # One thread of three users: a census with one triad, in one class.
        posts = [("p0", None, "a", 0), ("p1", "p0", "b", 1), ("p2", "p0", "c", 2)]
        census = run_census(
            tmp_path, "c", [make_thread("t", "focus", posts)], "--min-extra-posts", "0"
        )
        out = tmp_path / "cmp"

        def labels(*threshold):
            code = main(
                ["compare", "--focus", str(census), "--baseline", str(census),
                 "--out", str(out), *threshold]
            )
            assert code == 0
            with open(out / "expression_summary.csv", newline="") as fh:
                return Counter(row["labels"] for row in csv.DictReader(fh))

        assert labels() == {"rare": 36}
        assert labels("--rarity-threshold", "0") == {"rare": 35, "equal": 1}

    def test_mixed_sources_are_reported(self, tmp_path, capsys):
        census = run_census(
            tmp_path,
            "mixed",
            [*synth_corpus(6, "baseline", 0.3, seed=5), *synth_corpus(2, "focus", 0.3, seed=5)],
        )
        capsys.readouterr()
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--focus", str(census), "--baseline", str(census), "--out", str(out)]
        ) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines() if "source" in line
        ]
        assert warnings == [
            "warning: 6 of 8 row(s) in the focus census have another source",
            "warning: 2 of 8 row(s) in the baseline census have another source",
        ]

    def test_whole_stderr_when_both_warnings_fire_on_both_sides(self, tmp_path, capsys):
        # Each file's rows name the other source, and some or all fall outside
        # 1-5: the source warnings come as the files are read, then the
        # unbinned ones, also when no bin is populated and compare.csv is its
        # header alone. No mean count reaches 10, so every class is rare.
        for focus_sizes, baseline_sizes, stderr, n_rows in (
            (
                [3, 7, 8], [4, 5, 9, 12, 20],
                "warning: 3 of 3 row(s) in the focus census have another source\n"
                "warning: 5 of 5 row(s) in the baseline census have another source\n"
                "warning: 2 focus graph(s) outside every bin left unbinned\n"
                "warning: 3 baseline graph(s) outside every bin left unbinned\n",
                36,
            ),
            (
                [9, 7, 8], [6, 10, 9, 12, 20],
                "warning: 3 of 3 row(s) in the focus census have another source\n"
                "warning: 5 of 5 row(s) in the baseline census have another source\n"
                "warning: 3 focus graph(s) outside every bin left unbinned\n"
                "warning: 5 baseline graph(s) outside every bin left unbinned\n",
                0,
            ),
        ):
            focus = write_census(tmp_path / "foc.csv", focus_sizes, source="baseline")
            baseline = write_census(tmp_path / "base.csv", baseline_sizes, source="focus")
            out = tmp_path / "cmp"
            argv = ["compare", "--focus", str(focus), "--baseline", str(baseline),
                    "--out", str(out), "--bins", "1-5"]
            assert main(argv) == 0
            assert capsys.readouterr().err == stderr
            rows = read_rows(out / "compare.csv")
            assert rows[0] == cli.COMPARE_HEADER
            assert len(rows) == 1 + n_rows
            with open(out / "expression_summary.csv", newline="") as fh:
                assert Counter(row["labels"] for row in csv.DictReader(fh)) == {"rare": 36}

    def test_holds_one_side_of_rows_at_a_time(self, tmp_path):
        # Each census file is read, binned and fitted, and its rows freed, before
        # the other is read: two big files peak about as high as a big and a small.
        big = write_census(tmp_path / "big.csv", [3 + i % 38 for i in range(3000)])
        small = write_census(tmp_path / "small.csv", range(3, 13))

        def peak(baseline):
            argv = ["compare", "--focus", str(big), "--baseline", str(baseline),
                    "--out", str(tmp_path / "cmp")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        get_class_table()  # built once per process, outside the measured runs
        assert peak(big) < 1.25 * peak(small)

    def test_thread_id_longer_than_a_csv_field_round_trips(self, tmp_path):
        # 200,000 characters is over the csv module's default field limit.
        compared = []
        for name, thread_id in (("long", "t" * 200_000), ("short", "t")):
            census = run_census(tmp_path, name, [filler_thread(thread_id, n_replies=6)])
            out = tmp_path / name / "cmp"
            argv = ["compare", "--focus", str(census), "--baseline", str(census)]
            assert main([*argv, "--out", str(out)]) == 0
            compared.append((out / "compare.csv").read_bytes())
        assert compared[0] == compared[1]

    def test_missing_file_is_input_error(self, tmp_path):
        census = run_census(tmp_path, "c", [fig2_thread()], "--min-extra-posts", "0")
        code = main(
            ["compare", "--focus", str(tmp_path / "absent.csv"), "--baseline", str(census), "--out", str(tmp_path)]
        )
        assert code == 1


class TestTimingCommand:
    def test_edge_free_class_rejected(self, tmp_path, fixture_corpus, capsys):
        code = main(
            ["timing", "003", "--input", str(fixture_corpus), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "edge-free" in capsys.readouterr().err

    def test_unknown_class_rejected(self, tmp_path, fixture_corpus, capsys):
        code = main(
            ["timing", "201-x", "--input", str(fixture_corpus), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "201-x" in capsys.readouterr().err

    def test_everything_at_root_time_gives_zero_median(self, tmp_path):
        posts = [("p0", None, "op", 100)] + [
            (f"p{i}", "p0", f"u{i}", 100) for i in range(1, 6)
        ]
        corpus = write_corpus(
            tmp_path / "c.jsonl", [make_thread("flat", "focus", posts)]
        )
        out = tmp_path / "timing"
        assert main(["timing", "021U-a", "--input", str(corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "timing.csv")
        median = next(r for r in rows[1:] if r[0] == "median")
        assert median[4] == "0.000000"

    def test_no_instances_leave_the_median_undefined(self, tmp_path, capsys):
        # Every reply goes to the OP, so no pair of repliers forms a 201 triad.
        corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread("t-star", n_replies=6)])
        out = tmp_path / "timing"
        assert main(["timing", "201-b", "--input", str(corpus), "--out", str(out)]) == 0
        assert read_rows(out / "timing.csv") == [["kind", "thread_id", "v_user", "w_user", "fraction"]]
        err = capsys.readouterr().err
        assert "no threads remain" not in err
        assert "warning: no instances of 201-b found, median undefined\n" in err

    def test_fig2_111db_median(self, tmp_path):
        # Instances complete at 50/70 and 60/70 (twice each); lower median 5/7.
        corpus = write_corpus(tmp_path / "c.jsonl", [fig2_thread()])
        out = tmp_path / "timing"
        assert main(["timing", "111D-b", "--input", str(corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "timing.csv")
        instances = [r for r in rows[1:] if r[0] == "instance"]
        assert sorted(r[4] for r in instances) == [
            f"{5 / 7:.6f}", f"{5 / 7:.6f}", f"{6 / 7:.6f}", f"{6 / 7:.6f}",
        ]
        median = next(r for r in rows[1:] if r[0] == "median")
        assert median[4] == f"{5 / 7:.6f}"

    def test_no_instances_warns(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "c.jsonl", [fig2_thread()])
        out = tmp_path / "timing"
        assert main(["timing", "300", "--input", str(corpus), "--out", str(out)]) == 0
        assert "no instances" in capsys.readouterr().err
        assert read_rows(out / "timing.csv") == [
            ["kind", "thread_id", "v_user", "w_user", "fraction"]
        ]

    def test_one_instance_pass_per_kept_thread(self, tmp_path, monkeypatch):
        kept = [fig2_thread(), filler_thread("t-star", n_replies=6)]
        corpus = write_corpus(tmp_path / "c.jsonl", [*kept, filler_thread("small", n_replies=2)])
        original = motif_census.motif_instances
        seen = []

        def counted(g, cls):
            seen.append(g.users)
            return original(g, cls)

        # Every module holding the function is patched, so a direct call from cli counts too.
        for module in (cli, motif_census):
            if getattr(module, "motif_instances", None) is original:
                monkeypatch.setattr(module, "motif_instances", counted)
        argv = ["timing", "201-b", "--input", str(corpus), "--out", str(tmp_path / "t")]
        assert main([*argv, "--jobs", "1"]) == 0
        assert seen == [t.users for t in kept]


class TestDegreesCommand:
    def test_fig2_degree_rows(self, tmp_path):
        corpus = write_corpus(tmp_path / "c.jsonl", [fig2_thread()])
        out = tmp_path / "deg"
        assert main(["degrees", "--input", str(corpus), "--out", str(out)]) == 0
        rows = read_rows(out / "degrees.csv")
        red = next(r for r in rows[1:] if r[:2] == ["user", "fig2:red"])
        assert red[2:] == ["4", "2"]
        hist = read_rows(out / "degree_hist.csv")
        assert hist[0] == ["graph", "degree_kind", "degree", "count"]
        # reply tree: root got 4 replies, p4 and p6 one each, rest none
        assert ["reply", "in", "4", "1"] in hist


class TestClassesCommand:
    def test_table_shape(self, capsys):
        assert main(["classes"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "class,config1,config2,M,A,N"
        assert len(lines) == 37
        rows = [line.split(",") for line in lines[1:]]
        row_003 = next(r for r in rows if r[0] == "003")
        assert row_003[1] == "NNN" and row_003[2] == ""
        for r in rows:
            assert int(r[3]) + int(r[4]) + int(r[5]) == 3

    def test_singletons_have_one_config(self, capsys):
        main(["classes"])
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        singles = [line.split(",")[0] for line in lines if line.split(",")[2] == ""]
        assert sorted(singles) == sorted(
            ["003", "102-a", "021D-b", "021U-a", "201-b", "120D-a", "120U-b", "300"]
        )


def hostile_corpus_bytes() -> bytes:
    """Twelve valid threads mixed with a broken line, a blank line, a thread
    with no root, invalid UTF-8, a thread the filter drops and a repeated
    thread id, with all three line ends."""
    threads = synth_corpus(12, "focus", 0.5, seed=41)
    lines = [to_json_line(t).encode() for t in threads]
    no_root = to_json_line(filler_thread("no-root")).replace("null", '"p9"')
    bad_utf8 = to_json_line(filler_thread("b", author="X")).replace('"X"', '"\xff"')
    lines[1:1] = [b"{broken"]  # line 2
    lines[4:4] = [b"", no_root.encode()]  # blank line 5, invalid thread on line 6
    lines[8:8] = [bad_utf8.encode("latin-1")]  # line 9
    lines[10:10] = [to_json_line(filler_thread("tiny", n_replies=1)).encode()]
    lines.append(lines[0])  # line 18 repeats line 1's thread id
    endings = [b"\r\n", b"\n", b"\r", b"\n"] * len(lines)
    return b"".join(line + end for line, end in zip(lines, endings))


class TestBatchPath:
    """Corpora cut into many line batches give the bytes of a single batch."""

    COMMANDS = (
        (["census"], ["census.csv"]),
        (["macro"], ["macro_metrics.csv", "ecdf_reciprocity.csv"]),
        (["degrees"], ["degrees.csv", "degree_hist.csv"]),
        (["timing", "111D-b"], ["timing.csv"]),
    )

    @pytest.fixture
    def hostile_corpus(self, tmp_path):
        corpus = tmp_path / "hostile.jsonl"
        corpus.write_bytes(hostile_corpus_bytes())
        return corpus

    def run_all(self, tmp_path, corpus, name, jobs, capsys):
        files, errs = {}, []
        for command, names in self.COMMANDS:
            out = tmp_path / name / command[0]
            argv = [*command, "--input", str(corpus), "--out", str(out), "--jobs", jobs]
            assert main(argv) == 0
            files.update({n: (out / n).read_bytes() for n in names})
            errs.append(capsys.readouterr().err)
        return files, errs

    @pytest.mark.parametrize("batch_bytes", [1, 3000])
    def test_jobs_and_batches_do_not_change_output(
        self, tmp_path, hostile_corpus, monkeypatch, capsys, batch_bytes
    ):
        whole = self.run_all(tmp_path, hostile_corpus, "whole", "1", capsys)
        monkeypatch.setattr(cli, "BATCH_BYTES", batch_bytes)
        batches = list(cli._line_batches(hostile_corpus))
        assert len(batches) > 4
        data = hostile_corpus.read_bytes()
        assert b"".join(chunk for _, chunk in batches) == data
        assert [line for b in batches for line in b[1].splitlines()] == data.splitlines()
        for jobs in ("1", "2"):
            assert self.run_all(tmp_path, hostile_corpus, f"j{jobs}", jobs, capsys) == whole
        census_err = whole[1][0]
        for expected in (
            "warning: skipped line 2: invalid JSON",
            "warning: skipped line 6: thread 'no-root': expected exactly one root post, found 0",
            "warning: skipped line 9: invalid UTF-8",
            "warning: skipped line 18: duplicate thread_id 'focus-0' (first on line 1)",
            "warning: 4 malformed line(s)/thread(s) skipped",
            "info: filter dropped 1 of 13 threads",
        ):
            assert expected in census_err

    def test_lone_cr_corpus_is_cut_into_batches(self, tmp_path, monkeypatch, capsys):
        threads = synth_corpus(12, "focus", 0.5, seed=43)
        corpus = tmp_path / "cr.jsonl"
        corpus.write_bytes(b"".join(to_json_line(t).encode() + b"\r" for t in threads))
        whole = self.run_all(tmp_path, corpus, "whole", "1", capsys)
        monkeypatch.setattr(cli, "BATCH_BYTES", 3000)
        batches = list(cli._line_batches(corpus))
        assert len(batches) > 1
        assert [b[0] for b in batches] == list(
            itertools.accumulate([1] + [len(b[1].splitlines()) for b in batches[:-1]])
        )
        assert b"".join(chunk for _, chunk in batches) == corpus.read_bytes()
        for jobs in ("1", "2"):
            assert self.run_all(tmp_path, corpus, f"j{jobs}", jobs, capsys) == whole

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.lists(st.sampled_from([b"a", b"b", b"\r", b"\n"]), max_size=200).map(b"".join),
        batch_bytes=st.integers(1, 64),
    )
    @example(data=b"a" * 200 + b"\nb\n", batch_bytes=64)  # a line over three times the batch size
    @example(data=b"ab\r\ncd\n", batch_bytes=3)  # a \r\n straddling the batch size
    # A \r\n, then a lone \r, across the text reader's 8,192-character decode chunk.
    @example(data=b"a" * 8191 + b"\r\nb\n", batch_bytes=64)
    @example(data=b"a" * 8191 + b"\rb\n", batch_bytes=64)
    def test_batches_are_whole_lines_of_the_file(self, tmp_path, monkeypatch, data, batch_bytes):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(data)
        monkeypatch.setattr(cli, "BATCH_BYTES", batch_bytes)
        batches = list(cli._line_batches(corpus))
        assert b"".join(chunk for _, chunk in batches) == data
        ends = itertools.accumulate(len(chunk) for _, chunk in batches)
        assert [line for line, _ in batches] == [
            1 + len(data[:offset].splitlines()) for offset in [0, *ends][:-1]
        ]
        assert [line for b in batches for line in b[1].splitlines()] == data.splitlines()
        assert all(chunk for _, chunk in batches)

    @needs_mkfifo
    def test_fifo_input_gives_the_regular_files_bytes(
        self, tmp_path, hostile_corpus, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "BATCH_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def run(command, corpus, name):
            out = tmp_path / name / command[0]
            assert main([*command, "--input", str(corpus), "--out", str(out), "--jobs", "2"]) == 0
            return csv_files(out), capsys.readouterr().err

        for command, names in self.COMMANDS:
            from_file = run(command, hostile_corpus, "file")
            assert set(names) <= set(from_file[0])
            assert "warning: 4 malformed line(s)/thread(s) skipped" in from_file[1]
            with fifo_of(hostile_corpus, tmp_path / f"{command[0]}.fifo") as fifo:
                assert run(command, fifo, "fifo") == from_file

    @needs_mkfifo
    def test_fifo_census_files_give_the_regular_files_bytes(
        self, tmp_path, hostile_corpus, capsys
    ):
        census = tmp_path / "census" / "census.csv"
        assert main(["census", "--input", str(hostile_corpus), "--out", str(census.parent)]) == 0
        capsys.readouterr()

        def compare(focus, baseline, name):
            out = tmp_path / name
            argv = ["compare", "--focus", str(focus), "--baseline", str(baseline)]
            assert main([*argv, "--out", str(out)]) == 0
            return csv_files(out), capsys.readouterr().err

        from_file = compare(census, census, "file")
        assert sorted(from_file[0]) == ["compare.csv", "expression_summary.csv"]
        assert "have another source" in from_file[1]
        with fifo_of(census, tmp_path / "focus.fifo") as focus, fifo_of(
            census, tmp_path / "baseline.fifo"
        ) as baseline:
            assert compare(focus, baseline, "fifo") == from_file


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_start_methods_do_not_change_output(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    corpus = write_corpus(tmp_path / "c.jsonl", synth_corpus(24, "focus", 0.5, seed=7))
    assert main(["census", "--input", str(corpus), "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    # The start method is process-wide, so each one gets its own interpreter.
    script = (
        "import multiprocessing, sys\n"
        "from threadmotifs import cli\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "cli.BATCH_BYTES = 2000\n"
        "sys.exit(cli.main(['census', '--input', sys.argv[2], '--out', sys.argv[3],"
        " '--jobs', '2']))\n"
    )
    proc = run_python(script, method, corpus, tmp_path / method)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / method / "census.csv").read_bytes() == (
        tmp_path / "j1" / "census.csv"
    ).read_bytes()


@pytest.mark.skipif(
    not {"fork", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
    reason="no fork or no forkserver start method on this platform",
)
@pytest.mark.parametrize("chosen, process", [(None, "ForkProcess"), ("spawn", "SpawnProcess")])
def test_workers_fork_unless_the_program_chose_a_method(tmp_path, chosen, process):
    """Where forkserver is the default and no method is set, as on Python 3.14
    on Linux, workers fork; a method the program set wins, and none is set."""
    corpus = write_corpus(tmp_path / "c.jsonl", synth_corpus(24, "focus", 0.5, seed=7))
    # A fresh interpreter, as the start method is process-wide. Making
    # forkserver the default touches private names of multiprocessing.context:
    # _default_context and that object's own _default_context.
    script = (
        "import multiprocessing, multiprocessing.context, os, sys\n"
        "from multiprocessing.process import BaseProcess\n"
        "from threadmotifs import cli\n"
        "default = multiprocessing.context._default_context\n"
        "default._default_context = multiprocessing.get_context('forkserver')\n"
        "if sys.argv[1] != 'None':\n"
        "    multiprocessing.set_start_method(sys.argv[1])\n"
        "started, start = [], BaseProcess.start\n"
        "def spy(self):\n"
        "    started.append(type(self).__name__)\n"
        "    start(self)\n"
        "BaseProcess.start = spy\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cli.BATCH_BYTES = 2000\n"
        "code = cli.main(['census', '--input', sys.argv[2], '--out', sys.argv[3],"
        " '--jobs', '2'])\n"
        "print(code, started, multiprocessing.get_start_method(allow_none=True))\n"
    )
    proc = run_python(script, chosen, corpus, tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [f"0 {[process] * 2} {chosen}", ""]


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="/dev/fd/N names the file itself only on Linux"
)
def test_dev_fd_name_of_a_regular_file_gives_the_files_bytes(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", synth_corpus(24, "focus", 0.5, seed=7))
    assert main(["census", "--input", str(corpus), "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    # A spawned worker has no copy of the descriptor: the main process reads
    # the file and sends its workers the bytes.
    script = (
        "import multiprocessing, os, sys\n"
        "from threadmotifs import cli\n"
        "multiprocessing.set_start_method('spawn')\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cli.BATCH_BYTES = 2000\n"
        "fd = os.open(sys.argv[1], os.O_RDONLY)\n"
        "sys.exit(cli.main(['census', '--input', f'/dev/fd/{fd}', '--out', sys.argv[2],"
        " '--jobs', '2']))\n"
    )
    proc = run_python(script, corpus, tmp_path / "fd")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fd" / "census.csv").read_bytes() == (
        tmp_path / "j1" / "census.csv"
    ).read_bytes()


# Runs census with a row function that, on thread t3, exits its process
# (argv[1] == "exit"), kills the main process ("kill") or raises ("raise").
# After the kill, t3's rows are more than a pipe holds, so only a send that
# fails once the main process is gone lets that worker exit. Fork carries the
# patch into the workers.
FAULTY_CENSUS = (
    "import multiprocessing, os, signal, sys\n"
    "from threadmotifs import cli\n"
    "from threadmotifs.errors import ThreadMotifsError\n"
    "multiprocessing.set_start_method('fork')\n"
    "census_rows = cli._census_rows\n"
    "def faulty_rows(thread, **kwargs):\n"
    "    if thread.thread_id == 't3':\n"
    "        if sys.argv[1] == 'exit':\n"
    "            os._exit(3)\n"
    "        if sys.argv[1] == 'kill':\n"
    "            os.kill(os.getppid(), signal.SIGKILL)\n"
    "            return [['x' * 2**20]]\n"
    "        else:\n"
    "            raise ThreadMotifsError('row function failed on t3')\n"
    "    return census_rows(thread, **kwargs)\n"
    "cli._census_rows = faulty_rows\n"
    "cli.BATCH_BYTES = 1\n"
    "sys.exit(cli.main(['census', '--input', sys.argv[2], '--out', sys.argv[3],"
    " '--jobs', sys.argv[4]]))\n"
)
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
)


@needs_fork
def test_dead_worker_is_input_error(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread(f"t{i}") for i in range(6)])
    proc = run_python(FAULTY_CENSUS, "exit", corpus, tmp_path / "out", 2)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [
        "error: worker process exited unexpectedly (exit code 3)"
    ]
    assert not (tmp_path / "out" / "census.csv").exists()


# Runs census at --jobs 2, one line per batch. The worker that holds batch 0
# waits until the other worker computes t3, then exits.
DYING_WHILE_THE_OTHER_COMPUTES = (
    "import multiprocessing, os, sys, time\n"
    "from pathlib import Path\n"
    "from threadmotifs import cli\n"
    "multiprocessing.set_start_method('fork')\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "marker = Path(sys.argv[3])\n"
    "census_rows = cli._census_rows\n"
    "def dying_rows(thread, **kwargs):\n"
    "    if thread.thread_id == 't0':\n"
    "        while not marker.exists():\n"
    "            time.sleep(0.01)\n"
    "        os._exit(3)\n"
    "    if thread.thread_id == 't3':\n"
    "        marker.touch()\n"
    "    return census_rows(thread, **kwargs)\n"
    "cli._census_rows = dying_rows\n"
    "cli.BATCH_BYTES = 1\n"
    "sys.exit(cli.main(['census', '--input', sys.argv[1], '--out', sys.argv[2],"
    " '--jobs', '2']))\n"
)


@needs_fork
def test_worker_dying_while_the_other_computes_is_input_error(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread(f"t{i}") for i in range(8)])
    proc = run_python(DYING_WHILE_THE_OTHER_COMPUTES, corpus, tmp_path / "out", tmp_path / "marker")
    assert (proc.returncode, proc.stderr) == (
        1, "error: worker process exited unexpectedly (exit code 3)\n"
    )
    assert not (tmp_path / "out" / "census.csv").exists()


# Runs census at --jobs 2, one line per batch, with workers that exit 3 once
# they have sent one result. The main process waits 0.5 s after each wake-up
# before it reads the results, so it sends the next batch to a worker that is
# gone.
GONE_BEFORE_THE_NEXT_BATCH = (
    "import multiprocessing, multiprocessing.connection, os, sys, time\n"
    "from threadmotifs import cli\n"
    "multiprocessing.set_start_method('fork')\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "wait = multiprocessing.connection.wait\n"
    "def slow_wait(conns):\n"
    "    ready = wait(conns)\n"
    "    time.sleep(0.5)\n"
    "    return ready\n"
    "def serve_once(fn, conn, parent_ends):\n"
    "    for end in parent_ends:\n"
    "        end.close()\n"
    "    conn.send(fn(*conn.recv()))\n"
    "    os._exit(3)\n"
    "multiprocessing.connection.wait = slow_wait\n"
    "cli._serve = serve_once\n"
    "cli.BATCH_BYTES = 1\n"
    "sys.exit(cli.main(['census', '--input', sys.argv[1], '--out', sys.argv[2],"
    " '--jobs', '2']))\n"
)


@needs_fork
def test_failed_send_to_a_gone_worker_is_input_error(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread(f"t{i}") for i in range(6)])
    proc = run_python(GONE_BEFORE_THE_NEXT_BATCH, corpus, tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (
        1, "error: worker process exited unexpectedly (exit code 3)\n"
    )
    assert not (tmp_path / "out" / "census.csv").exists()


# Runs census at --jobs 2, one line per batch. The worker that holds batch 0
# computes it only once the other worker has computed t7, and so every later
# batch; if that takes over 30 s, t0 fails.
SLOW_FIRST_BATCH = (
    "import multiprocessing, os, sys, time\n"
    "from pathlib import Path\n"
    "from threadmotifs import cli\n"
    "from threadmotifs.errors import ThreadMotifsError\n"
    "multiprocessing.set_start_method('fork')\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "marker = Path(sys.argv[3])\n"
    "census_rows = cli._census_rows\n"
    "def slow_rows(thread, **kwargs):\n"
    "    if thread.thread_id == 't0':\n"
    "        deadline = time.monotonic() + 30\n"
    "        while not marker.exists() and time.monotonic() < deadline:\n"
    "            time.sleep(0.01)\n"
    "        if not marker.exists():\n"
    "            raise ThreadMotifsError('t7 was not computed within 30 s')\n"
    "    rows = census_rows(thread, **kwargs)\n"
    "    if thread.thread_id == 't7':\n"
    "        marker.touch()\n"
    "    return rows\n"
    "cli._census_rows = slow_rows\n"
    "cli.BATCH_BYTES = 1\n"
    "sys.exit(cli.main(['census', '--input', sys.argv[1], '--out', sys.argv[2],"
    " '--jobs', '2']))\n"
)


@needs_fork
def test_worker_done_before_a_slow_first_batch_is_no_error(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread(f"t{i}") for i in range(8)])
    assert main(["census", "--input", str(corpus), "--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
    proc = run_python(SLOW_FIRST_BATCH, corpus, tmp_path / "j2", tmp_path / "marker")
    assert (proc.returncode, proc.stderr) == (0, capsys.readouterr().err)
    assert (tmp_path / "j2" / "census.csv").read_bytes() == (
        tmp_path / "j1" / "census.csv"
    ).read_bytes()


@needs_fork
def test_workers_exit_after_the_main_process_is_killed(tmp_path):
    corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread(f"t{i}") for i in range(6)])
    # The workers share the main process's stdout and stderr pipes, so this
    # returns only once every worker has exited too.
    proc = run_python(FAULTY_CENSUS, "kill", corpus, tmp_path / "out", 2)
    assert (proc.returncode, proc.stderr) == (-9, "")
    assert not (tmp_path / "out" / "census.csv").exists()


@needs_fork
def test_worker_exception_ends_the_run_as_a_dead_worker(tmp_path):
    """At --jobs 1 the row function's error is the run's error; a worker that
    raises prints its traceback and exits 1, and the run reports it gone."""
    lines = [to_json_line(filler_thread(f"t{i}")) for i in range(6)]
    lines[2:2] = ["not json"]  # before t3: reported at --jobs 1
    lines[5:5] = ["not json either"]  # after t3: never reached
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    runs = [run_python(FAULTY_CENSUS, "raise", corpus, tmp_path / f"j{jobs}", jobs) for jobs in (1, 2)]
    assert [(p.returncode, p.stdout) for p in runs] == [(1, ""), (1, "")]
    assert runs[0].stderr.splitlines() == [
        "warning: skipped line 3: invalid JSON (Expecting value)",
        "error: row function failed on t3",
    ]
    assert runs[1].stderr.splitlines()[-1] == (
        "error: worker process exited unexpectedly (exit code 1)"
    )
    assert "ThreadMotifsError: row function failed on t3" in runs[1].stderr
    assert "line 6" not in runs[1].stderr
    assert not (tmp_path / "j2" / "census.csv").exists()


# Runs census, one line per batch, with two usable processors. With argv[4]
# "held", every _ordered_map generator stays referenced until the interpreter
# exits, as it does when a caller has bound it to a name that a traceback keeps.
CENSUS_TWO_CPUS = (
    "import os, sys\n"
    "from threadmotifs import cli\n"
    "os.sched_getaffinity = lambda pid: {0, 1}\n"
    "cli.BATCH_BYTES = 1\n"
    "if sys.argv[4] == 'held':\n"
    "    held, ordered_map = [], cli._ordered_map\n"
    "    def holding_map(*args):\n"
    "        held.append(ordered_map(*args))\n"
    "        return held[-1]\n"
    "    cli._ordered_map = holding_map\n"
    "sys.exit(cli.main(['census', '--input', sys.argv[1], '--out', sys.argv[2],"
    " '--jobs', sys.argv[3]]))\n"
)


@pytest.mark.parametrize("generator", ["freed", "held"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_unwritable_stderr_exits_at_any_jobs(tmp_path, jobs, generator):
    """A run whose warnings cannot be written exits 1 and leaves no worker behind.

    The failed warning, and then the failed error line, leave ``main`` by an
    exception; the interpreter must still exit instead of waiting for workers,
    whether or not that exception's traceback keeps the workers' generator.
    The workers share the captured stdout, so a run returns only once every
    worker has exited too.
    """
    lines = []
    for i in range(20):
        lines += [to_json_line(filler_thread(f"t{i}")), "{broken"]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # so every write to the pipe fails
    targets = [write_end]
    if os.path.exists("/dev/full"):  # every write to it fails: no space left
        targets.append(os.open("/dev/full", os.O_WRONLY))
    try:
        for n, stderr in enumerate(targets):
            out = tmp_path / f"out{n}"
            proc = run_python(
                CENSUS_TWO_CPUS, corpus, out, jobs, generator, timeout=30, stderr=stderr
            )
            assert proc.returncode == 1
            assert not (out / "census.csv").exists()
    finally:
        for fd in targets:
            os.close(fd)


class FullStderr:
    """A stderr whose every write fails, as one on a full device does."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unwritable_error_line_still_returns_1(tmp_path, monkeypatch, jobs):
    """The failed warning ends the run, and the failed error line after it
    leaves ``main`` returning 1, not raising."""
    lines = []
    for i in range(4):
        lines += [to_json_line(filler_thread(f"t{i}")), "{broken"]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(cli, "BATCH_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sys, "stderr", FullStderr())
    out = tmp_path / "out"
    assert main(["census", "--input", str(corpus), "--out", str(out), "--jobs", jobs]) == 1
    assert not (out / "census.csv").exists()


def test_cli_import_leaves_numpy_out(tmp_path):
    """Start-up, and serial censuses after it, load none of these modules.

    The corpus is one batch, so it runs serially at --jobs 2 as well.
    """
    corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread("t1"), filler_thread("t2")])
    script = (
        "import os, sys, threadmotifs.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "unwanted = ('numpy', 'dataclasses', 'multiprocessing', 'fractions')\n"
        "print([m for m in unwanted if m in sys.modules])\n"
        "for jobs, out in (('1', sys.argv[2]), ('2', sys.argv[3])):\n"
        "    code = threadmotifs.cli.main(['census', '--input', sys.argv[1], '--out', out,"
        " '--jobs', jobs])\n"
        "    print(code, [m for m in unwanted if m in sys.modules])\n"
    )
    proc = run_python(script, corpus, tmp_path / "j1", tmp_path / "j2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []", "0 []"]
    assert len(read_rows(tmp_path / "j1" / "census.csv")) == 3
    assert (tmp_path / "j2" / "census.csv").read_bytes() == (
        tmp_path / "j1" / "census.csv"
    ).read_bytes()


def dir_files(out):
    """The bytes of every file in ``out``, temporary ones included, by name."""
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_failed_csv_write_keeps_previous_file(tmp_path):
    """A set whose second file fails midway replaces neither file."""
    (tmp_path / "a.csv").write_text("old a\n")
    (tmp_path / "b.csv").write_text("old b\n")

    def rows():
        yield ("b", 1)
        raise RuntimeError("midway")

    files = [("a.csv", ("name", "n"), [("a", 1)]), ("b.csv", ("name", "n"), rows())]
    with pytest.raises(RuntimeError, match="midway"):
        cli._write_csvs(tmp_path, iter(files))
    assert dir_files(tmp_path) == {"a.csv": b"old a\n", "b.csv": b"old b\n"}
    files = [("a.csv", ("name", "n"), [("a", 1)]), ("b.csv", ("name", "n"), [("b", 2)])]
    cli._write_csvs(tmp_path, iter(files))
    assert dir_files(tmp_path) == {"a.csv": b"name,n\na,1\n", "b.csv": b"name,n\nb,2\n"}


class TestWholeOutputSet:
    """A failed run leaves every file of its command's earlier run as it was.

    Each second run fails after its first file is written in full, so a
    writer that renamed each file as soon as it was written would mix the
    two runs' files.
    """

    @staticmethod
    def fail_temporary_open(monkeypatch, name):
        """Make the write of ``name``'s temporary file fail with ENOSPC at its open."""

        def fake_open(file, *args, **kwargs):
            if os.path.basename(file).startswith(f".{name}."):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", fake_open, raising=False)

    def test_macro_failed_warning(self, tmp_path, monkeypatch):
        chain = [("p0", None, "a", 0), ("p1", "p0", "b", 10), ("p2", "p1", "a", 30)]
        three = [make_thread(f"u{i}", "focus", chain) for i in range(3)]
        root_only = [make_thread(f"t{i}", "focus", chain[:1]) for i in range(3)]
        out = tmp_path / "out"
        argv = ["macro", "--out", str(out), "--min-extra-posts", "0"]
        corpus = write_corpus(tmp_path / "three.jsonl", three)
        assert main([*argv, "--input", str(corpus)]) == 0
        before = dir_files(out)
        assert len(before) == 5 and b"u0" in before["macro_metrics.csv"]
        # The second run's first warning, for its empty ECDFs, cannot be written.
        monkeypatch.setattr(sys, "stderr", FullStderr())
        corpus = write_corpus(tmp_path / "root_only.jsonl", root_only)
        assert main([*argv, "--input", str(corpus)]) == 1
        assert dir_files(out) == before

    def test_degrees_failed_second_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        corpus = write_corpus(tmp_path / "fig2.jsonl", [fig2_thread()])
        assert main(["degrees", "--input", str(corpus), "--out", str(out)]) == 0
        before = dir_files(out)
        self.fail_temporary_open(monkeypatch, "degree_hist.csv")
        corpus = write_corpus(tmp_path / "filler.jsonl", [filler_thread("t1")])
        assert main(["degrees", "--input", str(corpus), "--out", str(out)]) == 1
        assert "error: [Errno 28]" in capsys.readouterr().err
        assert dir_files(out) == before

    def test_compare_failed_second_file(self, tmp_path, monkeypatch, capsys):
        a = run_census(tmp_path, "a", synth_corpus(40, "focus", 0.5, seed=1))
        b = run_census(tmp_path, "b", synth_corpus(40, "focus", 0.2, seed=2))
        out = tmp_path / "out"
        assert main(["compare", "--focus", str(a), "--baseline", str(b), "--out", str(out)]) == 0
        before = dir_files(out)
        self.fail_temporary_open(monkeypatch, "expression_summary.csv")
        assert main(["compare", "--focus", str(b), "--baseline", str(a), "--out", str(out)]) == 1
        assert "error: [Errno 28]" in capsys.readouterr().err
        assert dir_files(out) == before


class TestConfigErrors:
    """A bad flag value is the parser's usage line plus one error line, exit 2."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["census", "--input", "c", "--out", "o", "--jobs", "abc"],
                "argument --jobs: expected an integer, got 'abc'",
            ),
            ([], "the following arguments are required: command"),
            (
                ["census", "--input", "c", "--out", "o", "--bins", "5-1"],
                "argument --bins: bin range 5-1 is inverted",
            ),
            (
                ["census", "--input", "c", "--out", "o", "--min-extra-posts", "-1"],
                "argument --min-extra-posts: must be non-negative, got -1",
            ),
            (
                ["timing", "201-x", "--input", "c", "--out", "o"],
                "argument class_name: unknown anchored triad class '201-x'",
            ),
            (
                ["compare", "--focus", "f", "--baseline", "b", "--out", "o",
                 "--rarity-threshold", "abc"],
                "argument --rarity-threshold: rarity threshold must be finite and non-negative",
            ),
        ],
        ids=[
            "jobs-abc", "no-subcommand", "inverted-bins", "negative-min-extra-posts",
            "unknown-class", "rarity-threshold-abc",
        ],
    )
    def test_returns_2_with_usage(self, tmp_path, monkeypatch, capsys, argv, error):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: threadmotifs")
        assert lines[-1].startswith("threadmotifs")
        assert lines[-1].endswith(f": error: {error}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["census", "--help"], ["timing", "-h"]])
    def test_help_returns_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: threadmotifs")

    def test_parser_resolves_jobs(self, tmp_path, monkeypatch):
        def resolved():
            seen = []
            monkeypatch.setattr(cli, "_thread_rows", lambda args, row_fn: seen.append(args.jobs) or [])
            for jobs in ([], ["--jobs", "0"], ["--jobs", "2"], ["--jobs", "5000"]):
                assert main(["census", "--input", "c", "--out", str(tmp_path), *jobs]) == 0
            return seen

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert resolved() == [3, 3, 2, 3]
        # Without sched_getaffinity the processors are os.cpu_count(), or 1 if unknown.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert resolved() == [4, 4, 2, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolved() == [1, 1, 1, 1]


# Built as JSON because no ThreadRecord holds a timestamp outside 64 bits.
HUGE_GAPS = json.dumps(
    {
        "thread_id": "huge-gaps",
        "source": "focus",
        "posts": [{"id": "p0", "parent": None, "author": "op", "t": 0}]
        + [
            {"id": f"p{i}", "parent": "p0", "author": f"u{i}", "t": i * 10**400}
            for i in range(1, 6)
        ],
    }
)
HOSTILE_LINES = {
    "deep-nesting": (b"[" * 200_000, "JSON nested too deeply"),
    "long-integer": (
        to_json_line(filler_thread("long-t")).replace('"t": 0', '"t": ' + "7" * 5000).encode(),
        "JSON integer has too many digits",
    ),
    "t-out-of-range": (HUGE_GAPS.encode(), "post 'p1': 't' out of range"),
    # Valid JSON whose "\ud800" escapes decode to text no CSV file can hold.
    "lone-surrogate": (
        to_json_line(filler_thread("bad")).replace('"bad"', '"bad\\ud800"').encode(),
        "thread 'bad\\ud800': text holds a lone surrogate, which UTF-8 cannot encode",
    ),
    "lone-surrogate-author": (
        to_json_line(filler_thread("t-author")).replace('"root"', '"\\udc80x"').encode(),
        "thread 't-author': text holds a lone surrogate, which UTF-8 cannot encode",
    ),
    "own-parent": (
        json.dumps(
            {"thread_id": "self", "source": "focus", "posts": [
                {"id": "p0", "parent": None, "author": "a", "t": 0},
                {"id": "p1", "parent": "p1", "author": "b", "t": 1},
            ]}
        ).encode(),
        "thread 'self': parent links contain a cycle",
    ),
    # Valid JSON whose "\r" escapes decode to text the CSV writer leaves unquoted.
    "carriage-return": (
        to_json_line(filler_thread("cr")).replace('"cr"', '"a\\rb"').encode(),
        "thread 'a\\rb': text holds a carriage return, which would split a CSV row",
    ),
    "carriage-return-author": (
        to_json_line(filler_thread("t-cr")).replace('"root"', '"r\\r"').encode(),
        "thread 't-cr': text holds a carriage return, which would split a CSV row",
    ),
    **{
        f"posts-{name}": (
            json.dumps({"thread_id": "np", "source": "focus", **posts}).encode(),
            "'posts' must be an array",
        )
        for name, posts in (
            ("object", {"posts": {}}),
            ("string", {"posts": "x"}),
            ("null", {"posts": None}),
            ("missing", {}),
        )
    },
}
CORPUS_COMMANDS = (["census"], ["macro"], ["degrees"], ["timing", "201-b"])


@pytest.mark.parametrize("hostile", sorted(HOSTILE_LINES))
@pytest.mark.parametrize("command", CORPUS_COMMANDS, ids=lambda c: c[0])
def test_hostile_corpus_line_is_skipped(tmp_path, capsys, command, hostile):
    line, reason = HOSTILE_LINES[hostile]
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(to_json_line(fig2_thread()).encode() + b"\n" + line + b"\n")
    out = tmp_path / "out"
    assert main([*command, "--input", str(corpus), "--out", str(out), "--jobs", "1"]) == 0
    err = capsys.readouterr().err
    assert f"warning: skipped line 2: {reason}\n" in err
    assert "warning: 1 malformed line(s)/thread(s) skipped" in err


def reply_first_corpus_bytes() -> bytes:
    """A thread whose reply comes before its root on the line, then a thread
    with a post that is its own parent."""
    posts = [
        {"id": "p1", "parent": "p0", "author": "b", "t": 1},
        {"id": "p0", "parent": None, "author": "a", "t": 0},
    ]
    forward = json.dumps({"thread_id": "fwd", "source": "focus", "posts": posts}).encode()
    return forward + b"\n" + HOSTILE_LINES["own-parent"][0] + b"\n"


def test_reply_listed_before_its_parent_is_kept(tmp_path, capsys):
    # Each command keeps the first thread and warns once about the second.
    corpus = tmp_path / "fwd.jsonl"
    corpus.write_bytes(reply_first_corpus_bytes())
    # Each command's main CSV and its line count: the header, then the rows
    # of fwd (its four degree rows; no 201-b instance, so no timing row).
    lines = {
        "census": ("census.csv", 2), "macro": ("macro_metrics.csv", 2),
        "degrees": ("degrees.csv", 5), "timing": ("timing.csv", 1),
    }
    for command in CORPUS_COMMANDS:
        out = tmp_path / command[0]
        argv = [*command, "--input", str(corpus), "--out", str(out), "--min-extra-posts", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().err.count("parent links contain a cycle") == 1
        name, n_lines = lines[command[0]]
        assert (out / name).read_bytes().count(b"\n") == n_lines, name


@pytest.mark.parametrize("command", CORPUS_COMMANDS, ids=lambda c: c[0])
def test_missing_input_leaves_no_output_dir(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command, "--input", str(tmp_path / "nope.jsonl"), "--out", str(out)]) == 1
    assert "No such file" in capsys.readouterr().err
    assert not out.exists()


class TestHostileCensusFile:
    def compare(self, tmp_path, capsys, tail: bytes):
        census = run_census(tmp_path, "c", [fig2_thread()], "--min-extra-posts", "0")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(census.read_bytes() + tail)
        capsys.readouterr()
        for focus, baseline in ((bad, census), (census, bad)):
            code = main(
                ["compare", "--focus", str(focus), "--baseline", str(baseline),
                 "--out", str(tmp_path / "cmp")]
            )
            assert code == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1]
        return bad, errors[0]

    def test_not_utf8_is_input_error(self, tmp_path, capsys):
        bad, error = self.compare(tmp_path, capsys, b"t2,focus,3,1-5,\xff\n")
        assert error == (
            f"error: line 1: {bad}: invalid UTF-8 (invalid start byte) "
            "on this line or a later one"
        )

    def test_oversized_field_is_input_error(self, tmp_path, capsys):
        bad, error = self.compare(tmp_path, capsys, b"t2,focus,3," + b"9" * 200_000 + b"\n")
        assert error == f"error: line 3: {bad}: bad census row width"


class TestCensusFileLineNumbers:
    """A census-file fault names the line its row starts on, where a newline
    quoted in a thread id counts as a line."""

    def compare(self, tmp_path, capsys, edit):
        """Run compare on an edited census of the threads "a\nb" and "t2", as
        focus and as baseline, and return its one error line and the file.

        ``edit`` gets the file's lines: the header, the "a\nb" row on lines 2
        and 3, t2's row on line 4 and the empty text after the last newline.
        """
        posts = [("p0", None, "a", 0), ("p1", "p0", "b", 1), ("p2", "p0", "c", 2)]
        threads = [make_thread(tid, "focus", posts) for tid in ("a\nb", "t2")]
        census = run_census(tmp_path, "c", threads, "--min-extra-posts", "0")
        lines = census.read_text(encoding="utf-8").split("\n")
        assert [line[:11] for line in lines[1:]] == ['"a', 'b",focus,3,', "t2,focus,3,", ""]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(edit(lines)), encoding="utf-8")
        capsys.readouterr()
        for focus, baseline in ((bad, census), (census, bad)):
            code = main(
                ["compare", "--focus", str(focus), "--baseline", str(baseline),
                 "--out", str(tmp_path / "cmp")]
            )
            assert code == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and errors[0] == errors[1]
        return bad, errors[0]

    def test_bad_sum_after_a_quoted_newline_names_its_line(self, tmp_path, capsys):
        def edit(lines):
            return [*lines[:3], lines[3].replace("t2,focus,3,", "t2,focus,4,", 1), *lines[4:]]

        bad, error = self.compare(tmp_path, capsys, edit)
        assert error == (
            f"error: line 4: {bad}: census counts sum to 1, "
            "not C(n_users - 1, 2) for n_users = 4"
        )

    def test_trailing_blank_line_is_a_width_error(self, tmp_path, capsys):
        bad, error = self.compare(tmp_path, capsys, lambda lines: [*lines, ""])
        assert error == f"error: line 5: {bad}: bad census row width"

    def test_short_row_after_a_quoted_newline_is_a_width_error(self, tmp_path, capsys):
        def edit(lines):
            return [*lines[:3], "t3,focus", *lines[3:]]

        bad, error = self.compare(tmp_path, capsys, edit)
        assert error == f"error: line 4: {bad}: bad census row width"

    def test_extra_header_column_names_line_1(self, tmp_path, capsys):
        bad, error = self.compare(tmp_path, capsys, lambda lines: [lines[0] + ",extra", *lines[1:]])
        assert error == f"error: line 1: {bad}: census schema has extra columns"

    def test_non_integer_count_after_a_quoted_newline_names_its_line(self, tmp_path, capsys):
        def edit(lines):
            fields = lines[3].split(",")
            fields[4] = "x"
            return [*lines[:3], ",".join(fields), *lines[4:]]

        bad, error = self.compare(tmp_path, capsys, edit)
        assert error == (
            f"error: line 4: {bad}: bad census row "
            "(invalid literal for int() with base 10: 'x')"
        )


# Text that a CSV row must quote (",", '"', "\n") or cannot hold ("\r").
SPECIAL_TEXTS = ("a,b", 'a"b', "a\nb", "a\rb")


def special_line(thread_id: str, text: str) -> str:
    """A corpus line of eleven posts whose ids and authors hold ``text``: five
    replies to the root, each answered by the root's author."""
    op = f"op{text}"
    posts = [{"id": f"{text}0", "parent": None, "author": op, "t": 0}]
    for i in range(1, 6):
        posts.append({"id": f"{text}{i}", "parent": f"{text}0", "author": f"{text}{i}", "t": i})
        posts.append({"id": f"r{text}{i}", "parent": f"{text}{i}", "author": op, "t": 10 + i})
    return json.dumps({"thread_id": thread_id, "source": "focus", "posts": posts})


def special_corpus_bytes() -> bytes:
    """Per special text, a thread whose id holds it, then one whose post ids
    and authors do."""
    lines = []
    for i, text in enumerate(SPECIAL_TEXTS):
        lines += [special_line(text, "p"), special_line(f"t{i}", text)]
    return "".join(line + "\n" for line in lines).encode()


_special_texts = st.text(st.sampled_from('ab,"\n\r\u00e9'), min_size=1, max_size=3)


@st.composite
def special_threads(draw):
    """A corpus line of a reply tree whose thread id, post ids and authors
    are short texts of letters, ",", '"', "\n" and "\r"."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(_special_texts, min_size=n, max_size=n, unique=True))
    authors = draw(st.lists(_special_texts, min_size=1, max_size=3, unique=True))
    posts = [
        {
            "id": ids[i],
            "parent": None if i == 0 else ids[draw(st.integers(0, i - 1))],
            "author": draw(st.sampled_from(authors)),
            "t": draw(st.integers(0, 9)),
        }
        for i in range(n)
    ]
    return json.dumps({"thread_id": draw(_special_texts), "source": "focus", "posts": posts})


class TestSpecialText:
    """Corpus text reaches the CSV files whole, or its thread is skipped."""

    def test_census_compare_round_trip(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "special.jsonl"
        corpus.write_bytes(special_corpus_bytes())
        monkeypatch.setattr(cli, "BATCH_BYTES", 1)  # one line per batch
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}"
            assert main(["census", "--input", str(corpus), "--out", str(out), "--jobs", jobs]) == 0
            census_err = capsys.readouterr().err
            census = out / "census.csv"
            argv = ["compare", "--focus", str(census), "--baseline", str(census)]
            assert main([*argv, "--out", str(out / "cmp")]) == 0
            compare_err = capsys.readouterr().err
            files = [census, out / "cmp" / "compare.csv", out / "cmp" / "expression_summary.csv"]
            runs.append(([f.read_bytes() for f in files], census_err, compare_err))
        assert runs[0] == runs[1]
        census_err, compare_err = runs[0][1:]
        reason = "text holds a carriage return, which would split a CSV row"
        assert census_err.count("carriage return") == 2
        assert f"warning: skipped line 7: thread 'a\\rb': {reason}\n" in census_err
        assert f"warning: skipped line 8: thread 't3': {reason}\n" in census_err
        rows = read_rows(tmp_path / "j1" / "census.csv")
        assert [row[0] for row in rows[1:]] == ["a,b", "t0", 'a"b', "t1", "a\nb", "t2"]
        assert {len(row) for row in rows} == {4 + 36}
        # The baseline side's rows all say focus.
        assert compare_err == "warning: 6 of 6 row(s) in the baseline census have another source\n"

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(line=special_threads())
    @example(line=special_line("a\rb", "p"))
    @example(line=special_line("t", "\r"))
    def test_written_rows_read_back_whole(self, tmp_path, capsys, line):
        try:
            thread = parse_thread_line(line.encode())
        except ThreadValidationError:
            return
        timed = cli._timing_rows(thread, get_class_table().named("201-b"))
        timing = [[*r[:4], cli._fmt(r[4])] for r in timed]
        if timed:
            timing.append(["median", "", "", "", cli._fmt(lower_median([r[4] for r in timed]))])
        expected = {
            "census": [list(map(str, r)) for r in cli._census_rows(thread, BinSpec(), BinSpec().labels)],
            "degrees": [list(map(str, r)) for r in cli._degree_rows(thread)],
            "timing": timing,
        }
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(line + "\n", encoding="utf-8")
        for command, name in (
            (["census"], "census"), (["degrees"], "degrees"), (["timing", "201-b"], "timing")
        ):
            out = tmp_path / name
            argv = [*command, "--input", str(corpus), "--out", str(out)]
            assert main([*argv, "--min-extra-posts", "0", "--jobs", "1"]) == 0
            assert read_rows(out / f"{name}.csv")[1:] == expected[name]
        capsys.readouterr()


# Fuzz strategies. Corpus lines are raw bytes, near-valid threads (whose
# timestamps reach past 64 bits) or text at the JSON decoder's limits.
_posts = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["p0", "p1", "p2", ""]),
        "parent": st.sampled_from([None, "p0", "p1", "p9"]),
        "author": st.sampled_from(["a", "b", "[deleted]", "\udc80x"]),
        "t": st.one_of(st.integers(), st.integers(-(10**400), 10**400)),
    }
)
_threads = st.fixed_dictionaries(
    {
        "thread_id": st.sampled_from(["t1", "t2", "", "t\ud800"]),
        "source": st.sampled_from(["focus", "baseline", "other"]),
        "posts": st.lists(_posts, max_size=6),
    }
)
_corpus_lines = st.one_of(
    st.binary(max_size=80),
    _threads.map(lambda t: json.dumps(t).encode()),
    st.integers(1, 100_000).map(lambda n: b"[" * n),
    st.integers(1, 6000).map(lambda n: b'{"t": ' + b"9" * n + b"}"),
)
_corpora = st.builds(
    lambda lines, end: end.join(lines),
    st.lists(_corpus_lines, max_size=6),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
)


def _census_line(n_users, class_index, source):
    counts = [0] * 36
    counts[class_index] = math.comb(n_users - 1, 2)
    return ",".join(map(str, [f"t{n_users}", source, n_users, "", *counts])).encode()


_census_lines = st.one_of(
    st.binary(max_size=80),
    st.builds(_census_line, st.integers(1, 45), st.integers(0, 35), st.sampled_from(["focus", "baseline"])),
    st.lists(st.one_of(st.integers().map(str), st.text(max_size=4)), max_size=40).map(
        lambda fields: ",".join(fields).encode()
    ),
    st.integers(131_000, 132_000).map(lambda n: b"9" * n),
)
_census_files = st.builds(
    lambda header, lines: b"\n".join([header, *lines]),
    st.sampled_from([",".join(census_header()).encode(), b""]),
    st.lists(_census_lines, max_size=6),
)
_FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FUZZ
@given(data=_corpora, command=st.sampled_from(CORPUS_COMMANDS))
@example(data=b"[" * 200_000, command=["census"])
@example(data=HUGE_GAPS.encode(), command=["macro"])
def test_any_corpus_bytes_exit_cleanly(tmp_path, monkeypatch, capsys, data, command):
    """Any corpus exits 0, with the same CSVs and stderr at --jobs 1 and at
    --jobs 2 with one line per batch: no input makes a row function raise."""
    corpus = tmp_path / "fuzz.jsonl"
    corpus.write_bytes(data)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def run(jobs):
        out = tmp_path / f"j{jobs}"
        shutil.rmtree(out, ignore_errors=True)  # left by an earlier example
        argv = [*command, "--input", str(corpus), "--out", str(out),
                "--min-extra-posts", "0", "--jobs", jobs]
        assert main(argv) == 0
        return csv_files(out), capsys.readouterr().err

    serial = run("1")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "BATCH_BYTES", 1)
        assert run("2") == serial


def _synth_line(seed: int, source: str) -> bytes:
    """One synth_corpus thread of 3 to 34 users, its id named by its seed."""
    thread = synth_corpus(1, source, 0.5, seed=seed)[0]._replace(thread_id=f"s{seed}")
    return to_json_line(thread).encode()


# _corpus_lines, with valid threads of up to 34 users and special text added.
_reference_corpora = st.builds(
    lambda lines, end: end.join(lines),
    st.lists(
        st.one_of(
            st.builds(_synth_line, st.integers(0, 5), st.sampled_from(["focus", "baseline"])),
            special_threads().map(str.encode),
            _corpus_lines,
        ),
        max_size=8,
    ),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
)


def nesting_corpus_bytes() -> bytes:
    """A thread nested MAX_NESTING deep, one nested a level deeper, and lines
    of MAX_NESTING and of 985 [. With the verdict left to the JSON decoder's
    recursion budget, Python 3.11 called the last one invalid JSON in one
    process and nested too deeply in another."""
    return b"\n".join([
        nested_thread_line(MAX_NESTING, "at"),
        nested_thread_line(MAX_NESTING + 1, "past"),
        b"[" * MAX_NESTING,
        b"[" * 985,
    ])


def _reference_examples(**extra):
    """The explicit corpora that each reference test starts from."""
    corpora = [
        (hostile_corpus_bytes(), 5, False),
        (reply_first_corpus_bytes(), 1, False),
        (special_corpus_bytes(), 5, False),
        (nesting_corpus_bytes(), 0, False),
        (
            b"\n".join([to_json_line(fig2_thread()).encode(), *(v[0] for v in HOSTILE_LINES.values())]),
            0, True,
        ),
    ]

    def examples(test):
        for data, min_extra_posts, keep_deleted in corpora:
            test = example(
                data=data, min_extra_posts=min_extra_posts, keep_deleted=keep_deleted, **extra
            )(test)
        return test

    return examples


def _reference_runs(
    tmp_path, monkeypatch, capsys, command, names, data, min_extra_posts, keep_deleted
):
    """The named CSVs' bytes and stderr of ``command`` on corpus ``data``, at
    --jobs 1, then at --jobs 2 with one line per batch."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(data)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    flags = ["--min-extra-posts", str(min_extra_posts)] + ["--keep-deleted-root"] * keep_deleted

    def run(jobs):
        out = tmp_path / f"j{jobs}"
        argv = [*command, "--input", str(corpus), "--out", str(out), "--jobs", jobs, *flags]
        assert main(argv) == 0
        return (*((out / name).read_bytes() for name in names), capsys.readouterr().err)

    serial = run("1")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "BATCH_BYTES", 1)
        return [serial, run("2")]


_REFERENCE_ARGS = dict(
    data=_reference_corpora, min_extra_posts=st.integers(0, 6), keep_deleted=st.booleans()
)


@_FUZZ
@given(**_REFERENCE_ARGS)
@_reference_examples()
def test_census_matches_the_reference(
    tmp_path, monkeypatch, capsys, data, min_extra_posts, keep_deleted
):
    """census.csv and stderr equal support.census_reference's byte for byte,
    at --jobs 1 and at --jobs 2 with one line per batch."""
    expected = census_reference(
        data, min_extra_posts=min_extra_posts, drop_deleted_root=not keep_deleted
    )
    runs = _reference_runs(
        tmp_path, monkeypatch, capsys, ["census"], ["census.csv"], data, min_extra_posts, keep_deleted
    )
    assert runs == [expected, expected]


@_FUZZ
@given(**_REFERENCE_ARGS)
@_reference_examples()
def test_degrees_matches_the_reference(
    tmp_path, monkeypatch, capsys, data, min_extra_posts, keep_deleted
):
    """degrees.csv, degree_hist.csv and stderr equal support.degrees_reference's
    byte for byte, at --jobs 1 and at --jobs 2 with one line per batch."""
    expected = degrees_reference(
        data, min_extra_posts=min_extra_posts, drop_deleted_root=not keep_deleted
    )
    runs = _reference_runs(
        tmp_path, monkeypatch, capsys, ["degrees"], ["degrees.csv", "degree_hist.csv"],
        data, min_extra_posts, keep_deleted,
    )
    assert runs == [expected, expected]


@_FUZZ
@given(
    class_name=st.sampled_from([c.name for c in class_table_oracle().classes if c.name != "003"]),
    **_REFERENCE_ARGS,
)
@_reference_examples(class_name="201-b")
def test_timing_matches_the_reference(
    tmp_path, monkeypatch, capsys, data, min_extra_posts, keep_deleted, class_name
):
    """timing.csv and stderr equal support.timing_reference's byte for byte,
    at --jobs 1 and at --jobs 2 with one line per batch."""
    expected = timing_reference(
        data, class_name, min_extra_posts=min_extra_posts, drop_deleted_root=not keep_deleted
    )
    runs = _reference_runs(
        tmp_path, monkeypatch, capsys, ["timing", class_name], ["timing.csv"],
        data, min_extra_posts, keep_deleted,
    )
    assert runs == [expected, expected]


@_FUZZ
@given(branching_mode=st.sampled_from(["internal", "all"]), **_REFERENCE_ARGS)
@_reference_examples(branching_mode="all")
@example(data=b"", min_extra_posts=0, keep_deleted=False, branching_mode="internal")
def test_macro_matches_the_reference(
    tmp_path, monkeypatch, capsys, data, min_extra_posts, keep_deleted, branching_mode
):
    """macro_metrics.csv, the four ECDF files and stderr equal
    support.macro_reference's byte for byte, at --jobs 1 and at --jobs 2 with
    one line per batch."""
    expected = macro_reference(
        data, branching_mode, min_extra_posts=min_extra_posts, drop_deleted_root=not keep_deleted
    )
    runs = _reference_runs(
        tmp_path, monkeypatch, capsys, ["macro", "--branching-mode", branching_mode],
        ["macro_metrics.csv", *(f"ecdf_{metric}.csv" for metric in README_MACRO_METRICS)],
        data, min_extra_posts, keep_deleted,
    )
    assert runs == [expected, expected]


def _bin_ranges(steps):
    """Ascending inclusive ranges from 1 up: each (gap, width) step leaves
    ``gap`` user counts out of every bin, then spans ``width`` + 1 counts."""
    ranges, start = [], 1
    for gap, width in steps:
        ranges.append((start + gap, start + gap + width))
        start += gap + width + 1
    return tuple(ranges)


def z_of_one_corpora() -> dict[str, bytes]:
    """A focus and a baseline corpus whose 1-5 bin has Z exactly 1 for class
    021U-a: the baseline counts 1 and 0 of it (mean and sigma 1/2), the focus
    counts 1."""
    star = [("p0", None, "a", 0), ("p1", "p0", "b", 1), ("p2", "p0", "c", 2)]
    chain = [("p0", None, "a", 0), ("p1", "p0", "b", 1), ("p2", "p1", "c", 2)]
    return {
        source: b"\n".join(
            to_json_line(make_thread(f"t{i}", source, posts)).encode()
            for i, posts in enumerate(threads)
        )
        for source, threads in (("focus", [star]), ("baseline", [star, chain]))
    }


@_FUZZ
@given(
    focus=_reference_corpora,
    baseline=_reference_corpora,
    bins=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=5).map(
        _bin_ranges
    ),
    rarity_threshold=st.one_of(st.sampled_from([0.0, 1.0, 10.0]), st.floats(0, 50)),
)
@example(**z_of_one_corpora(), bins=((1, 5),), rarity_threshold=0.0)
@example(
    focus=hostile_corpus_bytes(), baseline=special_corpus_bytes(), bins=README_BINS[:2],
    rarity_threshold=10.0,
)
def test_compare_matches_the_reference(tmp_path, capsys, focus, baseline, bins, rarity_threshold):
    """compare.csv, expression_summary.csv and stderr equal
    support.compare_reference's byte for byte, on the census files that
    support.census_reference makes of two corpora."""
    censuses = []
    for side, data in (("focus", focus), ("baseline", baseline)):
        census, _ = census_reference(data, min_extra_posts=0)
        (tmp_path / f"{side}.csv").write_bytes(census)
        censuses.append(census)
    out = tmp_path / "out"
    argv = [
        "compare", "--focus", str(tmp_path / "focus.csv"),
        "--baseline", str(tmp_path / "baseline.csv"), "--out", str(out),
        "--bins", ",".join(f"{lo}-{hi}" for lo, hi in bins),
        "--rarity-threshold", repr(rarity_threshold),
    ]
    assert main(argv) == 0
    got = (
        (out / "compare.csv").read_bytes(),
        (out / "expression_summary.csv").read_bytes(),
        capsys.readouterr().err,
    )
    assert got == compare_reference(*censuses, bins, rarity_threshold)


def test_nesting_limit_holds_at_any_jobs(tmp_path, monkeypatch, capsys):
    """A thread nested MAX_NESTING deep is kept, and a line nested deeper is
    skipped, at --jobs 1 and at --jobs 2 with one line per batch: the verdict
    does not depend on the stack depth of the process that parses it."""
    runs = _reference_runs(
        tmp_path, monkeypatch, capsys, ["census"], ["census.csv"], nesting_corpus_bytes(), 0, False
    )
    csv_bytes, stderr = runs[0]
    assert [row[0] for row in csv.reader(csv_bytes.decode().splitlines())][1:] == ["at"]
    assert stderr == (
        "warning: skipped line 2: JSON nested too deeply\n"
        "warning: skipped line 3: invalid JSON (Expecting value)\n"
        "warning: skipped line 4: JSON nested too deeply\n"
        "warning: 3 malformed line(s)/thread(s) skipped\n"
    )
    assert runs[1] == runs[0]


@_FUZZ
@given(focus=_census_files, baseline=_census_files)
@example(focus=b"\xff", baseline=b"")
@example(focus=b"9" * 200_000, baseline=b"")
def test_any_census_bytes_exit_cleanly(tmp_path, focus, baseline):
    paths = tmp_path / "focus.csv", tmp_path / "baseline.csv"
    paths[0].write_bytes(focus)
    paths[1].write_bytes(baseline)
    argv = ["compare", "--focus", str(paths[0]), "--baseline", str(paths[1]),
            "--out", str(tmp_path / "out")]
    assert main(argv) in (0, 1, 2)
