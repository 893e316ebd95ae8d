"""End-to-end command-line pipeline tests."""

from __future__ import annotations

import csv
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from multiprocessing.connection import Connection
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import threadmotifs
from threadmotifs import cli, motif_census
from threadmotifs.cli import census_header, main
from threadmotifs.expression_stats import BinSpec
from threadmotifs.graphs import build_user_graph
from threadmotifs.motif_census import census_naive, get_class_table

from support import fig2_thread, make_thread, synth_corpus, to_json_line


def write_corpus(path, threads):
    path.write_text("\n".join(to_json_line(t) for t in threads) + "\n")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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
        assert "no threads remain" in capsys.readouterr().err

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
        expected = [census_header(table.names)]
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo on this platform")
    def test_workers_capped_at_usable_processors(self, tmp_path, monkeypatch):
        class ThreadWorker:
            """Stands in for multiprocessing.Process: serves batches on a thread."""

            started = []

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
                self.started.append(self)
                self.thread.start()

            def terminate(self):
                pass  # the thread ends once the parent closes its end

            def join(self):
                self.thread.join(timeout=30)
                assert not self.thread.is_alive()

        monkeypatch.setattr(multiprocessing, "Process", ThreadWorker)
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
        rows = read_rows(out / "compare.csv")
        header = rows[0]
        z_i, reason_i = header.index("z"), header.index("reason")
        for row in rows[1:]:
            if row[z_i]:
                assert float(row[z_i]) == 0.0
            else:
                assert row[reason_i] != ""

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
        header = ",".join(census_header(get_class_table().names)).encode()

        def census(name, *n_users):
            path = tmp_path / f"{name}.csv"
            lines = [_census_line(n, 0, "focus") for n in n_users]
            path.write_bytes(b"\n".join([header, *lines]) + b"\n")
            return path

        bins = ["--bins", f"1-5,6-{2 * 10**200}"]
        ok = census("ok", 2**63 - 1, 2**62)
        out = tmp_path / "cmp"
        argv = ["compare", "--focus", str(ok), "--baseline", str(ok), "--out", str(out), *bins]
        assert main(argv) == 0
        assert read_rows(out / "compare.csv")[1][:3] == [f"6-{2 * 10**200}", "003", "2"]
        for n_users in (2**63, 10**200):
            bad = census("bad", n_users)
            for focus, baseline in ((bad, ok), (ok, bad)):
                code = main(
                    ["compare", "--focus", str(focus), "--baseline", str(baseline),
                     "--out", str(out), *bins]
                )
                assert code == 1
                assert capsys.readouterr().err.splitlines()[-1] == (
                    f"error: line 2: {bad}: n_users must be below 2**63"
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
        threads = synth_corpus(12, "focus", 0.5, seed=41)
        lines = [to_json_line(t).encode() for t in threads]
        no_root = to_json_line(filler_thread("no-root")).replace("null", '"p9"')
        bad_utf8 = to_json_line(filler_thread("b", author="X")).replace('"X"', '"\xff"')
        lines[1:1] = [b"{broken"]  # line 2
        lines[4:4] = [b"", no_root.encode()]  # blank line 5, invalid thread on line 6
        lines[8:8] = [bad_utf8.encode("latin-1")]  # line 9
        lines[10:10] = [to_json_line(filler_thread("tiny", n_replies=1)).encode()]
        lines.append(lines[0])  # line 18 repeats line 1's thread id
        corpus = tmp_path / "hostile.jsonl"
        endings = [b"\r\n", b"\n", b"\r", b"\n"] * len(lines)  # all three line ends
        corpus.write_bytes(b"".join(line + end for line, end in zip(lines, endings)))
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
        assert len(list(cli._line_batches(hostile_corpus))) > 4
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

    @pytest.mark.parametrize("batch_bytes", [1, 3000])
    def test_ranges_cover_the_hostile_corpus(self, hostile_corpus, monkeypatch, batch_bytes):
        monkeypatch.setattr(cli, "BATCH_BYTES", batch_bytes)
        batches = list(cli._line_batches(hostile_corpus))
        assert len(batches) > 4
        data = hostile_corpus.read_bytes()
        assert b"".join(chunk for _, chunk in batches) == data
        assert [line for b in batches for line in b[1].splitlines()] == data.splitlines()

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        data=st.lists(st.sampled_from([b"a", b"b", b"\r", b"\n"]), max_size=200).map(b"".join),
        batch_bytes=st.integers(1, 64),
    )
    @example(data=b"a" * 200 + b"\nb\n", batch_bytes=64)  # a line over three blocks
    @example(data=b"ab\r\ncd\n", batch_bytes=3)  # a \r\n split across two blocks
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

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo on this platform")
    def test_fifo_input_gives_the_regular_files_bytes(
        self, tmp_path, hostile_corpus, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "BATCH_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def census(corpus, name):
            out = tmp_path / name
            assert main(["census", "--input", str(corpus), "--out", str(out), "--jobs", "2"]) == 0
            return (out / "census.csv").read_bytes(), capsys.readouterr().err

        from_file = census(hostile_corpus, "file")
        assert "warning: 4 malformed line(s)/thread(s) skipped" in from_file[1]
        fifo = tmp_path / "corpus.fifo"
        os.mkfifo(fifo)
        # The run forks workers, so the FIFO's writer is a process, not a thread.
        copy = (
            "import sys\n"
            "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
            "    dst.write(src.read())\n"
        )
        writer = subprocess.Popen([sys.executable, "-c", copy, str(hostile_corpus), str(fifo)])
        try:
            assert census(fifo, "fifo") == from_file
        finally:
            assert writer.wait(timeout=30) == 0


def run_python(script, *args):
    """Run a Python script in a fresh interpreter that imports this package."""
    src = Path(threadmotifs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=60,
    )


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
    "    conn.send((True, fn(*conn.recv())))\n"
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
def test_worker_exception_is_raised_in_input_order(tmp_path):
    lines = [to_json_line(filler_thread(f"t{i}")) for i in range(6)]
    lines[2:2] = ["not json"]  # before t3: reported
    lines[5:5] = ["not json either"]  # after t3: never reached
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    runs = [run_python(FAULTY_CENSUS, "raise", corpus, tmp_path / f"j{jobs}", jobs) for jobs in (1, 2)]
    assert [(p.returncode, p.stdout) for p in runs] == [(1, ""), (1, "")]
    assert runs[1].stderr == runs[0].stderr
    assert runs[0].stderr.splitlines() == [
        "warning: skipped line 3: invalid JSON (Expecting value)",
        "error: row function failed on t3",
    ]
    assert not (tmp_path / "j2" / "census.csv").exists()


def test_cli_import_leaves_numpy_out(tmp_path):
    """Start-up, and a serial census after it, load none of these modules."""
    corpus = write_corpus(tmp_path / "c.jsonl", [filler_thread("t1"), filler_thread("t2")])
    out = tmp_path / "out"
    script = (
        "import sys, threadmotifs.cli\n"
        "unwanted = ('numpy', 'dataclasses', 'multiprocessing', 'fractions')\n"
        "print([m for m in unwanted if m in sys.modules])\n"
        "code = threadmotifs.cli.main(['census', '--input', sys.argv[1], '--out', sys.argv[2],"
        " '--jobs', '1'])\n"
        "print(code, [m for m in unwanted if m in sys.modules])\n"
    )
    proc = run_python(script, corpus, out)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "0 []"]
    assert len(read_rows(out / "census.csv")) == 3


def test_failed_csv_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def rows():
        yield ("a", 1)
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        cli._write_csv(path, ("name", "n"), rows())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    cli._write_csv(path, ("name", "n"), [("a", 1)])
    assert path.read_text() == "name,n\na,1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


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
        ],
        ids=["jobs-abc", "no-subcommand", "inverted-bins", "negative-min-extra-posts", "unknown-class"],
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
        seen = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(cli, "_thread_rows", lambda args, row_fn: seen.append(args.jobs) or [])
        for jobs in ([], ["--jobs", "0"], ["--jobs", "2"], ["--jobs", "5000"]):
            assert main(["census", "--input", "c", "--out", str(tmp_path), *jobs]) == 0
        assert seen == [3, 3, 2, 3]


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
        assert error == f"error: line 3: {bad}: bad CSV (field larger than field limit (131072))"


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
    st.sampled_from([",".join(census_header(get_class_table().names)).encode(), b""]),
    st.lists(_census_lines, max_size=6),
)
_FUZZ = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_FUZZ
@given(data=_corpora, command=st.sampled_from(CORPUS_COMMANDS))
@example(data=b"[" * 200_000, command=["census"])
@example(data=HUGE_GAPS.encode(), command=["macro"])
def test_any_corpus_bytes_exit_cleanly(tmp_path, data, command):
    corpus = tmp_path / "fuzz.jsonl"
    corpus.write_bytes(data)
    argv = [*command, "--input", str(corpus), "--out", str(tmp_path / "out"),
            "--min-extra-posts", "0", "--jobs", "1"]
    assert main(argv) in (0, 1, 2)


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
