"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import csv
import itertools
import random
import time
from contextlib import contextmanager

import pytest

from threadmotifs.cli import main
from threadmotifs.errors import UndefinedMetricError
from threadmotifs.expression_stats import classify_expression
from threadmotifs.graphs import UserGraph, build_user_graph, degree_sequences
from threadmotifs.macro_metrics import (
    branching_factor,
    ecdf,
    lower_median,
    op_betweenness,
    reciprocity,
)
from threadmotifs.motif_census import (
    census_fast,
    census_naive,
    completion_fractions,
    get_class_table,
)
from threadmotifs.thread_model import FilterPolicy, filter_corpus

from support import (
    betweenness_oracle,
    class_of,
    fig2_thread,
    hand_cells,
    make_thread,
    random_user_graph,
    synth_corpus,
    to_json_line,
)

TABLE = get_class_table()


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number:2d} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {number:2d} ({name}): PASS")


def test_01_class_table_correctness():
    with criterion(1, "class table"):
        start = time.perf_counter()
        table = get_class_table.__wrapped__()
        elapsed = time.perf_counter() - start
        assert len(table.classes) == 36
        configs = [cfg for cls in table.classes for cfg in cls.configs]
        assert len(configs) == 64 and len(set(configs)) == 64
        assert sum(1 for cls in table.classes if len(cls.configs) == 1) == 8
        per_base = {}
        for cls in table.classes:
            per_base[cls.base] = per_base.get(cls.base, 0) + 1
        assert per_base == {
            "003": 1, "012": 3, "102": 2, "021D": 2, "021U": 2, "021C": 3,
            "111D": 3, "111U": 3, "030T": 3, "030C": 1, "201": 2, "120D": 2,
            "120U": 2, "120C": 3, "210": 3, "300": 1,
        }
        for cls in table.classes:
            assert sum(int(d) for d in cls.name[:3]) == 3
        assert elapsed < 1.0, f"table build took {elapsed:.3f}s"


def test_02_pinned_letters():
    with criterion(2, "pinned variant letters"):
        assert class_of(TABLE, ("I", "I", "N")).name == "021U-a"
        assert class_of(TABLE, ("M", "M", "N")).name == "201-b"
        assert class_of(TABLE, ("I", "N", "N")).name == "012-b"
        assert class_of(TABLE, ("I", "M", "N")).name == "111D-b"


def _assert_census_pair(g: UserGraph):
    fast = census_fast(g, TABLE)
    naive = census_naive(g, TABLE)
    assert fast == naive
    n = g.n_users
    assert fast.total == (n - 1) * (n - 2) // 2


def test_03_census_oracle_equivalence():
    with criterion(3, "census fast = naive"):
        start = time.perf_counter()
        rng = random.Random(1009)
        # (a) every edge subset of a fixed support: the full 6- and 12-pair
        # supports for n=3, 4 (i.e. genuinely all digraphs) and a random
        # 12-pair support for n=5.
        for n in (3, 4, 5):
            pairs = list(itertools.permutations(range(n), 2))
            support = pairs if len(pairs) <= 12 else rng.sample(pairs, 12)
            users = tuple(f"u{i}" for i in range(n))
            for mask in range(2 ** len(support)):
                edges = {
                    pair: 0 for i, pair in enumerate(support) if mask >> i & 1
                }
                _assert_census_pair(UserGraph(users=users, anchor=0, edges=edges))
        # (b) random digraphs across sizes and densities.
        densities = (0.05, 0.2, 0.5)
        for i in range(1002):
            g = random_user_graph(rng, rng.randint(3, 40), densities[i % 3])
            _assert_census_pair(g)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"census equivalence took {elapsed:.1f}s"


def test_04_fig2_fixture():
    with criterion(4, "fig2 fixture"):
        g = build_user_graph(fig2_thread())
        assert abs(reciprocity(g) - 4 / 6) <= 1e-9
        report = degree_sequences(g)
        assert report.in_degrees[g.anchor] == 4
        assert report.out_degrees[g.anchor] == 2
        census = census_naive(g, TABLE)
        expected = {name: 0 for name in TABLE.names}
        expected["021U-a"] = 1
        expected[class_of(TABLE, ("I", "M", "N")).name] = 4
        expected["201-b"] = 1
        assert dict(zip(TABLE.names, census.counts)) == expected


def test_05_betweenness_oracle():
    with criterion(5, "betweenness oracle"):
        rng = random.Random(733)
        for _ in range(200):
            g = random_user_graph(rng, rng.randint(2, 10), rng.choice([0.1, 0.3, 0.6]))
            assert op_betweenness(g) == betweenness_oracle(g)


def test_06_z_pipeline_identity(tmp_path):
    with criterion(6, "self-comparison Z identity"):
        corpus = synth_corpus(200, "baseline", reply_back_prob=0.15, seed=4242)
        corpus_path = tmp_path / "self.jsonl"
        corpus_path.write_text("".join(to_json_line(t) + "\n" for t in corpus))
        census_dir = tmp_path / "census"
        assert main(["census", "--input", str(corpus_path), "--out", str(census_dir)]) == 0
        census_csv = census_dir / "census.csv"
        out = tmp_path / "cmp"
        assert main(
            ["compare", "--focus", str(census_csv), "--baseline", str(census_csv), "--out", str(out)]
        ) == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        defined = 0
        for row in rows:
            if row["z"]:
                assert float(row["z"]) == 0.0
                assert float(row["sigma_null"]) > 0.0
                defined += 1
            else:
                assert row["reason"] != ""
        assert defined > 0


def _read_cells(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_07_planted_signal_recovery(tmp_path):
    with criterion(7, "planted signal recovery"):
        start = time.perf_counter()
        baseline = synth_corpus(2000, "baseline", reply_back_prob=0.15)
        focus = synth_corpus(2000, "focus", reply_back_prob=1.0)
        paths = {}
        for name, corpus in (("baseline", baseline), ("focus", focus)):
            corpus_path = tmp_path / f"{name}.jsonl"
            corpus_path.write_text("".join(to_json_line(t) + "\n" for t in corpus))
            out = tmp_path / f"census_{name}"
            assert main(["census", "--input", str(corpus_path), "--out", str(out)]) == 0
            paths[name] = out / "census.csv"
        cmp_dir = tmp_path / "cmp"
        assert main(
            ["compare", "--focus", str(paths["focus"]),
             "--baseline", str(paths["baseline"]), "--out", str(cmp_dir)]
        ) == 0
        cells = _read_cells(cmp_dir / "compare.csv")
        qualifying = {
            row["bin"]
            for row in cells
            if int(row["M"]) >= 50 and int(row["N"]) >= 50
        }
        assert qualifying
        labels = {}
        for row in cells:
            if row["bin"] in qualifying:
                labels.setdefault(row["class"], {})[row["bin"]] = row["label"]
        assert all(labels["201-b"][b] == "over" for b in qualifying)
        family = [n for n in TABLE.names if n.startswith("111")]
        assert any(
            all(labels[name].get(b) == "over" for b in qualifying) for name in family
        )
        # The forced reply-backs must show up as higher per-thread reciprocity.
        focus_median = lower_median(
            [reciprocity(build_user_graph(t)) for t in filter_corpus(focus, FilterPolicy())]
        )
        baseline_median = lower_median(
            [reciprocity(build_user_graph(t)) for t in filter_corpus(baseline, FilterPolicy())]
        )
        assert focus_median > baseline_median
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"planted-signal run took {elapsed:.1f}s"


def test_08_expression_thresholds():
    with criterion(8, "expression thresholds"):
        # Hand-built cells: class 003 never clears the rarity threshold;
        # 012-a and 012-b cross |Z|=1 in one bin; 012-c stays inside the band.
        cells = hand_cells(
            [
                ("1-5", "003", 9.0, 10.0, 8.0),
                ("6-10", "003", 3.0, 1.0, -6.0),
                ("1-5", "012-a", 12.0, 14.0, 2.0),
                ("6-10", "012-a", 15.0, 15.5, 0.5),
                ("1-5", "012-b", 12.0, 9.0, -3.0),
                ("1-5", "012-c", 25.0, 25.5, 0.5),
                ("6-10", "012-c", 30.0, 29.5, -0.5),
            ]
        )
        labeled = classify_expression(cells, rarity_threshold=10.0)
        assert labeled.class_labels["003"] == frozenset({"rare"})
        assert labeled.class_labels["012-a"] == frozenset({"over"})
        assert labeled.class_labels["012-b"] == frozenset({"under"})
        assert labeled.class_labels["012-c"] == frozenset({"equal"})


def test_09_filtering_fixture():
    with criterion(9, "corpus filtering"):
        def sized_thread(thread_id, n_posts, root_author):
            posts = [("p0", None, root_author, 0)] + [
                (f"p{i}", "p0", f"u{i}", i) for i in range(1, n_posts)
            ]
            return make_thread(thread_id, "focus", posts)

        corpus = [
            sized_thread("small-named", 5, "alice"),
            sized_thread("big-named", 6, "bob"),
            sized_thread("big-deleted", 6, "[deleted]"),
            sized_thread("small-deleted", 5, "[deleted]"),
            sized_thread("bigger-named", 7, "carol"),
        ]
        kept = filter_corpus(corpus, FilterPolicy())
        assert [t.thread_id for t in kept] == ["big-named", "bigger-named"]
        no_root_filter = filter_corpus(corpus, FilterPolicy(drop_deleted_root=False))
        assert [t.thread_id for t in no_root_filter] == [
            "big-named", "big-deleted", "bigger-named",
        ]


def test_10_metric_properties():
    with criterion(10, "metric properties"):
        rng = random.Random(31337)
        # ECDF: monotone, final fraction exactly 1.0.
        samples = [rng.gauss(0, 100) for _ in range(1000)]
        curve = ecdf(samples)
        assert all(a <= b for a, b in zip(curve.values, curve.values[1:]))
        assert all(a < b for a, b in zip(curve.fractions, curve.fractions[1:]))
        assert curve.fractions[-1] == 1.0
        # Completion fractions: in [0, 1] and invariant under affine rescale.
        for _ in range(40):
            g = random_user_graph(rng, rng.randint(3, 9), 0.5)
            times = list(g.edges.values())
            t0 = min(times, default=0)
            t1 = max(times, default=0)
            scale, shift = rng.choice([2, 5, 11]), rng.randint(-1000, 1000)
            rescaled = UserGraph(
                users=g.users,
                anchor=g.anchor,
                edges={e: scale * t + shift for e, t in g.edges.items()},
            )
            for cls in TABLE.classes:
                if not cls.has_edges:
                    continue
                base = completion_fractions(g, cls, t0, t1)
                assert all(0.0 <= f <= 1.0 for _, f in base)
                assert base == completion_fractions(
                    rescaled, cls, scale * t0 + shift, scale * t1 + shift
                )
        # Branching factor, literal mode: exactly (N-1)/N on random trees.
        for i in range(100):
            n = rng.randint(1, 60)
            posts = [("p0", None, "a", 0)]
            for j in range(1, n):
                parent = rng.choice(posts)[0]
                posts.append((f"p{j}", parent, f"u{rng.randint(0, 9)}", j))
            assert branching_factor(make_thread(f"t{i}", "focus", posts), "all") == (n - 1) / n
        with pytest.raises(UndefinedMetricError):
            ecdf([])
