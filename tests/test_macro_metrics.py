"""Macroscopic metric definitions and their oracles."""

from __future__ import annotations

import random

import pytest

from threadmotifs.errors import UndefinedMetricError
from threadmotifs.graphs import UserGraph, build_reply_graph, build_user_graph
from threadmotifs.macro_metrics import (
    branching_factor,
    ecdf,
    lower_median,
    macro_record,
    op_betweenness,
    reciprocity,
    responsiveness_median,
)

from support import (
    betweenness_oracle,
    fig2_thread,
    graph_from_names,
    make_thread,
    random_user_graph,
    synth_corpus,
)


def thread_with_times(times):
    posts = [("p0", None, "a", times[0])] + [
        (f"p{i}", "p0", f"u{i}", t) for i, t in enumerate(times[1:], start=1)
    ]
    return make_thread("t", "focus", posts)


class TestResponsiveness:
    def test_constant_gaps(self):
        assert responsiveness_median(thread_with_times([0, 10, 20])) == 10

    def test_lower_middle_of_sorted_gaps(self):
        # gaps 5, 55, 1 -> sorted 1, 5, 55 -> middle 5
        assert responsiveness_median(thread_with_times([0, 5, 60, 61])) == 5

    def test_simultaneous_posts(self):
        assert responsiveness_median(thread_with_times([0, 0])) == 0

    def test_even_count_takes_lower_middle(self):
        # gaps 1, 2, 3, 4 -> lower middle 2
        assert responsiveness_median(thread_with_times([0, 1, 3, 6, 10])) == 2

    def test_unsorted_input_is_sorted_first(self):
        assert responsiveness_median(thread_with_times([20, 0, 10])) == 10

    def test_single_post_undefined(self):
        with pytest.raises(UndefinedMetricError):
            responsiveness_median(thread_with_times([5]))


class TestReciprocity:
    def test_single_edge(self):
        g = graph_from_names(["A", "B"], "A", [("A", "B")])
        assert reciprocity(g) == 0.0

    def test_mutual_pair(self):
        g = graph_from_names(["A", "B"], "A", [("A", "B"), ("B", "A")])
        assert reciprocity(g) == 1.0

    def test_fig2(self):
        assert reciprocity(build_user_graph(fig2_thread())) == pytest.approx(
            4 / 6, abs=1e-12
        )

    def test_no_edges(self):
        g = graph_from_names(["A"], "A", [])
        assert reciprocity(g) == 0.0

    def test_adding_reciprocal_edge_never_decreases(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_user_graph(rng, rng.randint(2, 8), 0.3)
            unreciprocated = [
                (u, v) for (u, v) in g.edges if (v, u) not in g.edges
            ]
            if not unreciprocated:
                continue
            u, v = rng.choice(unreciprocated)
            extended = dict(g.edges)
            extended[(v, u)] = 0
            g2 = UserGraph(users=g.users, anchor=g.anchor, edges=extended)
            assert reciprocity(g2) >= reciprocity(g)


class TestOpBetweenness:
    def test_two_nodes(self):
        g = graph_from_names(["OP", "A"], "OP", [("A", "OP")])
        assert op_betweenness(g) == 0.0

    def test_chain_through_anchor(self):
        g = graph_from_names(["A", "OP", "B"], "OP", [("A", "OP"), ("OP", "B")])
        assert op_betweenness(g) == 1.0

    def test_mutual_star_three_leaves(self):
        edges = []
        for leaf in ("A", "B", "C"):
            edges += [("OP", leaf), (leaf, "OP")]
        g = graph_from_names(["OP", "A", "B", "C"], "OP", edges)
        assert op_betweenness(g) == 6.0

    def test_shortcut_halves_nothing(self):
        # A->OP->B plus direct A->B: two shortest paths? No: direct is shorter.
        g = graph_from_names(
            ["A", "OP", "B"], "OP", [("A", "OP"), ("OP", "B"), ("A", "B")]
        )
        assert op_betweenness(g) == 0.0

    def test_split_shortest_paths(self):
        # Two parallel length-2 routes A->OP->B and A->C->B: half the paths
        # pass the anchor.
        g = graph_from_names(
            ["A", "OP", "C", "B"],
            "OP",
            [("A", "OP"), ("OP", "B"), ("A", "C"), ("C", "B")],
        )
        assert op_betweenness(g) == 0.5

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(97)
        for _ in range(300):
            g = random_user_graph(rng, rng.randint(2, 10), rng.choice([0.1, 0.3, 0.6]))
            assert op_betweenness(g) == betweenness_oracle(g)


class TestBranchingFactor:
    def test_star(self):
        k = 4
        posts = [("p0", None, "a", 0)] + [
            (f"p{i}", "p0", f"u{i}", i) for i in range(1, k + 1)
        ]
        rg = build_reply_graph(make_thread("t", "focus", posts))
        assert branching_factor(rg, "internal") == k
        assert branching_factor(rg, "all") == k / (k + 1)

    def test_chain_of_four(self):
        posts = [
            ("p0", None, "a", 0),
            ("p1", "p0", "b", 1),
            ("p2", "p1", "c", 2),
            ("p3", "p2", "d", 3),
        ]
        rg = build_reply_graph(make_thread("t", "focus", posts))
        assert branching_factor(rg, "internal") == 1.0

    def test_two_internal_nodes(self):
        posts = [
            ("p0", None, "a", 0),
            ("p1", "p0", "b", 1),
            ("p2", "p0", "c", 2),
            ("p3", "p1", "d", 3),
        ]
        rg = build_reply_graph(make_thread("t", "focus", posts))
        assert branching_factor(rg, "internal") == 1.5

    def test_single_post_internal_undefined(self):
        rg = build_reply_graph(make_thread("t", "focus", [("p0", None, "a", 0)]))
        with pytest.raises(UndefinedMetricError):
            branching_factor(rg, "internal")
        assert branching_factor(rg, "all") == 0.0

    def test_unknown_mode_rejected(self):
        rg = build_reply_graph(make_thread("t", "focus", [("p0", None, "a", 0)]))
        with pytest.raises(ValueError):
            branching_factor(rg, "mean")

    def test_all_mode_formula_on_random_trees(self):
        for thread in synth_corpus(40, "focus", reply_back_prob=0.5, seed=41):
            rg = build_reply_graph(thread)
            n = rg.n_posts
            assert branching_factor(rg, "all") == (n - 1) / n


class TestEcdf:
    def test_singleton(self):
        curve = ecdf([5])
        assert curve.values == (5,)
        assert curve.fractions == (1.0,)

    def test_two_values_sorted(self):
        curve = ecdf([2, 1])
        assert curve.values == (1, 2)
        assert curve.fractions == (0.5, 1.0)

    def test_duplicates_keep_their_ranks(self):
        curve = ecdf([3, 1, 3, 7])
        assert curve.values == (1, 3, 3, 7)
        assert curve.fractions == (0.25, 0.5, 0.75, 1.0)

    def test_permutation_invariant_and_ends_at_one(self):
        rng = random.Random(59)
        samples = [rng.uniform(-50, 50) for _ in range(200)]
        shuffled = samples[:]
        rng.shuffle(shuffled)
        assert ecdf(samples) == ecdf(shuffled)
        assert ecdf(samples).fractions[-1] == 1.0

    def test_empty_undefined(self):
        with pytest.raises(UndefinedMetricError):
            ecdf([])


class TestMacroRecord:
    def test_fig2_values(self):
        record = macro_record(fig2_thread())
        assert record.n_posts == 8
        assert record.n_users == 5
        assert record.reciprocity == pytest.approx(4 / 6, abs=1e-12)
        # gaps are all 10 seconds
        assert record.responsiveness_median_s == 10

    def test_undefined_metrics_are_none(self):
        record = macro_record(make_thread("t", "focus", [("p0", None, "a", 0)]))
        assert record.responsiveness_median_s is None
        assert record.branching_factor is None
        assert record.reciprocity == 0.0


def test_lower_median_conventions():
    assert lower_median([4]) == 4
    assert lower_median([1, 2]) == 1
    assert lower_median([3, 1, 2]) == 2
    assert lower_median([4, 1, 3, 2]) == 2
