"""Macroscopic metric definitions and their oracles."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threadmotifs.errors import UndefinedMetricError
from threadmotifs.graphs import UserGraph, build_user_graph
from threadmotifs.macro_metrics import (
    _op_betweenness_exact,
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
    betweenness_oracle_exact,
    fig2_thread,
    graph_from_names,
    make_thread,
    random_user_graph,
    run_python,
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


@st.composite
def anchored_digraphs(draw):
    """A digraph on 1 to 8 users whose anchor may lose its in-edges, its
    out-edges or both."""
    n = draw(st.integers(1, 8))
    anchor = draw(st.integers(0, n - 1))
    pairs = list(itertools.permutations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    drop_in, drop_out = draw(st.booleans()), draw(st.booleans())
    edges = {
        (u, v) for u, v in edges if not (drop_in and v == anchor or drop_out and u == anchor)
    }
    return UserGraph(tuple(f"u{i}" for i in range(n)), anchor, dict.fromkeys(edges, 0))


def mutual_star(k):
    """The anchor, user 0, linked both ways to each of k leaves."""
    edges = {}
    for leaf in range(1, k + 1):
        edges[(0, leaf)] = edges[(leaf, 0)] = 0
    return UserGraph(tuple(f"u{i}" for i in range(k + 1)), 0, edges)


def hub_graph(k, m):
    """Anchor 0 and a second hub 1 (not linked to each other); k leaves
    linked both ways to both hubs, then m leaves linked both ways to the
    anchor only."""
    edges = {}
    for leaf in range(2, k + 2):
        edges[(0, leaf)] = edges[(leaf, 0)] = edges[(1, leaf)] = edges[(leaf, 1)] = 0
    for leaf in range(k + 2, k + m + 2):
        edges[(0, leaf)] = edges[(leaf, 0)] = 0
    return UserGraph(tuple(f"u{i}" for i in range(k + m + 2)), 0, edges)


def hub_graph_sum(k, m):
    # k-leaf pairs split evenly between the two hubs; every other pair that
    # the anchor joins, m-leaf to hub 1 via a k-leaf included, has one path.
    return Fraction(k * (k - 1), 2) + m * (m - 1) + 2 * m * k + 2 * m * (k > 0)


def assert_exact_sum(g, expected):
    exact = _op_betweenness_exact(g)
    assert type(exact) is Fraction
    assert exact == expected
    assert op_betweenness(g) == float(exact)


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

    def test_exact_sum_matches_oracle_on_every_four_node_digraph(self):
        # Every digraph on 4 labelled nodes, with every anchor: 4,096 x 4.
        users = tuple(f"u{i}" for i in range(4))
        pairs = list(itertools.permutations(range(4), 2))
        for mask in range(2 ** len(pairs)):
            edges = {pair: 0 for i, pair in enumerate(pairs) if mask >> i & 1}
            for anchor in range(4):
                g = UserGraph(users=users, anchor=anchor, edges=edges)
                assert _op_betweenness_exact(g) == betweenness_oracle_exact(g)

    def test_mutual_star_closed_form(self):
        # Every leaf pair has one shortest path, through the anchor: k(k-1).
        for k in range(6):
            g = mutual_star(k)
            assert_exact_sum(g, betweenness_oracle_exact(g))
            assert_exact_sum(g, k * (k - 1))
        assert_exact_sum(mutual_star(300), 89_700)

    def test_hub_graph_closed_form(self):
        for k, m in itertools.product(range(5), repeat=2):
            g = hub_graph(k, m)
            assert_exact_sum(g, betweenness_oracle_exact(g))
            assert_exact_sum(g, hub_graph_sum(k, m))
        assert hub_graph_sum(150, 150) == 78_825
        assert_exact_sum(hub_graph(150, 150), 78_825)

    def test_large_star_takes_seconds_not_minutes(self):
        # A complexity guard, not a speed claim: this script ran in 1.3 s
        # once whole terms were int adds, and in 9.5 s with one Fraction add
        # per pair (Python 3.11.7, 2 vCPUs).
        script = (
            "import sys\n"
            "from threadmotifs.graphs import UserGraph\n"
            "from threadmotifs.macro_metrics import op_betweenness\n"
            "n = int(sys.argv[1])\n"
            "edges = {}\n"
            "for leaf in range(1, n):\n"
            "    edges[(0, leaf)] = edges[(leaf, 0)] = 0\n"
            "print(op_betweenness(UserGraph(tuple(map(str, range(n))), 0, edges)))\n"
        )
        proc = run_python(script, 2000, timeout=8)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{1999 * 1998:.1f}\n"

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(97)
        for _ in range(300):
            g = random_user_graph(rng, rng.randint(2, 10), rng.choice([0.1, 0.3, 0.6]))
            assert op_betweenness(g) == betweenness_oracle(g)

    @settings(max_examples=300, deadline=None)
    @given(anchored_digraphs())
    @example(graph_from_names("OABC", "O", [("O", "A"), ("A", "B"), ("B", "C"), ("O", "C")]))
    @example(graph_from_names("OABC", "O", [("A", "O"), ("B", "A"), ("C", "B"), ("C", "O")]))
    @example(graph_from_names("OABC", "O", [("A", "B"), ("B", "C"), ("C", "A")]))
    def test_exact_sum_matches_oracle(self, g):
        # The anchor of the three examples has no in-edges, no out-edges, no edges.
        exact = _op_betweenness_exact(g)
        assert exact == betweenness_oracle_exact(g)
        assert op_betweenness(g) == float(exact)
        # Successor lists follow the order of g.edges; the sum must not.
        assert _op_betweenness_exact(g._replace(edges=dict(reversed(g.edges.items())))) == exact


class TestBranchingFactor:
    def test_star(self):
        k = 4
        posts = [("p0", None, "a", 0)] + [
            (f"p{i}", "p0", f"u{i}", i) for i in range(1, k + 1)
        ]
        thread = make_thread("t", "focus", posts)
        assert branching_factor(thread, "internal") == k
        assert branching_factor(thread, "all") == k / (k + 1)

    def test_chain_of_four(self):
        posts = [
            ("p0", None, "a", 0),
            ("p1", "p0", "b", 1),
            ("p2", "p1", "c", 2),
            ("p3", "p2", "d", 3),
        ]
        assert branching_factor(make_thread("t", "focus", posts), "internal") == 1.0

    def test_two_internal_nodes(self):
        posts = [
            ("p0", None, "a", 0),
            ("p1", "p0", "b", 1),
            ("p2", "p0", "c", 2),
            ("p3", "p1", "d", 3),
        ]
        assert branching_factor(make_thread("t", "focus", posts), "internal") == 1.5

    def test_single_post_internal_undefined(self):
        thread = make_thread("t", "focus", [("p0", None, "a", 0)])
        with pytest.raises(UndefinedMetricError):
            branching_factor(thread, "internal")
        assert branching_factor(thread, "all") == 0.0

    def test_unknown_mode_rejected(self):
        thread = make_thread("t", "focus", [("p0", None, "a", 0)])
        with pytest.raises(ValueError):
            branching_factor(thread, "mean")

    def test_all_mode_formula_on_random_trees(self):
        for thread in synth_corpus(40, "focus", reply_back_prob=0.5, seed=41):
            n = thread.n_posts
            assert branching_factor(thread, "all") == (n - 1) / n


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
