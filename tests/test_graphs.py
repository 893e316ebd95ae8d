"""The reply tree read from the thread, user-graph construction, and degree reports."""

from __future__ import annotations

import random

from threadmotifs.graphs import build_user_graph, degree_sequences
from threadmotifs.macro_metrics import branching_factor
from threadmotifs.thread_model import PostRecord, ThreadRecord

from support import fig2_thread, make_thread, synth_corpus


def edge_names(g):
    return {(g.users[u], g.users[v]): t for (u, v), t in g.edges.items()}


class TestReplyGraph:
    """The reply tree is the thread: its parent_of and root."""

    def test_star(self):
        thread = make_thread(
            "t",
            "focus",
            [("p0", None, "a", 0), ("p1", "p0", "b", 1), ("p2", "p0", "c", 2)],
        )
        assert thread.n_posts == 3
        assert thread.parent_of == (None, 0, 0)
        assert thread.root == 0

    def test_chain(self):
        thread = make_thread(
            "t",
            "focus",
            [("p0", None, "a", 0), ("p1", "p0", "b", 1), ("p2", "p1", "c", 2)],
        )
        assert thread.parent_of == (None, 0, 1)

    def test_fig2_root_in_degree(self):
        thread = fig2_thread()
        report = degree_sequences(thread)
        assert report.kind == "reply"
        assert report.in_degrees[thread.root] == 4

    def test_tree_invariants_on_random_corpora(self):
        for thread in synth_corpus(30, "focus", reply_back_prob=0.5, seed=3):
            assert sum(1 for p in thread.parent_of if p is None) == 1


class TestUserGraph:
    def test_single_interaction(self):
        thread = make_thread(
            "t", "focus", [("p0", None, "A", 0), ("p1", "p0", "B", 5)]
        )
        g = build_user_graph(thread)
        assert edge_names(g) == {("B", "A"): 5}
        assert g.users[g.anchor] == "A"

    def test_repeat_interaction_keeps_earliest_time(self):
        thread = make_thread(
            "t",
            "focus",
            [
                ("p0", None, "A", 0),
                ("p1", "p0", "B", 5),
                ("p2", "p0", "A", 7),
                ("p3", "p2", "B", 9),
            ],
        )
        g = build_user_graph(thread)
        assert edge_names(g) == {("B", "A"): 5}

    def test_self_replies_excluded(self):
        thread = make_thread(
            "t",
            "focus",
            [("p0", None, "A", 0), ("p1", "p0", "A", 1), ("p2", "p1", "B", 2)],
        )
        g = build_user_graph(thread)
        assert edge_names(g) == {("B", "A"): 2}

    def test_fig2_edges(self):
        g = build_user_graph(fig2_thread())
        assert g.n_users == 5
        assert set(edge_names(g)) == {
            ("blue", "red"),
            ("green", "red"),
            ("yellow", "red"),
            ("purple", "red"),
            ("red", "yellow"),
            ("red", "purple"),
        }

    def test_post_order_permutation_invariance(self):
        rng = random.Random(17)
        for thread in synth_corpus(20, "focus", reply_back_prob=0.5, seed=23):
            base = edge_names(build_user_graph(thread))
            posts = list(thread.posts)
            rng.shuffle(posts)
            shuffled = ThreadRecord.from_posts(thread.thread_id, thread.source, posts)
            assert edge_names(build_user_graph(shuffled)) == base

    def test_matches_reply_graph_author_pairs(self):
        # Collapsing the reply tree onto authors (dropping self-pairs and
        # keeping earliest duplicates) must reproduce the user graph.
        for thread in synth_corpus(20, "baseline", reply_back_prob=0.3, seed=29):
            by_id = {p.id: p for p in thread.posts}
            expected = {}
            for post in thread.posts:
                if post.parent is None:
                    continue
                pair = (post.author, by_id[post.parent].author)
                if pair[0] == pair[1]:
                    continue
                if pair not in expected or post.t < expected[pair]:
                    expected[pair] = post.t
            assert edge_names(build_user_graph(thread)) == expected


class TestDegreeSequences:
    def test_single_author_thread(self):
        thread = make_thread(
            "t", "focus", [("p0", None, "A", 0), ("p1", "p0", "A", 1)]
        )
        report = degree_sequences(build_user_graph(thread))
        assert report.kind == "user"
        assert report.in_degrees == (0,)
        assert report.out_degrees == (0,)

    def test_star_reply_tree(self):
        k = 5
        posts = [("p0", None, "a", 0)] + [
            (f"p{i}", "p0", f"u{i}", i) for i in range(1, k + 1)
        ]
        report = degree_sequences(make_thread("t", "focus", posts))
        assert report.kind == "reply"
        assert report.in_degrees[0] == k
        assert report.out_degrees[0] == 0
        assert set(report.out_degrees[1:]) == {1}
        assert report.in_degrees == (k,) + (0,) * k

    def test_fig2_anchor_degrees(self):
        g = build_user_graph(fig2_thread())
        report = degree_sequences(g)
        assert report.in_degrees[g.anchor] == 4
        assert report.out_degrees[g.anchor] == 2

    def test_degree_sums_equal_edge_count(self):
        for thread in synth_corpus(15, "focus", reply_back_prob=0.6, seed=31):
            g = build_user_graph(thread)
            report = degree_sequences(g)
            assert sum(report.in_degrees) == g.n_edges
            assert sum(report.out_degrees) == g.n_edges
            report = degree_sequences(thread)
            assert sum(report.in_degrees) == thread.n_posts - 1
            assert sum(report.out_degrees) == thread.n_posts - 1
            expected_out = [int(post != thread.root) for post in range(thread.n_posts)]
            assert list(report.out_degrees) == expected_out


def reply_tree_oracle(thread):
    """(in-degree, out-degree) of each post id, counted from thread.posts."""
    posts = thread.posts
    return {
        post.id: (sum(1 for other in posts if other.parent == post.id), int(post.parent is not None))
        for post in posts
    }


class TestReplyTreeFromThread:
    def test_degrees_and_branching_match_posts_oracle(self):
        corpus = synth_corpus(30, "focus", reply_back_prob=0.5, seed=3)
        # The same trees with every reply listed before its parent, and the
        # smallest such thread.
        reversed_threads = [
            ThreadRecord.from_posts(t.thread_id, t.source, t.posts[::-1]) for t in corpus
        ]
        forward = ThreadRecord.from_posts(
            "fwd", "focus", [PostRecord("p1", "p0", "b", 1), PostRecord("p0", None, "a", 0)]
        )
        assert forward.parent_of == (1, None)
        for thread in [*corpus, *reversed_threads, forward]:
            oracle = reply_tree_oracle(thread)
            report = degree_sequences(thread)
            assert report.kind == "reply"
            assert report.nodes == thread.post_ids
            assert dict(zip(report.nodes, zip(report.in_degrees, report.out_degrees))) == oracle
            n = thread.n_posts
            replied_to = sum(1 for din, _ in oracle.values() if din)
            assert branching_factor(thread, "internal") == (n - 1) / replied_to
            assert branching_factor(thread, "all") == (n - 1) / n
