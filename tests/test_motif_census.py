"""Anchored triad classes, census equivalence, and completion timing."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threadmotifs.cli import main
from threadmotifs.errors import InvalidLifetimeError, UndefinedMetricError
from threadmotifs.graphs import UserGraph, build_user_graph
from threadmotifs.motif_census import (
    DYAD_CODES,
    census_fast,
    census_naive,
    completion_fractions,
    get_class_table,
    motif_instances,
)

from support import (
    class_of,
    completion_oracle,
    dyad_code,
    fig2_thread,
    graph_from_names,
    instances_oracle,
    random_user_graph,
)

TABLE = get_class_table()

# Full expected table, derived by hand from the orbit/naming rules: swap
# orbit (d1,d2,d3) <-> (d2,d1,flip(d3)), canonical = lexicographic minimum
# under N<O<I<M, pinned letters for (I,I,N), (M,M,N), 012 into-anchor and
# the (I,M,N) variant, remaining letters by ascending canonical config.
EXPECTED_CLASSES = {
    "003": {("N", "N", "N")},
    "012-a": {("N", "N", "O"), ("N", "N", "I")},
    "012-b": {("N", "I", "N"), ("I", "N", "N")},
    "012-c": {("N", "O", "N"), ("O", "N", "N")},
    "102-a": {("N", "N", "M")},
    "102-b": {("N", "M", "N"), ("M", "N", "N")},
    "021D-a": {("N", "I", "I"), ("I", "N", "O")},
    "021D-b": {("O", "O", "N")},
    "021U-a": {("I", "I", "N")},
    "021U-b": {("N", "O", "O"), ("O", "N", "I")},
    "021C-a": {("N", "O", "I"), ("O", "N", "O")},
    "021C-b": {("N", "I", "O"), ("I", "N", "I")},
    "021C-c": {("O", "I", "N"), ("I", "O", "N")},
    "111D-a": {("N", "O", "M"), ("O", "N", "M")},
    "111D-b": {("I", "M", "N"), ("M", "I", "N")},
    "111D-c": {("N", "M", "O"), ("M", "N", "I")},
    "111U-a": {("N", "I", "M"), ("I", "N", "M")},
    "111U-b": {("N", "M", "I"), ("M", "N", "O")},
    "111U-c": {("O", "M", "N"), ("M", "O", "N")},
    "030T-a": {("O", "O", "O"), ("O", "O", "I")},
    "030T-b": {("O", "I", "I"), ("I", "O", "O")},
    "030T-c": {("I", "I", "O"), ("I", "I", "I")},
    "030C": {("O", "I", "O"), ("I", "O", "I")},
    "201-a": {("N", "M", "M"), ("M", "N", "M")},
    "201-b": {("M", "M", "N")},
    "120D-a": {("O", "O", "M")},
    "120D-b": {("I", "M", "O"), ("M", "I", "I")},
    "120U-a": {("O", "M", "I"), ("M", "O", "O")},
    "120U-b": {("I", "I", "M")},
    "120C-a": {("O", "I", "M"), ("I", "O", "M")},
    "120C-b": {("O", "M", "O"), ("M", "O", "I")},
    "120C-c": {("I", "M", "I"), ("M", "I", "O")},
    "210-a": {("O", "M", "M"), ("M", "O", "M")},
    "210-b": {("I", "M", "M"), ("M", "I", "M")},
    "210-c": {("M", "M", "O"), ("M", "M", "I")},
    "300": {("M", "M", "M")},
}

EXPECTED_VARIANTS_PER_BASE = {
    "003": 1, "012": 3, "102": 2, "021D": 2, "021U": 2, "021C": 3,
    "111D": 3, "111U": 3, "030T": 3, "030C": 1, "201": 2, "120D": 2,
    "120U": 2, "120C": 3, "210": 3, "300": 1,
}

# What `threadmotifs classes` prints, pinned: the classes in table order,
# each with its canonical config, its swap partner, and its M/A/N counts.
CLASSES_LISTING = """\
class,config1,config2,M,A,N
003,NNN,,0,0,3
012-a,NNO,NNI,0,1,2
012-b,NIN,INN,0,1,2
012-c,NON,ONN,0,1,2
102-a,NNM,,1,0,2
102-b,NMN,MNN,1,0,2
021D-a,NII,INO,0,2,1
021D-b,OON,,0,2,1
021U-a,IIN,,0,2,1
021U-b,NOO,ONI,0,2,1
021C-a,NOI,ONO,0,2,1
021C-b,NIO,INI,0,2,1
021C-c,OIN,ION,0,2,1
111D-a,NOM,ONM,1,1,1
111D-b,IMN,MIN,1,1,1
111D-c,NMO,MNI,1,1,1
111U-a,NIM,INM,1,1,1
111U-b,NMI,MNO,1,1,1
111U-c,OMN,MON,1,1,1
030T-a,OOO,OOI,0,3,0
030T-b,OII,IOO,0,3,0
030T-c,IIO,III,0,3,0
030C,OIO,IOI,0,3,0
201-a,NMM,MNM,2,0,1
201-b,MMN,,2,0,1
120D-a,OOM,,1,2,0
120D-b,IMO,MII,1,2,0
120U-a,OMI,MOO,1,2,0
120U-b,IIM,,1,2,0
120C-a,OIM,IOM,1,2,0
120C-b,OMO,MOI,1,2,0
120C-c,IMI,MIO,1,2,0
210-a,OMM,MOM,2,1,0
210-b,IMM,MIM,2,1,0
210-c,MMO,MMI,2,1,0
300,MMM,,3,0,0
"""

ALL_CONFIGS = list(itertools.product(DYAD_CODES, repeat=3))


def triad_digraph(config):
    """3-node networkx digraph realizing a config (0=anchor, 1, 2)."""
    g = nx.DiGraph()
    g.add_nodes_from([0, 1, 2])
    for (a, b), code in zip(((0, 1), (0, 2), (1, 2)), config):
        if code in ("O", "M"):
            g.add_edge(a, b)
        if code in ("I", "M"):
            g.add_edge(b, a)
    return g


class TestDyadCode:
    def test_all_states(self):
        g = graph_from_names(
            ["a", "b", "c", "d"], "a", [("a", "b"), ("c", "a"), ("a", "d"), ("d", "a")]
        )
        assert dyad_code(g, 0, 1) == "O"
        assert dyad_code(g, 1, 0) == "I"
        assert dyad_code(g, 0, 2) == "I"
        assert dyad_code(g, 0, 3) == "M"
        assert dyad_code(g, 1, 2) == "N"

    def test_flip_symmetry(self):
        flip = {"N": "N", "O": "I", "I": "O", "M": "M"}
        rng = random.Random(1)
        g = random_user_graph(rng, 6, 0.4)
        for x, y in itertools.permutations(range(6), 2):
            assert dyad_code(g, y, x) == flip[dyad_code(g, x, y)]


class TestClassTable:
    def test_full_expected_table(self):
        built = {c.name: set(c.configs) for c in TABLE.classes}
        assert built == EXPECTED_CLASSES

    def test_partitions_all_64_configs(self):
        assert len(TABLE.classes) == 36
        covered = [cfg for c in TABLE.classes for cfg in c.configs]
        assert len(covered) == 64
        assert set(covered) == set(ALL_CONFIGS)

    def test_exactly_eight_singleton_orbits(self):
        assert sum(1 for c in TABLE.classes if len(c.configs) == 1) == 8

    def test_variant_counts_per_base(self):
        counts = {}
        for c in TABLE.classes:
            counts[c.base] = counts.get(c.base, 0) + 1
        assert counts == EXPECTED_VARIANTS_PER_BASE

    def test_name_digits_sum_to_three(self):
        for c in TABLE.classes:
            digits = [int(d) for d in c.name[:3]]
            assert sum(digits) == 3
            assert digits == list(c.man_counts)

    def test_pinned_letters(self):
        assert class_of(TABLE, ("I", "I", "N")).name == "021U-a"
        assert class_of(TABLE, ("M", "M", "N")).name == "201-b"
        assert class_of(TABLE, ("I", "N", "N")).name == "012-b"
        assert class_of(TABLE, ("I", "M", "N")).name == "111D-b"

    def test_swap_invariance_of_classification(self):
        flip = {"N": "N", "O": "I", "I": "O", "M": "M"}
        for d1, d2, d3 in ALL_CONFIGS:
            assert class_of(TABLE, (d1, d2, d3)) is class_of(TABLE, (d2, d1, flip[d3]))

    def test_base_names_match_networkx_triad_type(self):
        for config in ALL_CONFIGS:
            cls = class_of(TABLE, config)
            assert cls.base == nx.triads.triad_type(triad_digraph(config))

    def test_empty_triad_class(self):
        assert class_of(TABLE, ("N", "N", "N")).name == "003"

    def test_030_base_man_pattern(self):
        for c in TABLE.classes:
            if c.base.startswith("030"):
                assert c.man_counts == (0, 3, 0)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            TABLE.named("999-z")

    def test_classes_listing_is_pinned(self, capsys):
        assert main(["classes"]) == 0
        assert capsys.readouterr().out == CLASSES_LISTING

    def test_build_is_deterministic(self):
        again = get_class_table.__wrapped__()
        assert again.names == TABLE.names
        assert [c.configs for c in again.classes] == [c.configs for c in TABLE.classes]


class TestCensus:
    def test_edgeless_graph(self):
        g = graph_from_names(list("abcd"), "a", [])
        census = census_naive(g, TABLE)
        assert census.counts[TABLE.named("003").index] == 3
        assert census.total == 3

    def test_fig2_census(self):
        g = build_user_graph(fig2_thread())
        census = census_naive(g, TABLE)
        by_name = dict(zip(TABLE.names, census.counts))
        expected = {name: 0 for name in TABLE.names}
        expected.update({"021U-a": 1, "111D-b": 4, "201-b": 1})
        assert by_name == expected
        assert census.total == 6

    def test_complete_mutual_graph(self):
        edges = {}
        for u, v in itertools.permutations(range(4), 2):
            edges[(u, v)] = 0
        g = UserGraph(users=("a", "b", "c", "d"), anchor=0, edges=edges)
        census = census_fast(g, TABLE)
        assert census.counts[TABLE.named("300").index] == 3
        assert census.total == 3

    def test_mutual_star_at_anchor(self):
        edges = []
        for leaf in ("b", "c", "d"):
            edges += [("a", leaf), (leaf, "a")]
        g = graph_from_names(list("abcd"), "a", edges)
        census = census_fast(g, TABLE)
        assert census.counts[TABLE.named("201-b").index] == 3

    def test_tiny_graphs_have_zero_pairs(self):
        for n in (1, 2):
            g = random_user_graph(random.Random(n), n, 0.9)
            assert census_fast(g, TABLE).total == 0

    def test_edgeless_ten_node_graph(self):
        g = UserGraph(users=tuple(f"u{i}" for i in range(10)), anchor=0, edges={})
        census = census_fast(g, TABLE)
        assert census.counts[TABLE.named("003").index] == 36
        assert census.total == 36

    @pytest.mark.parametrize("n", [3, 4])
    def test_fast_equals_naive_exhaustive(self, n):
        # Every digraph on n nodes, with every anchor.
        users = tuple(f"u{i}" for i in range(n))
        pairs = list(itertools.permutations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            edges = {pair: 0 for i, pair in enumerate(pairs) if mask >> i & 1}
            for anchor in range(n):
                g = UserGraph(users=users, anchor=anchor, edges=edges)
                assert census_fast(g, TABLE) == census_naive(g, TABLE)

    def test_fast_equals_naive_random(self):
        rng = random.Random(613)
        for _ in range(400):
            g = random_user_graph(rng, rng.randint(3, 25), rng.choice([0.05, 0.2, 0.5]))
            fast = census_fast(g, TABLE)
            assert fast == census_naive(g, TABLE)
            n = g.n_users
            assert fast.total == (n - 1) * (n - 2) // 2

    def test_edge_reversal_maps_classes(self):
        reverse_code = {"N": "N", "O": "I", "I": "O", "M": "M"}
        rng = random.Random(211)
        for _ in range(50):
            g = random_user_graph(rng, rng.randint(3, 12), 0.3)
            reversed_g = UserGraph(
                users=g.users,
                anchor=g.anchor,
                edges={(v, u): t for (u, v), t in g.edges.items()},
            )
            fwd = census_naive(g, TABLE)
            bwd = census_naive(reversed_g, TABLE)
            for cls in TABLE.classes:
                mirrored = tuple(reverse_code[d] for d in cls.configs[0])
                assert bwd.counts[TABLE.config_index[mirrored]] == fwd.counts[cls.index]
            assert bwd.total == fwd.total

    def test_base_sums_match_anchor_restricted_classical_census(self):
        # Summing anchored counts by base type must agree with a classical
        # triad census, restricted to triads containing the anchor, done by
        # an outside classifier.
        rng = random.Random(307)
        for _ in range(25):
            g = random_user_graph(rng, rng.randint(3, 12), 0.35)
            census = census_naive(g, TABLE)
            by_base: dict[str, int] = {}
            for cls, count in zip(TABLE.classes, census.counts):
                by_base[cls.base] = by_base.get(cls.base, 0) + count
            expected: dict[str, int] = {}
            others = [u for u in range(g.n_users) if u != g.anchor]
            for v, w in itertools.combinations(others, 2):
                config = (
                    dyad_code(g, g.anchor, v),
                    dyad_code(g, g.anchor, w),
                    dyad_code(g, v, w),
                )
                name = nx.triads.triad_type(triad_digraph(config))
                expected[name] = expected.get(name, 0) + 1
            assert {k: v for k, v in by_base.items() if v} == expected


class TestMotifInstances:
    def test_edgeless_instances(self):
        g = graph_from_names(list("abcde"), "a", [])
        assert motif_instances(g, TABLE.named("003")) == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_fig2_201b_instance(self):
        g = build_user_graph(fig2_thread())
        (pair,) = motif_instances(g, TABLE.named("201-b"))
        assert {g.users[pair[0]], g.users[pair[1]]} == {"yellow", "purple"}

    def test_fig2_300_absent(self):
        g = build_user_graph(fig2_thread())
        assert motif_instances(g, TABLE.named("300")) == []

    def test_instance_counts_match_census(self):
        rng = random.Random(401)
        for _ in range(20):
            g = random_user_graph(rng, rng.randint(3, 10), 0.4)
            census = census_naive(g, TABLE)
            for cls in TABLE.classes:
                assert len(motif_instances(g, cls)) == census.counts[cls.index]


@st.composite
def user_graphs(draw):
    """A digraph on 1 to 12 users with any anchor and any set of edges."""
    n = draw(st.integers(1, 12))
    anchor = draw(st.integers(0, n - 1))
    pairs = list(itertools.permutations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return UserGraph(tuple(f"u{i}" for i in range(n)), anchor, dict.fromkeys(edges, 0))


class TestInstancesOracle:
    """motif_instances gives the pair sweep's pairs, in its order, for every class."""

    def assert_all_classes(self, g):
        for cls in TABLE.classes:
            assert motif_instances(g, cls) == instances_oracle(g, cls), cls.name

    def test_every_four_node_digraph_and_anchor(self):
        pairs = list(itertools.permutations(range(4), 2))
        for mask in range(2 ** len(pairs)):
            edges = {pair: 0 for i, pair in enumerate(pairs) if mask >> i & 1}
            for anchor in range(4):
                self.assert_all_classes(UserGraph(("a", "b", "c", "d"), anchor, edges))

    @settings(max_examples=300, deadline=None)
    @given(user_graphs())
    @example(UserGraph(("solo",), 0, {}))
    @example(UserGraph(tuple("abcde"), 2, {(0, 1): 0, (1, 0): 0, (3, 4): 0, (4, 1): 0}))
    def test_random_graphs(self, g):
        self.assert_all_classes(g)

    def test_fig2(self):
        self.assert_all_classes(build_user_graph(fig2_thread()))


@st.composite
def timed_graphs(draw):
    """A user_graphs graph with random first-seen times, and a lifetime t0 <= t1."""
    g = draw(user_graphs())
    times = st.integers(-50, 150)
    edges = {e: draw(times) for e in sorted(g.edges)}
    t0 = draw(times)
    return g._replace(edges=edges), t0, draw(st.integers(t0, t0 + 100))


class TestCompletionFractions:
    @settings(max_examples=200, deadline=None)
    @given(timed_graphs())
    def test_matches_oracle(self, case):
        g, t0, t1 = case
        for cls in TABLE.classes:
            if cls.has_edges:
                assert completion_fractions(g, cls, t0, t1) == completion_oracle(
                    g, cls, t0, t1
                ), cls.name

    def test_all_edges_at_start(self):
        g = graph_from_names(
            ["op", "a", "b"], "op", {("a", "op"): 0, ("b", "op"): 0}
        )
        assert completion_fractions(g, TABLE.named("021U-a"), 0, 100) == [((1, 2), 0.0)]

    def test_last_edge_at_end(self):
        g = graph_from_names(
            ["op", "a", "b"], "op", {("a", "op"): 0, ("b", "op"): 100}
        )
        assert completion_fractions(g, TABLE.named("021U-a"), 0, 100) == [((1, 2), 1.0)]

    def test_max_edge_time_used(self):
        g = graph_from_names(
            ["op", "a", "b"], "op", {("a", "op"): 10, ("b", "op"): 60}
        )
        assert completion_fractions(g, TABLE.named("021U-a"), 0, 100) == [((1, 2), 0.6)]

    def test_zero_span_lifetime(self):
        g = graph_from_names(["op", "a", "b"], "op", {("a", "op"): 5, ("b", "op"): 5})
        assert completion_fractions(g, TABLE.named("021U-a"), 5, 5) == [((1, 2), 0.0)]

    def test_out_of_range_times_clamped(self):
        g = graph_from_names(
            ["op", "a", "b"], "op", {("a", "op"): -50, ("b", "op"): 500}
        )
        assert completion_fractions(g, TABLE.named("021U-a"), 0, 100) == [((1, 2), 1.0)]
        g2 = graph_from_names(
            ["op", "a", "b"], "op", {("a", "op"): -50, ("b", "op"): -10}
        )
        assert completion_fractions(g2, TABLE.named("021U-a"), 0, 100) == [((1, 2), 0.0)]

    def test_edge_free_class_undefined(self):
        g = graph_from_names(["op", "a", "b"], "op", [])
        with pytest.raises(UndefinedMetricError):
            completion_fractions(g, TABLE.named("003"), 0, 100)

    def test_inverted_lifetime_rejected(self):
        g = graph_from_names(["op", "a", "b"], "op", {("a", "op"): 1, ("b", "op"): 2})
        with pytest.raises(InvalidLifetimeError):
            completion_fractions(g, TABLE.named("021U-a"), 10, 5)

    def test_affine_rescaling_invariance(self):
        rng = random.Random(503)
        for _ in range(30):
            g = random_user_graph(rng, rng.randint(3, 8), 0.5)
            t0 = min(g.edges.values(), default=0)
            t1 = max(g.edges.values(), default=0)
            scale, shift = rng.choice([2, 3, 7]), rng.randint(-100, 100)
            scaled = UserGraph(
                users=g.users,
                anchor=g.anchor,
                edges={e: scale * t + shift for e, t in g.edges.items()},
            )
            for cls in TABLE.classes:
                if not cls.has_edges:
                    continue
                base = completion_fractions(g, cls, t0, t1)
                rescaled = completion_fractions(
                    scaled, cls, scale * t0 + shift, scale * t1 + shift
                )
                assert rescaled == base
                assert all(0.0 <= f <= 1.0 for _, f in base)
