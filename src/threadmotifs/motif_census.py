"""Anchored triadic motif classes, census algorithms, and completion timing.

A triad (anchor, v, w) in a user graph is described by three dyad codes:
(dyad(anchor, v), dyad(anchor, w), dyad(v, w)), each one of

    N  no edge        O  first -> second only
    I  second -> first only        M  both directions

Exchanging v and w maps (d1, d2, d3) to (d2, d1, flip(d3)), so the 64
labeled configurations collapse into 36 classes: 8 swap-fixed singletons
and 28 two-config orbits. Each class is named by the Holland-Leinhardt
type of its underlying unanchored triad (mutual/asymmetric/null dyad
counts plus a C/U/D/T modifier) and, where the anchor position splits a
type into several variants, a trailing letter a/b/c.

The names and canonical configs are data, ``_CLASSES``; the tests derive
them from the naming rules and check each base type against networkx.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Mapping, NamedTuple

from .errors import InvalidLifetimeError, UndefinedMetricError
from .graphs import UserGraph

DYAD_CODES = ("N", "O", "I", "M")
_FLIP = {"N": "N", "O": "I", "I": "O", "M": "M"}
# For census_fast's closed form: the 10 unordered pairs of anchor-dyad codes,
# as positions in DYAD_CODES, each with its config when the peers are unlinked.
_UNLINKED_PAIRS = tuple(
    (i, j, (DYAD_CODES[i], DYAD_CODES[j], "N"))
    for i, j in itertools.combinations_with_replacement(range(len(DYAD_CODES)), 2)
)

TriadConfig = tuple[str, str, str]

# The 36 classes in column order, each with its canonical config: the first
# two columns of `threadmotifs classes`.
_CLASSES = (
    ("003", "NNN"),
    ("012-a", "NNO"), ("012-b", "NIN"), ("012-c", "NON"),
    ("102-a", "NNM"), ("102-b", "NMN"),
    ("021D-a", "NII"), ("021D-b", "OON"),
    ("021U-a", "IIN"), ("021U-b", "NOO"),
    ("021C-a", "NOI"), ("021C-b", "NIO"), ("021C-c", "OIN"),
    ("111D-a", "NOM"), ("111D-b", "IMN"), ("111D-c", "NMO"),
    ("111U-a", "NIM"), ("111U-b", "NMI"), ("111U-c", "OMN"),
    ("030T-a", "OOO"), ("030T-b", "OII"), ("030T-c", "IIO"),
    ("030C", "OIO"),
    ("201-a", "NMM"), ("201-b", "MMN"),
    ("120D-a", "OOM"), ("120D-b", "IMO"),
    ("120U-a", "OMI"), ("120U-b", "IIM"),
    ("120C-a", "OIM"), ("120C-b", "OMO"), ("120C-c", "IMI"),
    ("210-a", "OMM"), ("210-b", "IMM"), ("210-c", "MMO"),
    ("300", "MMM"),
)


def _swap_config(config: TriadConfig) -> TriadConfig:
    """The same triad with the two non-anchor nodes exchanged."""
    d1, d2, d3 = config
    return (d2, d1, _FLIP[d3])


class AnchoredTriadClass(NamedTuple):
    """One of the 36 anchored triad classes."""

    index: int
    name: str
    base: str
    configs: tuple[TriadConfig, ...]  # 1 or 2 members, canonical first
    man_counts: tuple[int, int, int]  # (mutual, asymmetric, null) dyads

    @property
    def has_edges(self) -> bool:
        return self.man_counts[0] + self.man_counts[1] > 0


class ClassTable(NamedTuple):
    """Total mapping from all 64 triad configs to the 36 anchored classes."""

    classes: tuple[AnchoredTriadClass, ...]
    config_index: Mapping[TriadConfig, int]
    name_index: Mapping[str, int]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)

    def named(self, name: str) -> AnchoredTriadClass:
        try:
            return self.classes[self.name_index[name]]
        except KeyError:
            raise KeyError(f"unknown anchored triad class {name!r}") from None


@lru_cache(maxsize=1)
def get_class_table() -> ClassTable:
    """The 36 classes of ``_CLASSES``, built once; do not mutate. A class holds
    its canonical config, then its swap when that differs."""
    classes: list[AnchoredTriadClass] = []
    config_index: dict[TriadConfig, int] = {}
    for index, (name, canonical) in enumerate(_CLASSES):
        config = tuple(canonical)
        members = tuple(dict.fromkeys((config, _swap_config(config))))
        base = name.split("-")[0]
        man_counts = tuple(int(digit) for digit in base[:3])
        classes.append(AnchoredTriadClass(index, name, base, members, man_counts))
        config_index.update(dict.fromkeys(members, index))
    name_index = {cls.name: cls.index for cls in classes}
    return ClassTable(tuple(classes), config_index, name_index)


class MotifCensus(NamedTuple):
    """Counts of the 36 anchored classes over one user graph."""

    counts: tuple[int, ...]
    n_users: int

    @property
    def total(self) -> int:
        return sum(self.counts)


def _anchored_dyads(g: UserGraph) -> tuple[list, dict[tuple[int, int], str]]:
    """One pass over the edges: ``code_of[u]`` is dyad(anchor, u), None for the
    anchor itself, and ``linked`` maps each non-anchor pair (v, w), v < w,
    with an edge between them to dyad(v, w)."""
    anchor = g.anchor
    code_of: list[str | None] = ["N"] * g.n_users
    code_of[anchor] = None
    linked: dict[tuple[int, int], str] = {}
    for u, v in g.edges:
        if u == anchor:
            code_of[v] = "M" if code_of[v] == "I" else "O"
        elif v == anchor:
            code_of[u] = "M" if code_of[u] == "O" else "I"
        elif u < v:
            linked[u, v] = "M" if linked.get((u, v)) == "I" else "O"
        else:
            linked[v, u] = "M" if linked.get((v, u)) == "O" else "I"
    return code_of, linked


def census_naive(g: UserGraph, table: ClassTable) -> MotifCensus:
    """Reference census: look up the class of every non-anchor pair directly,
    each dyad from two membership tests on the edges."""
    edges, anchor = g.edges, g.anchor

    def dyad(x: int, y: int) -> str:
        return DYAD_CODES[((x, y) in edges) + 2 * ((y, x) in edges)]

    counts = [0] * len(table.classes)
    others = [u for u in range(g.n_users) if u != anchor]
    for v, w in itertools.combinations(others, 2):
        counts[table.config_index[dyad(anchor, v), dyad(anchor, w), dyad(v, w)]] += 1
    return MotifCensus(tuple(counts), g.n_users)


def census_fast(g: UserGraph, table: ClassTable) -> MotifCensus:
    """Census in O(nodes + edges), identical to census_naive on every input.

    Closed-form counts over the anchor-dyad tallies cover every class whose
    peer dyad is N; each linked pair then moves to its true class.
    """
    code_of, linked = _anchored_dyads(g)
    class_of = table.config_index
    tally = list(map(code_of.count, DYAD_CODES))
    counts = [0] * len(table.classes)
    for i, j, config in _UNLINKED_PAIRS:
        n = tally[i]
        pairs = n * (n - 1) // 2 if i == j else n * tally[j]
        counts[class_of[config]] += pairs
    for (v, w), d3 in linked.items():
        c1, c2 = code_of[v], code_of[w]
        counts[class_of[c1, c2, "N"]] -= 1
        counts[class_of[c1, c2, d3]] += 1
    return MotifCensus(tuple(counts), g.n_users)


def motif_instances(g: UserGraph, cls: AnchoredTriadClass) -> list[tuple[int, int]]:
    """All non-anchor pairs (v, w), v < w, whose triad with the anchor is in cls.

    Sorted, in O(edges + instances). Either every config of cls has peer dyad
    N (swapping v and w keeps it), and the instances are the unlinked pairs
    across two anchor-dyad buckets, or none has, and they are linked pairs.
    """
    code_of, linked = _anchored_dyads(g)
    c1, c2, d3 = cls.configs[0]
    if d3 != "N":
        return sorted(
            p for p, d in linked.items() if (code_of[p[0]], code_of[p[1]], d) in cls.configs
        )
    left, right = ([u for u, code in enumerate(code_of) if code == c] for c in (c1, c2))
    pairs = itertools.combinations(left, 2) if c1 == c2 else itertools.product(left, right)
    return sorted(p for p in (tuple(sorted(q)) for q in pairs) if p not in linked)


def completion_fractions(
    g: UserGraph, cls: AnchoredTriadClass, t0: int, t1: int
) -> list[tuple[tuple[int, int], float]]:
    """Each instance of cls with the normalized age of its last-established edge.

    Returns one ((v, w), fraction) item per instance, in motif_instances
    order. The fraction takes the maximum first-seen timestamp over the
    instance's present directed edges and maps it onto [0, 1] across the
    lifetime [t0, t1] (clamped; 0 everywhere when t1 == t0).
    """
    if not cls.has_edges:
        raise UndefinedMetricError(
            f"class {cls.name} has no edges, completion time is undefined"
        )
    if t1 < t0:
        raise InvalidLifetimeError(f"lifetime ends before it starts ({t1} < {t0})")
    anchor = g.anchor
    # The latest edge time of each user with the anchor, and of each linked
    # pair (v < w) of other users; -inf for a user with no anchor edge. An
    # instance has an edge, so its completion is always an edge's time.
    latest = [-math.inf] * g.n_users
    pair_latest: dict[tuple[int, int], int] = {}
    for (u, v), t in g.edges.items():
        if u == anchor or v == anchor:
            other = v if u == anchor else u
            if t > latest[other]:
                latest[other] = t
        else:
            pair = (u, v) if u < v else (v, u)
            if t > pair_latest.get(pair, -math.inf):
                pair_latest[pair] = t
    instances = motif_instances(g, cls)
    span = t1 - t0
    if span == 0:
        return [(pair, 0.0) for pair in instances]
    peer = pair_latest.get
    timed = []
    for v, w in instances:
        completion = max(latest[v], latest[w], peer((v, w), -math.inf))
        fraction = (completion - t0) / span
        timed.append(((v, w), 0.0 if fraction < 0 else 1.0 if fraction > 1 else fraction))
    return timed
