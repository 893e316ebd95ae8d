"""Per-thread macroscopic metrics and empirical CDFs.

Four thread-level metrics: median inter-post gap (responsiveness), the
fraction of reciprocated user-graph edges, the anchor's unnormalized
betweenness centrality, and the reply-tree branching factor. Plus a
plain empirical CDF over any metric's corpus-wide sample.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import UndefinedMetricError
from .graphs import UserGraph, build_user_graph
from .thread_model import ThreadRecord

if TYPE_CHECKING:
    from fractions import Fraction

BRANCHING_MODES = ("internal", "all")


class MacroRecord(NamedTuple):
    """All macroscopic metrics for one thread; None marks undefined values."""

    thread_id: str
    n_posts: int
    n_users: int
    responsiveness_median_s: int | None
    reciprocity: float
    op_betweenness: float
    branching_factor: float | None


class Ecdf(NamedTuple):
    """Empirical CDF: sorted sample values with cumulative fractions i/n."""

    values: tuple[float, ...]
    fractions: tuple[float, ...]


def lower_median(values: Sequence) -> float:
    """Lower-middle order statistic: always an observed value, no interpolation."""
    if not values:
        raise UndefinedMetricError("median of an empty sample")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def responsiveness_median(thread: ThreadRecord) -> int:
    """Median gap between chronologically consecutive posts, in seconds."""
    if thread.n_posts < 2:
        raise UndefinedMetricError(
            f"thread {thread.thread_id!r}: responsiveness needs at least 2 posts"
        )
    ts = sorted(thread.timestamps)
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    return lower_median(gaps)


def reciprocity(g: UserGraph) -> float:
    """Fraction of directed edges whose reverse edge also exists; 0 if no edges."""
    if not g.edges:
        return 0.0
    mutual = sum(1 for (u, v) in g.edges if (v, u) in g.edges)
    return mutual / len(g.edges)


def _bfs_counts(succ: list[list[int]], source: int) -> tuple[list[int], list[int]]:
    """Hop distances and shortest-path counts from one source (-1 = unreachable)."""
    n = len(succ)
    dist = [-1] * n
    sigma = [0] * n
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
            if dist[v] == dist[u] + 1:
                sigma[v] += sigma[u]
    return dist, sigma


def op_betweenness(g: UserGraph) -> float:
    """Unnormalized betweenness of the anchor over directed hop-count paths.

    Sums sigma_st(anchor)/sigma_st over ordered pairs (s, t) of other nodes;
    unreachable pairs contribute 0. The anchor lies on a shortest s-t path
    exactly when dist(s, anchor) + dist(anchor, t) = dist(s, t), in which
    case the paths through it number sigma(s, anchor) * sigma(anchor, t).
    A pair with sigma_st = 1 adds exactly 1, counted as an int; only pairs
    whose shortest paths split take a Fraction add. The float is the nearest
    to the exact rational sum.
    """
    return float(_op_betweenness_exact(g))


def _op_betweenness_exact(g: UserGraph) -> Fraction:
    """op_betweenness's exact rational sum."""
    from fractions import Fraction  # here, so start-up skips fractions and decimal

    n = g.n_users
    anchor = g.anchor
    total = Fraction(0)
    if n <= 2:
        return total
    whole = 0  # pairs whose one shortest path passes the anchor: each adds 1
    succ: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        succ[u].append(v)
    dist_a, sigma_a = _bfs_counts(succ, anchor)
    for s in range(n):
        if s == anchor:
            continue
        dist_s, sigma_s = _bfs_counts(succ, s)
        if dist_s[anchor] < 0:
            continue
        d_sa = dist_s[anchor]
        for t in range(n):
            if t == anchor or dist_a[t] < 0:
                continue
            if d_sa + dist_a[t] == dist_s[t]:
                if sigma_s[t] == 1:
                    whole += 1
                else:
                    total += Fraction(sigma_s[anchor] * sigma_a[t], sigma_s[t])
    return total + whole


def branching_factor(thread: ThreadRecord, mode: str = "internal") -> float:
    """Average number of replies received per post of the thread's reply tree.

    Mode "internal" averages over posts that received at least one reply,
    (N-1)/|replied-to posts|; mode "all" is the literal all-node average
    in-degree (N-1)/N.
    """
    if mode not in BRANCHING_MODES:
        raise ValueError(f"unknown branching mode {mode!r}")
    n = thread.n_posts
    if mode == "all":
        return (n - 1) / n
    internal = len({p for p in thread.parent_of if p is not None})
    if internal == 0:
        raise UndefinedMetricError("single-post thread has no replied-to posts")
    return (n - 1) / internal


def ecdf(samples: Sequence[float]) -> Ecdf:
    """Empirical CDF of a non-empty sample."""
    if len(samples) == 0:
        raise UndefinedMetricError("ECDF of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    return Ecdf(
        values=tuple(ordered),
        fractions=tuple((i + 1) / n for i in range(n)),
    )


def macro_record(thread: ThreadRecord, branching_mode: str = "internal") -> MacroRecord:
    """Compute every macroscopic metric for one thread.

    Metrics that are undefined for the thread (too few posts, no replied-to
    posts) come back as None rather than aborting the corpus run.
    """
    ug = build_user_graph(thread)
    try:
        resp = responsiveness_median(thread)
    except UndefinedMetricError:
        resp = None
    try:
        bf = branching_factor(thread, branching_mode)
    except UndefinedMetricError:
        bf = None
    return MacroRecord(
        thread_id=thread.thread_id,
        n_posts=thread.n_posts,
        n_users=ug.n_users,
        responsiveness_median_s=resp,
        reciprocity=reciprocity(ug),
        op_betweenness=op_betweenness(ug),
        branching_factor=bf,
    )
