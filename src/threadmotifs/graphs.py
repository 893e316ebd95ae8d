"""Graph abstractions built from a single thread.

Two views of the same conversation: the reply tree over posts, and the
user interaction graph over distinct authors. Edges point from the
replier toward the post/user being replied to, so a node's in-degree
counts the replies it received.
"""

from __future__ import annotations

from typing import NamedTuple

from .thread_model import ThreadRecord


class ReplyGraph(NamedTuple):
    """Tree of posts; each non-root post has one edge to its parent."""

    post_ids: tuple[str, ...]
    timestamps: tuple[int, ...]
    parent_of: tuple[int | None, ...]
    root: int

    @property
    def n_posts(self) -> int:
        return len(self.post_ids)

    @property
    def n_edges(self) -> int:
        return len(self.post_ids) - 1


class UserGraph(NamedTuple):
    """Simple directed graph of users, one distinguished anchor (the OP).

    ``edges`` maps (responder, responded-to) index pairs to the earliest
    timestamp at which that directed relation appeared. No self-loops;
    at most one edge per ordered pair.
    """

    users: tuple[str, ...]
    anchor: int
    edges: dict[tuple[int, int], int]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


class DegreeReport(NamedTuple):
    """Per-node in/out degrees for one graph."""

    kind: str  # "user" | "reply"
    nodes: tuple[str, ...]
    in_degrees: tuple[int, ...]
    out_degrees: tuple[int, ...]


def build_reply_graph(thread: ThreadRecord) -> ReplyGraph:
    """One node per post, one edge from each reply to the post it answers."""
    return ReplyGraph(
        post_ids=thread.post_ids,
        timestamps=thread.timestamps,
        parent_of=thread.parent_of,
        root=thread.root,
    )


def build_user_graph(thread: ThreadRecord) -> UserGraph:
    """Collapse the reply tree onto authors.

    A reply by user u to a post authored by user v (u != v) contributes the
    edge u -> v; repeat interactions keep the earliest timestamp. Replies to
    one's own posts contribute nothing. Users keep the thread's numbering.
    """
    author_of = thread.author_of
    edges: dict[tuple[int, int], int] = {}
    for u, parent, t in zip(author_of, thread.parent_of, thread.timestamps):
        if parent is None:
            continue
        v = author_of[parent]
        if u == v:
            continue
        key = (u, v)
        if key not in edges or t < edges[key]:
            edges[key] = t
    return UserGraph(users=thread.users, anchor=author_of[thread.root], edges=edges)


def degree_sequences(graph: ReplyGraph | UserGraph) -> DegreeReport:
    """Exact in/out degree of every node."""
    if isinstance(graph, ReplyGraph):
        kind, nodes = "reply", graph.post_ids
        arcs = [(c, p) for c, p in enumerate(graph.parent_of) if p is not None]
    else:
        kind, nodes, arcs = "user", graph.users, graph.edges
    in_deg = [0] * len(nodes)
    out_deg = [0] * len(nodes)
    for u, v in arcs:
        out_deg[u] += 1
        in_deg[v] += 1
    return DegreeReport(kind, nodes, tuple(in_deg), tuple(out_deg))
