"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from fractions import Fraction

from threadmotifs.errors import CorpusParseError, ThreadValidationError
from threadmotifs.graphs import UserGraph
from threadmotifs.motif_census import AnchoredTriadClass, ClassTable, TriadConfig
from threadmotifs.thread_model import SOURCES, PostRecord, ThreadRecord


def make_thread(thread_id, source, posts) -> ThreadRecord:
    """Build a thread from (id, parent, author, t) tuples."""
    return ThreadRecord.from_posts(thread_id, source, (PostRecord(*p) for p in posts))


def to_json_line(thread: ThreadRecord) -> str:
    """Serialize a thread back to its one-line corpus form."""
    return json.dumps(
        {
            "thread_id": thread.thread_id,
            "source": thread.source,
            "posts": [
                {"id": p.id, "parent": p.parent, "author": p.author, "t": p.t}
                for p in thread.posts
            ],
        }
    )


def class_of(table: ClassTable, config: TriadConfig) -> AnchoredTriadClass:
    """The class a triad config belongs to."""
    return table.classes[table.config_index[config]]


def fig2_thread() -> ThreadRecord:
    """The 8-post, 5-user example thread: four users reply to the root
    author, who replies back to two of them."""
    return make_thread(
        "fig2",
        "focus",
        [
            ("p1", None, "red", 0),
            ("p2", "p1", "blue", 10),
            ("p3", "p1", "green", 20),
            ("p4", "p1", "yellow", 30),
            ("p5", "p1", "purple", 40),
            ("p6", "p4", "red", 50),
            ("p7", "p5", "red", 60),
            ("p8", "p6", "yellow", 70),
        ],
    )


def graph_from_names(users, anchor, edges) -> UserGraph:
    """UserGraph from user names and {(src, dst): first_t} (or a pair list)."""
    index = {name: i for i, name in enumerate(users)}
    if not isinstance(edges, dict):
        edges = {pair: 0 for pair in edges}
    return UserGraph(
        users=tuple(users),
        anchor=index[anchor],
        edges={(index[u], index[v]): t for (u, v), t in edges.items()},
    )


def random_user_graph(rng: random.Random, n: int, density: float, anchor=None) -> UserGraph:
    """Random simple digraph with random edge timestamps."""
    edges = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                edges[(u, v)] = rng.randint(0, 1_000_000)
    return UserGraph(
        users=tuple(f"n{i}" for i in range(n)),
        anchor=rng.randrange(n) if anchor is None else anchor,
        edges=edges,
    )


def dyad_code(g: UserGraph, x: int, y: int) -> str:
    """Dyad state of the ordered pair (x, y): N no edge, O x -> y only,
    I y -> x only, M both directions."""
    fwd, bwd = (x, y) in g.edges, (y, x) in g.edges
    if fwd and bwd:
        return "M"
    return "O" if fwd else "I" if bwd else "N"


def instances_oracle(g: UserGraph, cls: AnchoredTriadClass) -> list[tuple[int, int]]:
    """Instances of cls by classifying every non-anchor pair (v, w), v < w,
    in ascending order, with dyad_code."""
    anchor = g.anchor
    others = [u for u in range(g.n_users) if u != anchor]
    return [
        (v, w)
        for v, w in itertools.combinations(others, 2)
        if (dyad_code(g, anchor, v), dyad_code(g, anchor, w), dyad_code(g, v, w))
        in cls.configs
    ]


def parse_oracle(line: str | bytes, line_no: int = 1) -> ThreadRecord:
    """parse_thread_line as a two-pass validator: check every post's fields,
    then index the posts in separate passes (ids, roots, parents, a walk
    from the root, authors)."""
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        obj = json.loads(line)
    except UnicodeDecodeError as err:
        message = f"invalid UTF-8 ({err.reason} at byte offset {err.start})"
        raise CorpusParseError(line_no, message) from err
    except json.JSONDecodeError as err:
        raise CorpusParseError(line_no, f"invalid JSON ({err.msg})") from err
    except RecursionError as err:
        raise CorpusParseError(line_no, "JSON nested too deeply") from err
    except ValueError as err:
        raise CorpusParseError(line_no, "JSON integer has too many digits") from err

    def fail(message: str):
        raise CorpusParseError(line_no, message)

    if not isinstance(obj, dict):
        fail("thread must be a JSON object")
    thread_id = obj.get("thread_id")
    if not (isinstance(thread_id, str) and thread_id):
        fail("missing or empty 'thread_id'")
    source = obj.get("source")
    if source not in SOURCES:
        fail(f"'source' must be one of {SOURCES}")
    raw_posts = obj.get("posts")
    if not isinstance(raw_posts, list):
        fail("'posts' must be an array")
    posts = []
    for raw in raw_posts:
        if not isinstance(raw, dict):
            fail("each post must be a JSON object")
        pid, parent = raw.get("id"), raw.get("parent")
        author, t = raw.get("author"), raw.get("t")
        if not (isinstance(pid, str) and pid):
            fail("post 'id' must be a non-empty string")
        if not (parent is None or isinstance(parent, str)):
            fail(f"post {pid!r}: 'parent' must be a string or null")
        if not isinstance(author, str):
            fail(f"post {pid!r}: 'author' must be a string")
        if not isinstance(t, int) or isinstance(t, bool):
            fail(f"post {pid!r}: 't' must be an integer")
        if not -(2**63) <= t < 2**63:
            fail(f"post {pid!r}: 't' out of range")
        posts.append((pid, parent, author, t))
    return _index_oracle(thread_id, source, posts, line_no)


def _index_oracle(thread_id, source, posts, line_no) -> ThreadRecord:
    def fail(message: str):
        raise ThreadValidationError(thread_id, message, line_no)

    if not posts:
        fail("thread has no posts")
    ids, parents, authors, timestamps = zip(*posts)
    index: dict[str, int] = {}
    for i, pid in enumerate(ids):
        if not pid:
            fail("empty post id")
        if pid in index:
            fail(f"duplicate post id {pid!r}")
        index[pid] = i
    roots = [i for i, parent in enumerate(parents) if parent is None]
    if len(roots) != 1:
        fail(f"expected exactly one root post, found {len(roots)}")
    parent_of: list[int | None] = []
    children: list[list[int]] = [[] for _ in ids]
    for i, parent in enumerate(parents):
        if parent is None:
            parent_of.append(None)
            continue
        p = index.get(parent)
        if p is None:
            fail(f"post {ids[i]!r} replies to unknown parent {parent!r}")
        parent_of.append(p)
        children[p].append(i)
    reached = 0
    stack = [roots[0]]
    while stack:
        reached += 1
        stack.extend(children[stack.pop()])
    if reached != len(ids):
        fail("parent links contain a cycle")
    user_index: dict[str, int] = {}
    author_of = tuple(user_index.setdefault(a, len(user_index)) for a in authors)
    users = tuple(user_index)
    try:
        for text in (thread_id, source, "".join(ids), "".join(users)):
            text.encode()
    except UnicodeEncodeError:
        fail("text holds a lone surrogate, which UTF-8 cannot encode")
    return ThreadRecord(
        thread_id, source, ids, tuple(parent_of), author_of, timestamps, users, roots[0]
    )


def completion_oracle(g: UserGraph, cls: AnchoredTriadClass, t0: int, t1: int) -> list:
    """instances_oracle's pairs, each with the latest first-seen time of any
    edge inside its triad, mapped exactly onto [t0, t1] and clamped to [0, 1]."""
    timed = []
    for v, w in instances_oracle(g, cls):
        triad = {g.anchor, v, w}
        last = max(t for (x, y), t in g.edges.items() if x in triad and y in triad)
        fraction = Fraction(0) if t1 == t0 else Fraction(last - t0, t1 - t0)
        timed.append(((v, w), float(min(max(fraction, Fraction(0)), Fraction(1)))))
    return timed


def _bfs_dist(succ, source):
    dist = [-1] * len(succ)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def betweenness_oracle(g: UserGraph) -> float:
    """Anchor betweenness by explicitly enumerating every shortest path.

    Independent of the production path-counting: lists all distance-
    increasing paths per ordered pair and checks anchor membership.
    Only meant for small graphs.
    """
    return float(betweenness_oracle_exact(g))


def betweenness_oracle_exact(g: UserGraph) -> Fraction:
    """betweenness_oracle's exact rational sum."""
    n = g.n_users
    anchor = g.anchor
    succ = g.successor_lists()
    total = Fraction(0)
    for s in range(n):
        if s == anchor:
            continue
        dist = _bfs_dist(succ, s)
        for t in range(n):
            if t in (s, anchor) or dist[t] < 0:
                continue
            paths = []

            def extend(u, path):
                if u == t:
                    paths.append(path)
                    return
                for v in succ[u]:
                    if dist[v] == dist[u] + 1 and dist[v] <= dist[t]:
                        extend(v, path + [v])

            extend(s, [s])
            through = sum(1 for path in paths if anchor in path)
            total += Fraction(through, len(paths))
    return total


def synth_corpus(n_threads, source, reply_back_prob, seed=20240301):
    """Synthetic corpora for planted-signal tests.

    Each thread: a root by "op", then replies by a user pool that land on
    the root 30% of the time and on a random earlier post otherwise, then
    the op replies back to each distinct user who answered an op post, with
    the given probability. The organic part is seeded per thread index only,
    so two corpora built with different reply-back probabilities share their
    organic structure exactly.
    """
    threads = []
    for i in range(n_threads):
        rng = random.Random(f"{seed}:{i}")
        pool = [f"u{j}" for j in range(rng.randint(3, 34))]
        n_replies = rng.randint(2 * len(pool), 4 * len(pool))
        posts = [("p0", None, "op", 0)]
        for j in range(1, n_replies + 1):
            parent_id = "p0" if rng.random() < 0.3 else rng.choice(posts)[0]
            posts.append((f"p{j}", parent_id, rng.choice(pool), j))
        author_of = {p[0]: p[2] for p in posts}
        t = n_replies + 1
        responded = set()
        extras = []
        for pid, parent, author, _ in posts[1:]:
            if author_of[parent] == "op" and author not in responded:
                responded.add(author)
                if rng.random() < reply_back_prob:
                    extras.append((f"r{len(extras)}", pid, "op", t))
                    t += 1
        posts.extend(extras)
        threads.append(make_thread(f"{source}-{i}", source, posts))
    return threads
