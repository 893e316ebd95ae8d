"""Shared builders and independent oracles used across the test suite."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

import threadmotifs
from threadmotifs.errors import CorpusParseError, ThreadValidationError
from threadmotifs.graphs import UserGraph
from threadmotifs.motif_census import (
    DYAD_CODES, AnchoredTriadClass, ClassTable, TriadConfig, census_naive
)
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


def nested_thread_line(depth: int, thread_id: str = "t") -> bytes:
    """A valid two-post thread as one line whose brackets nest ``depth``
    levels deep (at least 3), in an extra field the parser ignores."""
    thread = make_thread(thread_id, "focus", [("p0", None, "a", 0), ("p1", "p0", "b", 5)])
    nest = "[" * (depth - 1) + "]" * (depth - 1)
    return f'{to_json_line(thread)[:-1]}, "x": {nest}}}'.encode()


def run_python(script, *args, timeout=60, stderr=subprocess.PIPE):
    """Run a Python script in a fresh interpreter that imports this package.

    Its stdout is captured, and its stderr too unless ``stderr`` names
    another target, as subprocess.run takes it.
    """
    src = Path(threadmotifs.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, stdout=subprocess.PIPE, stderr=stderr, text=True, timeout=timeout,
    )


# The naming rules of the 36 anchored triad classes, which motif_census holds
# as data: class_table_oracle derives the table from them.
_FLIP = {"N": "N", "O": "I", "I": "O", "M": "M"}
# The nodes of a config's three dyads, in order (0 = anchor, 1 = v, 2 = w).
_PAIRS = ((0, 1), (0, 2), (1, 2))
# Holland-Leinhardt triad types in their conventional order; class columns
# follow this order, then the variant letter.
BASE_TYPES = (
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U",
    "030T", "030C", "201", "120D", "120U", "120C", "210", "300",
)
# Fixed letter assignments, applied before the deterministic sweep: the
# variants where every arrowhead meets at the anchor, and the lone-edge
# variant pointing into the anchor. Keys are canonical orbit representatives.
_PINNED_LETTERS: dict[TriadConfig, str] = {
    ("I", "I", "N"): "a",  # 021U: anchor receives from both peers
    ("M", "M", "N"): "b",  # 201: anchor centers two mutual dyads
    ("I", "M", "N"): "b",  # 111D: anchor holds the mutual and takes the extra edge
    ("N", "I", "N"): "b",  # 012: the single edge points into the anchor
}


def base_type_name(config: TriadConfig) -> str:
    """Holland-Leinhardt type of the unanchored triad underlying a config."""
    m = config.count("M")
    a = config.count("O") + config.count("I")
    base = f"{m}{a}{3 - m - a}"
    if base not in ("021", "030", "111", "120"):
        return base
    # The (tail, head) of each asymmetric dyad.
    tails, heads = zip(*(
        (x, y) if d == "O" else (y, x)
        for (x, y), d in zip(_PAIRS, config)
        if d in ("O", "I")
    ))
    if base == "030":
        return "030C" if len(set(tails)) == 3 else "030T"
    if base == "111":
        return "111D" if heads[0] in _PAIRS[config.index("M")] else "111U"
    if tails[0] == tails[1]:
        return base + "D"
    if heads[0] == heads[1]:
        return base + "U"
    return base + "C"


def class_table_oracle() -> ClassTable:
    """The class table derived from the naming rules.

    The 64 configs fall into swap orbits, (d1, d2, d3) <-> (d2, d1,
    flip(d3)), each represented by its lexicographic minimum under
    N < O < I < M. Within each base type, pinned letters are honored first
    and the remaining variants take the remaining letters in ascending
    canonical-config order; single-variant types carry no letter. The
    mutual/asymmetric/null counts are the digits of the base type's name.
    """
    def key(config):
        return tuple(map(DYAD_CODES.index, config))

    # itertools.product yields configs in N < O < I < M order, so each base
    # type's orbits are keyed by canonical config in ascending order.
    orbits: dict[str, dict] = {b: {} for b in BASE_TYPES}
    for config in itertools.product(DYAD_CODES, repeat=3):
        d1, d2, d3 = config
        members = tuple(sorted({config, (d2, d1, _FLIP[d3])}, key=key))
        if members[0] == config:
            orbits[base_type_name(config)][config] = members

    classes: list[AnchoredTriadClass] = []
    config_index: dict[TriadConfig, int] = {}
    name_index: dict[str, int] = {}
    for base, group in orbits.items():
        pins = [_PINNED_LETTERS.get(canonical) for canonical in group]
        free = iter(sorted(set("abc"[: len(group)]).difference(pins)))
        letters = [pin or next(free) for pin in pins]
        for letter, members in sorted(zip(letters, group.values())):
            cls = AnchoredTriadClass(
                index=len(classes),
                name=f"{base}-{letter}" if len(group) > 1 else base,
                base=base,
                configs=members,
                man_counts=tuple(int(digit) for digit in base[:3]),
            )
            name_index[cls.name] = cls.index
            for member in members:
                config_index[member] = cls.index
            classes.append(cls)
    return ClassTable(tuple(classes), config_index, name_index)


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


# The README's nesting limit: a line that nests deeper is malformed.
README_NESTING_LIMIT = 200


def nesting_oracle(text: str) -> int:
    """The most brackets open at once outside strings, read one character at
    a time: a backslash escapes the next character, a quote starts or ends a
    string, and ] and } close a level even where none is open."""
    depth = deepest = 0
    in_string = escaped = False
    for char in text:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == '"':
            in_string = not in_string
        elif not in_string and char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif not in_string and char in "]}":
            depth -= 1
    return deepest


def parse_oracle(line: bytes, line_no: int = 1) -> ThreadRecord:
    """parse_thread_line as a two-pass validator: check every post's fields,
    then index the posts in separate passes (ids, roots, parents, a walk
    from the root, authors)."""

    def fail(message: str):
        raise CorpusParseError(line_no, message)

    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as err:
        fail(f"invalid UTF-8 ({err.reason} at byte offset {err.start})")
    if nesting_oracle(text) > README_NESTING_LIMIT:
        fail("JSON nested too deeply")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        fail(f"invalid JSON ({err.msg})")
    except ValueError:
        fail("JSON integer has too many digits")
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
    texts = (thread_id, *ids, *users)
    for text in texts:
        try:
            text.encode()
        except UnicodeEncodeError:
            fail("text holds a lone surrogate, which UTF-8 cannot encode")
    if any("\r" in text for text in texts):
        fail("text holds a carriage return, which would split a CSV row")
    return ThreadRecord(
        thread_id, source, ids, tuple(parent_of), author_of, timestamps, users, roots[0]
    )


def user_graph_oracle(thread: ThreadRecord) -> UserGraph:
    """The user graph straight from the posts, by author name: an edge from
    each reply's author to its parent's, when they differ, at the earliest
    such reply; users are numbered in order of first post."""
    author = [thread.users[a] for a in thread.author_of]
    edges: dict[tuple[str, str], int] = {}
    for i, parent in enumerate(thread.parent_of):
        if parent is not None and author[i] != author[parent]:
            t = thread.timestamps[i]
            pair = (author[i], author[parent])
            edges[pair] = min(edges.get(pair, t), t)
    return graph_from_names(tuple(dict.fromkeys(author)), author[thread.root], edges)


def csv_row(fields) -> str:
    """One CSV row as the README writes it: a field that holds a comma, a
    quote or a newline is quoted, its quotes doubled; a row ends in a newline."""
    quoted = (
        '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\n') else text
        for text in map(str, fields)
    )
    return ",".join(quoted) + "\n"


# The README's default `--bins`: 1-5, 6-10, ..., 36-40.
README_BINS = tuple((lo, lo + 4) for lo in range(1, 40, 5))


def corpus_reference(
    data: bytes, min_extra_posts: int = 5, drop_deleted_root: bool = True,
    sentinel: str = "[deleted]",
) -> tuple[list[ThreadRecord], list[str]]:
    r"""The threads a corpus command keeps from corpus ``data``, in input
    order, and the stderr lines it writes about them, from the oracles and
    the README's rules alone.

    Lines end at \n, \r\n or a lone \r and are numbered from 1. A line of
    spaces and tabs is skipped quietly, and one parse_oracle rejects is
    skipped with a warning. Among valid threads the first with an id wins; a
    later one is skipped and counted with the malformed lines. The filter
    keeps a thread with at least ``min_extra_posts`` replies whose root
    author, when ``drop_deleted_root``, is not ``sentinel``.
    """
    kept, warnings = [], []
    first_line_of: dict[str, int] = {}
    parsed = 0
    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line.strip(b" \t"):
            continue
        try:
            thread = parse_oracle(line, line_no)
        except (CorpusParseError, ThreadValidationError) as err:
            warnings.append(f"warning: skipped {err}")
            continue
        first = first_line_of.setdefault(thread.thread_id, line_no)
        if first != line_no:
            warnings.append(
                f"warning: skipped line {line_no}: duplicate thread_id "
                f"{thread.thread_id!r} (first on line {first})"
            )
            continue
        parsed += 1
        root_author = thread.users[thread.author_of[thread.root]]
        if thread.n_posts - 1 >= min_extra_posts and not (
            drop_deleted_root and root_author == sentinel
        ):
            kept.append(thread)
    if warnings:
        warnings.append(f"warning: {len(warnings)} malformed line(s)/thread(s) skipped")
    if parsed > len(kept):
        warnings.append(f"info: filter dropped {parsed - len(kept)} of {parsed} threads")
    if not kept:
        warnings.append("warning: no threads remain after filtering")
    return kept, warnings


def _csv_bytes(header, rows) -> bytes:
    return "".join(map(csv_row, [header, *rows])).encode()


def _stderr(warnings) -> str:
    return "".join(w + "\n" for w in warnings)


def census_reference(data: bytes, **filters) -> tuple[bytes, str]:
    """The census.csv bytes and the stderr text of ``census`` on corpus
    ``data``: each kept thread's row holds census_naive's counts on
    user_graph_oracle, under the class table that the naming rules derive."""
    threads, warnings = corpus_reference(data, **filters)
    table = class_table_oracle()
    rows = []
    for thread in threads:
        census = census_naive(user_graph_oracle(thread), table)
        n = census.n_users
        label = next((f"{lo}-{hi}" for lo, hi in README_BINS if lo <= n <= hi), "")
        rows.append([thread.thread_id, thread.source, n, label, *census.counts])
    header = ["thread_id", "source", "n_users", "bin", *table.names]
    return _csv_bytes(header, rows), _stderr(warnings)


def reply_tree_oracle(thread: ThreadRecord) -> dict[str, tuple[int, int]]:
    """(in-degree, out-degree) of each post id, counted from thread.posts."""
    posts = thread.posts
    return {
        post.id: (sum(1 for other in posts if other.parent == post.id), int(post.parent is not None))
        for post in posts
    }


def degrees_reference(data: bytes, **filters) -> tuple[bytes, bytes, str]:
    """The degrees.csv and degree_hist.csv bytes and the stderr text of
    ``degrees`` on corpus ``data``. Each kept thread gives a row per user of
    user_graph_oracle, then one per post of reply_tree_oracle, named
    ``thread_id:node``; the histograms pool every row and are sorted."""
    threads, warnings = corpus_reference(data, **filters)
    rows = []
    for thread in threads:
        g = user_graph_oracle(thread)
        for i, user in enumerate(g.users):
            degrees = (sum(v == i for _, v in g.edges), sum(u == i for u, _ in g.edges))
            rows.append(("user", f"{thread.thread_id}:{user}", *degrees))
        for post, degrees in reply_tree_oracle(thread).items():
            rows.append(("reply", f"{thread.thread_id}:{post}", *degrees))
    hist = Counter(
        (graph, kind, degree)
        for graph, _, *degrees in rows
        for kind, degree in zip(("in", "out"), degrees)
    )
    return (
        _csv_bytes(("graph", "node", "in_degree", "out_degree"), rows),
        _csv_bytes(
            ("graph", "degree_kind", "degree", "count"),
            sorted((*key, count) for key, count in hist.items()),
        ),
        _stderr(warnings),
    )


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def timing_reference(data: bytes, class_name: str, **filters) -> tuple[bytes, str]:
    """The timing.csv bytes and the stderr text of ``timing class_name`` on
    corpus ``data``: completion_oracle's instances of each kept thread, by
    user name, and the lower median of every fraction."""
    threads, warnings = corpus_reference(data, **filters)
    table = class_table_oracle()
    cls = table.classes[table.name_index[class_name]]
    rows, fractions = [], []
    for thread in threads:
        g = user_graph_oracle(thread)
        t0, t1 = thread.timestamps[thread.root], max(thread.timestamps)
        for (v, w), fraction in completion_oracle(g, cls, t0, t1):
            fractions.append(fraction)
            rows.append(("instance", thread.thread_id, g.users[v], g.users[w], _fmt(fraction)))
    if fractions:
        rows.append(("median", "", "", "", _fmt(sorted(fractions)[(len(fractions) - 1) // 2])))
    else:
        warnings.append(f"warning: no instances of {class_name} found, median undefined")
    header = ("kind", "thread_id", "v_user", "w_user", "fraction")
    return _csv_bytes(header, rows), _stderr(warnings)


# The macro_metrics.csv columns after thread_id, n_posts and n_users; each
# has an ECDF file.
README_MACRO_METRICS = (
    "responsiveness_median_s", "reciprocity", "op_betweenness", "branching_factor"
)


def macro_reference(data: bytes, branching_mode: str, **filters) -> tuple:
    """The macro_metrics.csv and ecdf_<metric>.csv bytes, in README_MACRO_METRICS
    order, and the stderr text of ``macro --branching-mode branching_mode``
    on corpus ``data``: user_graph_oracle's users and edges, the lower median
    of the sorted gaps, betweenness_oracle_exact rounded once, the replies
    that parent_of counts over the replied-to posts or over all posts, and
    each ECDF from its sorted defined values."""
    threads, warnings = corpus_reference(data, **filters)
    rows = []
    for thread in threads:
        g = user_graph_oracle(thread)
        times = sorted(thread.timestamps)
        gaps = sorted(b - a for a, b in zip(times, times[1:]))
        parents = [p for p in thread.parent_of if p is not None]
        over = len(thread.parent_of) if branching_mode == "all" else len(set(parents))
        rows.append((
            thread.thread_id, thread.n_posts, g.n_users,
            gaps[(len(gaps) - 1) // 2] if gaps else None,
            sum((v, u) in g.edges for u, v in g.edges) / len(g.edges) if g.edges else 0.0,
            float(betweenness_oracle_exact(g)),
            len(parents) / over if over else None,
        ))
    files = [_csv_bytes(("thread_id", "n_posts", "n_users", *README_MACRO_METRICS),
                        [(*row[:3], *map(_fmt, row[3:])) for row in rows])]
    for column, metric in enumerate(README_MACRO_METRICS, start=3):
        values = sorted(row[column] for row in rows if row[column] is not None)
        if not values:
            warnings.append(f"warning: no defined values for {metric}, ECDF is empty")
        files.append(_csv_bytes(
            ("value", "cum_fraction"),
            [(_fmt(v), _fmt((i + 1) / len(values))) for i, v in enumerate(values)],
        ))
    return (*files, _stderr(warnings))


def compare_reference(
    focus: bytes, baseline: bytes, bins, rarity_threshold: float
) -> tuple[bytes, bytes, str]:
    """The compare.csv and expression_summary.csv bytes and the stderr text of
    ``compare`` on two census files, from the README's rules. Rows are re-binned
    by n_users into ``bins``, (lo, hi) pairs. A bin's mean and population
    variance of each class count are Fractions, each rounded once, and
    Z = (mean_focus - mu_null) / sigma_null is exact_z of those Fractions. A
    class is rare unless a mean on either side is above ``rarity_threshold``;
    then |Z| > 1 is over or under, and any other Z equal."""
    warnings, unbinned, fits = [], [], []
    for side, data in (("focus", focus), ("baseline", baseline)):
        header, *rows = csv.reader(io.StringIO(data.decode(), newline=""))
        strays = sum(row[1] != side for row in rows)
        if strays:
            warnings.append(
                f"warning: {strays} of {len(rows)} row(s) in the {side} census have another source"
            )
        groups = [[row[4:] for row in rows if lo <= int(row[2]) <= hi] for lo, hi in bins]
        if len(rows) > sum(map(len, groups)):
            left = len(rows) - sum(map(len, groups))
            unbinned.append(f"warning: {left} {side} graph(s) outside every bin left unbinned")
        fits.append([(len(group), exact_moments(group)) for group in groups])
    names = header[4:]
    cells = []  # bin, class, M, mu, sigma, se, N, mean, sigma, se, Z, reason
    for (lo, hi), (n, focus_stats), (m, null_stats) in zip(bins, *fits):
        for i, name in enumerate(names if m or n else ()):
            mu, sigma, se = rounded_moments(*null_stats[i], m) if m else (None,) * 3
            mean, *spread = rounded_moments(*focus_stats[i], n) if n else (None,) * 3
            reason = (
                "empty baseline bin" if not m else "empty focus bin" if not n
                else "zero baseline variance" if sigma == 0 else None
            )
            z = None if reason else exact_z(focus_stats[i][0], *null_stats[i])
            cells.append([f"{lo}-{hi}", name, m, mu, sigma, se, n, mean, *spread, z, reason])
    populated = {
        cell[1] for cell in cells for mean in (cell[3], cell[7])
        if mean is not None and mean > rarity_threshold
    }
    labels = {name: set() for name in names}
    rows = []
    for cell in cells:
        z = cell[10]
        label = (
            "rare" if cell[1] not in populated else "" if z is None
            else "over" if z > 1 else "under" if z < -1 else "equal"
        )
        labels[cell[1]].add(label)
        rows.append([*cell[:3], *map(_fmt, cell[3:6]), cell[6], *map(_fmt, cell[7:11]), label,
                     cell[11] or ""])
    summary = [
        (name, "+".join(sorted(labels[name] & {"over", "under"} or {"equal"}))
         if name in populated else "rare")
        for name in names
    ]
    columns = (
        "bin,class,M,mu_null,sigma_null,se_null,N,mean_focus,sigma_focus,se_focus,z,label,reason"
    ).split(",")
    return (
        _csv_bytes(columns, rows),
        _csv_bytes(("class", "labels"), summary),
        _stderr(warnings + unbinned),
    )


def exact_moments(group) -> list[tuple[Fraction, Fraction]]:
    """The mean and population variance of each count column of a group of
    census rows (ints or their digits), as exact Fractions: the variance is
    the mean of squared deviations from the mean."""
    k = len(group)
    stats = []
    for column in zip(*(map(int, counts) for counts in group)):
        mean = Fraction(sum(column), k)
        stats.append((mean, sum((m - mean) ** 2 for m in column) / k))
    return stats


def rounded_moments(mean: Fraction, variance: Fraction, k: int) -> tuple[float, float, float]:
    """The mean, population sigma and standard error sigma / sqrt(k) of a
    column of k counts, from its exact mean and variance, each rounded once."""
    sigma = math.sqrt(float(variance))
    return float(mean), sigma, sigma / math.sqrt(k)


def exact_z(mean: Fraction, mu: Fraction, variance: Fraction) -> float:
    """Z = (mean - mu) / sqrt(variance), from the exact difference of the
    means: the sign of that difference and the root of the exact Z**2,
    rounded once."""
    difference = mean - mu
    return math.copysign(math.sqrt(difference * difference / variance), difference)


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
    succ = [[] for _ in range(n)]
    for u, v in g.edges:
        succ[u].append(v)
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
