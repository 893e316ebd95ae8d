"""Parse, validate, and filter corpora of threaded conversations.

A corpus is line-delimited JSON, one thread per line:

    {"thread_id": "t1", "source": "focus", "posts": [
        {"id": "p0", "parent": null, "author": "alice", "t": 1500000000},
        {"id": "p1", "parent": "p0", "author": "bob",   "t": 1500000060}]}

Exactly one post per thread has ``parent: null`` (the root post); every
other post's parent must name another post in the same thread, and the
parent links must form a tree. Timestamps are signed 64-bit integer Unix
seconds and are not required to be monotone along parent links.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CorpusParseError, ThreadValidationError

SOURCES = ("focus", "baseline")
DELETED_SENTINEL = "[deleted]"
# The deepest nesting a line may have: far above the three levels a thread needs,
# and far below the JSON decoder's recursion budget, which depends on the call
# depth (on Python 3.11, 1,000 frames less the caller's).
MAX_NESTING = 200
_ESCAPE = re.compile(rb"\\.", re.DOTALL)
_BRACKETS = bytes.maketrans(b"{}", b"[]")
_NOT_STRUCTURE = bytes(set(range(256)).difference(b'"[]{}'))
_LEVEL_STEP = {ord("["): 1, ord("]"): -1}


class PostRecord(NamedTuple):
    """One post: the root when ``parent`` is None, otherwise a reply."""

    id: str
    parent: str | None
    author: str
    t: int


class ThreadRecord(NamedTuple):
    """One thread in columnar form, indexed once when it is built.

    Post ``i`` has id ``post_ids[i]``, replies to post ``parent_of[i]``
    (None for the root, whose index is ``root``), was written by
    ``users[author_of[i]]`` and posted at ``timestamps[i]``. ``users`` holds
    the distinct authors in order of first appearance. Build records with
    ``from_posts`` or ``parse_thread_line``, which check every field and
    the reply tree.
    """

    thread_id: str
    source: str
    post_ids: tuple[str, ...]
    parent_of: tuple[int | None, ...]
    author_of: tuple[int, ...]
    timestamps: tuple[int, ...]
    users: tuple[str, ...]
    root: int

    @classmethod
    def from_posts(
        cls, thread_id: str, source: str, posts: Iterable[PostRecord]
    ) -> ThreadRecord:
        """Check and index (id, parent, author, t) posts given in any order."""
        return _index_thread(
            thread_id, source, [dict(zip(PostRecord._fields, post)) for post in posts]
        )

    @property
    def posts(self) -> tuple[PostRecord, ...]:
        """The posts as records, rebuilt from the columns on each access."""
        ids, users = self.post_ids, self.users
        return tuple(
            PostRecord(pid, None if parent is None else ids[parent], users[author], t)
            for pid, parent, author, t in zip(
                ids, self.parent_of, self.author_of, self.timestamps
            )
        )

    @property
    def n_posts(self) -> int:
        return len(self.post_ids)


class _FilterPolicy(NamedTuple):
    min_extra_posts: int = 5
    drop_deleted_root: bool = True
    deleted_sentinel: str = DELETED_SENTINEL


class FilterPolicy(_FilterPolicy):
    """Corpus-level thread filter: minimum size and deleted-root removal."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.min_extra_posts < 0:
            raise ValueError("min_extra_posts must be non-negative")
        return self


def _index_thread(
    thread_id: str, source: str, posts: list[dict], line_no: int | None = None
) -> ThreadRecord:
    """Check a thread's fields and index its posts in one pass.

    Faults are reported in this order: the thread's fields, no posts, each
    post's fields in post order, a duplicate id (the first in post order),
    the root count, an unknown parent (the first in post order), a cycle, a
    lone surrogate, a carriage return. A field fault is a
    ``CorpusParseError`` when the thread came from line ``line_no``, else a
    ``ThreadValidationError``.
    """

    def fail(message: str):
        raise ThreadValidationError(thread_id, message, line_no)

    def bad_field(message: str):
        if line_no is None:
            fail(message)
        raise CorpusParseError(line_no, message)

    if not (isinstance(thread_id, str) and thread_id):
        bad_field("missing or empty 'thread_id'")
    if source not in SOURCES:
        bad_field(f"'source' must be one of {SOURCES}")
    if not isinstance(posts, list):
        bad_field("'posts' must be an array")
    if not posts:
        fail("thread has no posts")
    index: dict[str, int] = {}
    user_index: dict[str, int] = {}
    parent_of: list[int | None] = []
    author_of: list[int] = []
    timestamps: list[int] = []
    roots: list[int] = []
    duplicate = None
    # Set when some parent is not an earlier post: a later one, the post
    # itself, or none at all.
    forward = False
    for i, raw in enumerate(posts):
        if not isinstance(raw, dict):
            bad_field("each post must be a JSON object")
        pid, parent = raw.get("id"), raw.get("parent")
        author, t = raw.get("author"), raw.get("t")
        if not (isinstance(pid, str) and pid):
            bad_field("post 'id' must be a non-empty string")
        if not (parent is None or isinstance(parent, str)):
            bad_field(f"post {pid!r}: 'parent' must be a string or null")
        if not isinstance(author, str):
            bad_field(f"post {pid!r}: 'author' must be a string")
        if not isinstance(t, int) or isinstance(t, bool):
            bad_field(f"post {pid!r}: 't' must be an integer")
        if not -(2**63) <= t < 2**63:
            bad_field(f"post {pid!r}: 't' out of range")
        if parent is None:
            roots.append(i)
            parent_of.append(None)
        else:
            # Resolved before this post's own id goes in, so a post that is its
            # own parent stays unresolved and the tree walk below finds it.
            p = index.get(parent, -1)
            if p < 0:
                forward = True
            parent_of.append(p)
        if index.setdefault(pid, i) != i:
            duplicate = duplicate or pid
        author_of.append(user_index.setdefault(author, len(user_index)))
        timestamps.append(t)
    if duplicate:
        fail(f"duplicate post id {duplicate!r}")
    if len(roots) != 1:
        fail(f"expected exactly one root post, found {len(roots)}")
    ids = tuple(index)
    if forward:
        children: list[list[int]] = [[] for _ in ids]
        for i, p in enumerate(parent_of):
            if p == -1:
                parent = posts[i]["parent"]
                p = parent_of[i] = index.get(parent)
                if p is None:
                    fail(f"post {ids[i]!r} replies to unknown parent {parent!r}")
            if p is not None:
                children[p].append(i)
        # Every post must be reachable from the root, else the parent links
        # cycle. Without forward references each parent precedes its child,
        # so following parents always ends at the root.
        reached = 0
        stack = [roots[0]]
        while stack:
            reached += 1
            stack.extend(children[stack.pop()])
        if reached != len(ids):
            fail("parent links contain a cycle")
    users = tuple(user_index)
    # json.loads turns the escape "\ud800" into a lone surrogate, which no
    # UTF-8 output can hold (joining never pairs surrogates up), and "\r" into
    # a carriage return, which the CSV writer leaves unquoted.
    text = "".join((thread_id, *ids, *users))
    try:
        text.encode()
    except UnicodeEncodeError:
        fail("text holds a lone surrogate, which UTF-8 cannot encode")
    if "\r" in text:
        fail("text holds a carriage return, which would split a CSV row")
    return ThreadRecord(
        thread_id, source, ids, tuple(parent_of), tuple(author_of), tuple(timestamps),
        users, roots[0],
    )


def _nesting(line: bytes) -> int:
    """The deepest nesting of a line: the running count's maximum, where each
    ``[`` or ``{`` outside strings adds one and each ``]`` or ``}`` takes one
    away. A backslash escapes the byte after it."""
    # Without escapes, dropping adjacent quote pairs keeps every other byte in
    # or out of a string, and the pieces between the quotes left alternate.
    structure = _ESCAPE.sub(b"", line).translate(_BRACKETS, _NOT_STRUCTURE).replace(b'""', b"")
    if b'"' in structure:
        structure = b"".join(structure.split(b'"')[::2])
    # No "][" holds the maximum, so dropping them keeps it (a thread leaves "[[[]]]").
    steps = map(_LEVEL_STEP.__getitem__, structure.replace(b"][", b""))
    return max(itertools.accumulate(steps, initial=0))


def parse_thread_line(line: bytes, line_no: int = 1) -> ThreadRecord:
    """Parse and validate a single corpus line, given as UTF-8 bytes.

    Faults are reported in this order: UTF-8, nesting deeper than
    ``MAX_NESTING``, JSON, a line that is not an object, then the thread's
    (see ``_index_thread``).
    """
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as err:
        message = f"invalid UTF-8 ({err.reason} at byte offset {err.start})"
        raise CorpusParseError(line_no, message) from err
    # A line with no more opening brackets than the limit cannot nest deeper.
    if line.count(b"[") + line.count(b"{") > MAX_NESTING and _nesting(line) > MAX_NESTING:
        raise CorpusParseError(line_no, "JSON nested too deeply")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise CorpusParseError(line_no, f"invalid JSON ({err.msg})") from err
    except ValueError as err:  # an integer literal over int's digit limit
        raise CorpusParseError(line_no, "JSON integer has too many digits") from err
    if not isinstance(obj, dict):
        raise CorpusParseError(line_no, "thread must be a JSON object")
    return _index_thread(obj.get("thread_id"), obj.get("source"), obj.get("posts"), line_no)


def parse_numbered(
    lines: Iterable[bytes],
    on_error: Callable[[CorpusParseError | ThreadValidationError], None],
    first_line: int = 1,
) -> Iterator[tuple[int, ThreadRecord]]:
    """Yield (line number, thread) per well-formed thread of a corpus dump.

    Lines are UTF-8 bytes, decoded one at a time, so an undecodable line is
    reported like any other malformed one. A blank line holds only JSON
    whitespace (space, tab, CR, LF) and is skipped without a report. Each
    malformed line or invalid thread is reported to ``on_error``, and
    parsing continues. ``lines[0]`` is numbered ``first_line``, so a caller
    that parses a dump in pieces keeps the dump's line numbers.
    """
    for line_no, line in enumerate(lines, start=first_line):
        if not line.strip(b" \t\r\n"):
            continue
        try:
            yield line_no, parse_thread_line(line, line_no)
        except (CorpusParseError, ThreadValidationError) as err:
            on_error(err)


def filter_corpus(
    threads: Iterable[ThreadRecord], policy: FilterPolicy
) -> list[ThreadRecord]:
    """Keep threads with enough replies and (optionally) a surviving root author.

    A thread is retained when it has at least ``min_extra_posts`` posts in
    addition to the root, and its root author is not the deleted sentinel
    (unless ``drop_deleted_root`` is off). Order is preserved.
    """
    kept = []
    for thread in threads:
        if thread.n_posts - 1 < policy.min_extra_posts:
            continue
        root_author = thread.users[thread.author_of[thread.root]]
        if policy.drop_deleted_root and root_author == policy.deleted_sentinel:
            continue
        kept.append(thread)
    return kept


def thread_lifetime(thread: ThreadRecord) -> tuple[int, int]:
    """(root post timestamp, maximum timestamp over all posts)."""
    return thread.timestamps[thread.root], max(thread.timestamps)
