"""Seeded synthetic corpus generator for the benchmark.

Every corpus is a pure function of its ``CorpusParams`` and a seed, built
in-process from ``random.Random(seed)`` so nothing is downloaded. Thread
sizes are the midpoints of ``n_threads`` equal-probability strata of a
capped Pareto law, in seeded order: the size multiset, and with it the
amount of work, is the same for every seed, while the thread contents
and their order are not.

The output is always valid UTF-8: author names include multi-byte
characters, and the malformed lines are bad JSON or invalid trees, never
bad bytes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass
from typing import Iterator

# Shared author pool, reused across threads. Non-ASCII names exercise
# multi-byte UTF-8 without ever emitting an invalid byte.
ASCII_NAMES = tuple(f"user{i}" for i in range(4000))
NONASCII_NAMES = tuple(
    f"{stem}{i}"
    for i in range(400)
    for stem in ("zoë", "jürgen", "ñandú", "małgosia", "владимир", "東京", "🦊fox")
)
DELETED = "[deleted]"
BASE_TIME = 1_500_000_000


@dataclass(frozen=True)
class CorpusParams:
    """Knobs of one generated corpus."""

    n_threads: int
    size_alpha: float  # Pareto tail index of posts per thread (smaller = heavier)
    size_min: int  # smallest thread, in posts
    size_cap: int  # largest thread, in posts
    users_exponent: float  # users per thread ~ posts ** exponent (lower = more reuse)
    op_reply_back: float  # chance a reply is the OP answering a non-OP post
    root_reply: float  # chance a non-OP reply answers the root post
    focus_share: float  # share of threads labelled "focus" (rest "baseline")
    malformed_frac: float  # share of lines that are bad JSON or invalid trees
    nonascii_frac: float  # share of author draws taken from the non-ASCII pool
    deleted_root_frac: float  # share of threads whose root author is deleted
    id_prefix: str = "t"


def _thread_sizes(rng: random.Random, p: CorpusParams) -> list[int]:
    sizes = []
    for i in range(p.n_threads):
        u = (i + 0.5) / p.n_threads
        size = int(p.size_min * (1.0 - u) ** (-1.0 / p.size_alpha))
        sizes.append(min(p.size_cap, max(1, size)))
    rng.shuffle(sizes)
    return sizes


def _author(rng: random.Random, p: CorpusParams) -> str:
    if rng.random() < p.nonascii_frac:
        return NONASCII_NAMES[int(rng.random() * len(NONASCII_NAMES))]
    return ASCII_NAMES[int(rng.random() * len(ASCII_NAMES))]


def _thread_posts(rng: random.Random, p: CorpusParams, n_posts: int) -> list[dict]:
    """One reply tree: n_posts posts by about n_posts ** users_exponent users."""
    n_users = max(1, min(n_posts, round(n_posts ** p.users_exponent)))
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < n_users:
        name = _author(rng, p)
        if name not in seen:
            seen.add(name)
            names.append(name)
    if rng.random() < p.deleted_root_frac:
        names[0] = DELETED
    op = names[0]
    t = BASE_TIME + int(rng.random() * 10_000_000)
    posts = [{"id": "p0", "parent": None, "author": op, "t": t}]
    non_op_posts: list[int] = []
    introduced = 1
    for j in range(1, n_posts):
        t += 1 + int(rng.expovariate(1 / 300))
        slots_left = n_posts - j
        if non_op_posts and rng.random() < p.op_reply_back and slots_left > n_users - introduced:
            author = op
            parent = non_op_posts[-1 - int(rng.random() * min(4, len(non_op_posts)))]
        else:
            if introduced < n_users and (
                slots_left <= n_users - introduced or rng.random() < 0.5
            ):
                author = names[introduced]
                introduced += 1
            else:
                author = names[1 + int(rng.random() * (introduced - 1))] if introduced > 1 else op
            parent = 0 if rng.random() < p.root_reply else int(rng.random() * j)
        if author != op:
            non_op_posts.append(j)
        posts.append({"id": f"p{j}", "parent": f"p{parent}", "author": author, "t": t})
    return posts


def _malformed_line(rng: random.Random, thread_id: str, source: str) -> str:
    """A line the parser must reject: bad JSON, or a thread that is not a tree."""
    kind = int(rng.random() * 4)
    good = [
        {"id": "p0", "parent": None, "author": "zoë0", "t": BASE_TIME},
        {"id": "p1", "parent": "p0", "author": "user1", "t": BASE_TIME + 5},
    ]
    if kind == 0:
        text = json.dumps({"thread_id": thread_id, "source": source, "posts": good}, ensure_ascii=False)
        return text[: len(text) // 2]  # truncated JSON
    if kind == 1:
        good[1]["parent"] = None  # two roots
    elif kind == 2:
        good[1]["parent"] = "p9"  # unknown parent
    else:
        good[1]["t"] = "soon"  # non-integer timestamp
    return json.dumps({"thread_id": thread_id, "source": source, "posts": good}, ensure_ascii=False)


def generate(p: CorpusParams, seed: int) -> Iterator[str]:
    """The corpus, one line (without newline) at a time."""
    rng = random.Random(f"{seed}:{p.id_prefix}")
    for i, n_posts in enumerate(_thread_sizes(rng, p)):
        thread_id = f"{p.id_prefix}{i}"
        source = "focus" if rng.random() < p.focus_share else "baseline"
        if rng.random() < p.malformed_frac:
            yield _malformed_line(rng, thread_id, source)
            continue
        thread = {"thread_id": thread_id, "source": source, "posts": _thread_posts(rng, p, n_posts)}
        yield json.dumps(thread, ensure_ascii=False, separators=(",", ":"))


def write_corpus(path, p: CorpusParams, seed: int) -> dict:
    """Write the corpus as UTF-8 JSONL and return its parameters and size.

    Lines are written as they are generated, so the generating process
    stays small: its peak RSS is inherited by the commands it starts.
    """
    lines = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in generate(p, seed):
            fh.write(line + "\n")
            lines += 1
    return {"params": asdict(p), "seed": seed, "lines": lines, "bytes": os.path.getsize(path)}
