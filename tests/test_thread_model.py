"""Corpus parsing, thread validation, filtering, and lifetimes."""

from __future__ import annotations

import inspect
import json
import pickle
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threadmotifs.errors import CorpusParseError, ThreadValidationError
from threadmotifs.thread_model import (
    MAX_NESTING,
    SOURCES,
    FilterPolicy,
    PostRecord,
    ThreadRecord,
    filter_corpus,
    parse_numbered,
    parse_thread_line,
    thread_lifetime,
)

from support import make_thread, nested_thread_line, parse_oracle, synth_corpus, to_json_line


def thread_json(thread_id="t", source="focus", posts=None) -> bytes:
    if posts is None:
        posts = [
            {"id": "p0", "parent": None, "author": "a", "t": 0},
            {"id": "p1", "parent": "p0", "author": "b", "t": 5},
        ]
    return json.dumps({"thread_id": thread_id, "source": source, "posts": posts}).encode()


class TestParse:
    def test_minimal_two_post_thread(self):
        errors = []
        numbered = list(parse_numbered([thread_json()], on_error=errors.append))
        assert [n for n, _ in numbered] == [1]
        assert errors == []
        t = numbered[0][1]
        assert t.n_posts == 2
        assert t.post_ids[t.root] == "p0"

    def test_orphan_parent_names_thread(self):
        line = thread_json(
            thread_id="broken",
            posts=[
                {"id": "p0", "parent": None, "author": "a", "t": 0},
                {"id": "p1", "parent": "nope", "author": "b", "t": 5},
            ],
        )
        with pytest.raises(ThreadValidationError) as exc:
            parse_thread_line(line)
        assert exc.value.thread_id == "broken"

    def test_bad_middle_thread_does_not_abort(self):
        lines = [
            thread_json(thread_id="t1"),
            b"{this is not json",
            thread_json(thread_id="t3"),
        ]
        errors = []
        numbered = list(parse_numbered(lines, on_error=errors.append))
        assert [(n, t.thread_id) for n, t in numbered] == [(1, "t1"), (3, "t3")]
        assert len(errors) == 1
        assert errors[0].line_no == 2

    def test_first_line_numbers_a_later_piece(self):
        errors = []
        lines = [b"{broken", b"", thread_json(), b"[]"]
        numbered = list(parse_numbered(lines, on_error=errors.append, first_line=40))
        assert [(n, t.thread_id) for n, t in numbered] == [(42, "t")]
        assert [e.line_no for e in errors] == [40, 43]

    def test_duplicate_post_id_rejected(self):
        line = thread_json(
            posts=[
                {"id": "p0", "parent": None, "author": "a", "t": 0},
                {"id": "p0", "parent": "p0", "author": "b", "t": 1},
            ]
        )
        with pytest.raises(ThreadValidationError, match="duplicate"):
            parse_thread_line(line)

    def test_exactly_one_root_required(self):
        line = thread_json(
            posts=[
                {"id": "p0", "parent": None, "author": "a", "t": 0},
                {"id": "p1", "parent": None, "author": "b", "t": 1},
            ]
        )
        with pytest.raises(ThreadValidationError, match="root"):
            parse_thread_line(line)

    def test_parent_cycle_rejected(self):
        line = thread_json(
            posts=[
                {"id": "p0", "parent": None, "author": "a", "t": 0},
                {"id": "p1", "parent": "p2", "author": "b", "t": 1},
                {"id": "p2", "parent": "p1", "author": "c", "t": 2},
            ]
        )
        with pytest.raises(ThreadValidationError, match="cycle"):
            parse_thread_line(line)

    @pytest.mark.parametrize(
        "thread_id, root_id, author",
        [("bad\ud800", "p0", "a"), ("t", "p\udfff", "a"), ("t", "p0", "\udc80x")],
        ids=["thread-id", "post-id", "author"],
    )
    def test_lone_surrogate_rejected(self, thread_id, root_id, author):
        posts = [(root_id, None, author, 0), ("p1", root_id, "b", 5)]
        with pytest.raises(ThreadValidationError, match="lone surrogate"):
            make_thread(thread_id, "focus", posts)

    @pytest.mark.parametrize(
        "thread_id, root_id, author",
        [("a\rb", "p0", "a"), ("t", "p\r", "a"), ("t", "p0", "\r\nx")],
        ids=["thread-id", "post-id", "author"],
    )
    def test_carriage_return_rejected(self, thread_id, root_id, author):
        posts = [(root_id, None, author, 0), ("p1", root_id, "b", 5)]
        with pytest.raises(ThreadValidationError, match="carriage return"):
            make_thread(thread_id, "focus", posts)

    def test_unknown_source_rejected(self):
        with pytest.raises(CorpusParseError, match="source"):
            parse_thread_line(thread_json(source="other"))

    def test_non_integer_timestamp_rejected(self):
        line = thread_json(
            posts=[{"id": "p0", "parent": None, "author": "a", "t": "soon"}]
        )
        with pytest.raises(CorpusParseError, match="'t'"):
            parse_thread_line(line)

    def test_timestamp_must_fit_signed_64_bits(self):
        def line(t):
            return thread_json(posts=[{"id": "pX", "parent": None, "author": "a", "t": t}])

        for t in (-(2**63), 2**63 - 1):
            assert parse_thread_line(line(t)).timestamps == (t,)
        for t in (-(2**63) - 1, 2**63, 10**400):
            with pytest.raises(CorpusParseError, match="post 'pX': 't' out of range"):
                parse_thread_line(line(t))

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"[" * 200_000, "line 3: JSON nested too deeply"),
            (b'{"t": ' + b"7" * 5000 + b"}", "line 3: JSON integer has too many digits"),
            # Given bytes, json.loads would guess UTF-16, skip a BOM and pass
            # lone surrogates; decoding as UTF-8 first rejects all three.
            (
                b'{"thread_id": "t\xed\xa0\x80"}',
                "line 3: invalid UTF-8 (invalid continuation byte at byte offset 16)",
            ),
            ("{}".encode("utf-16"), "line 3: invalid UTF-8 (invalid start byte at byte offset 0)"),
            (
                b"\xef\xbb\xbf{}",
                "line 3: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))",
            ),
        ],
        ids=["deep-nesting", "long-integer", "lone-surrogate", "utf-16", "utf-8-bom"],
    )
    def test_decoder_limits_are_parse_errors(self, line, reason):
        with pytest.raises(CorpusParseError) as info:
            parse_thread_line(line, 3)
        assert str(info.value) == reason

    def test_blank_lines_skipped(self):
        errors = []
        numbered = list(parse_numbered([b"", thread_json(), b"   \n"], on_error=errors.append))
        assert [n for n, _ in numbered] == [2]
        assert errors == []

    def test_only_json_whitespace_is_blank(self):
        # bytes.strip() would also remove "\x0b" and "\x0c", which json.loads
        # rejects, as it rejects the UTF-8 of "\xa0", "\x1c" and "\u2028".
        def outcome(line):
            errors = []
            return list(parse_numbered([line], lambda err: errors.append(str(err)))), errors

        for text in (" \t", "\x0b", "\x0c", "\xa0", "\x1c", "\u2028"):
            expected = [] if text == " \t" else ["line 1: invalid JSON (Expecting value)"]
            assert outcome(text.encode()) == ([], expected), repr(text)

    def test_round_trip(self):
        originals = synth_corpus(20, "focus", reply_back_prob=0.4, seed=7)
        lines = [to_json_line(t).encode() for t in originals]
        errors = []
        reparsed = [t for _, t in parse_numbered(lines, on_error=errors.append)]
        assert reparsed == originals
        assert errors == []

    def test_nesting_verdict_does_not_depend_on_the_call_depth(self):
        # The deeper call leaves the JSON decoder about 50 levels of
        # recursion budget beyond MAX_NESTING on Python 3.11, where the
        # budget is the recursion limit less the caller's frames.
        deep = sys.getrecursionlimit() - len(inspect.stack(0)) - MAX_NESTING - 50
        for frames in (0, deep):
            thread = _parse_at_depth(frames, nested_thread_line(MAX_NESTING))
            assert thread.post_ids == ("p0", "p1")
            with pytest.raises(CorpusParseError) as info:
                _parse_at_depth(frames, nested_thread_line(MAX_NESTING + 1))
            assert str(info.value) == "line 7: JSON nested too deeply"


def _parse_at_depth(frames, line):
    """parse_thread_line(line, 7), called ``frames`` Python frames below this call."""
    return parse_thread_line(line, 7) if frames == 0 else _parse_at_depth(frames - 1, line)


def _outcome(fn, *args):
    """fn's result, or the type and arguments of the error it raised."""
    try:
        return fn(*args)
    except (CorpusParseError, ThreadValidationError) as err:
        return type(err), err.args


# Values a mutated post field takes: wrong types, both sides of the 64-bit
# bounds, empty, known and unknown ids, and lone surrogates.
ODD_VALUES = st.sampled_from(
    [None, True, False, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 1.5, [None],
     "", "p0", "p1", "p2", "p9", "\ud800", "b\udfff"]
)


@st.composite
def corpus_lines(draw):
    """Lines of bytes that are mostly trees in shuffled post order, some with
    faults: bad or missing fields, a 'posts' that is not an array, posts that
    are not objects, repeated or unknown ids, extra roots, cycles, lone
    surrogates (escaped, or raw and so not UTF-8) and carriage returns."""
    n = draw(st.integers(0, 6))
    posts = [
        {
            "id": f"p{i}",
            "parent": None if i == 0 else f"p{draw(st.integers(0, i - 1))}",
            "author": draw(st.sampled_from(["a", "b", "c", "\udc80", "\r"])),
            "t": draw(st.integers(-3, 3)),
        }
        for i in range(n)
    ]
    posts = draw(st.permutations(posts))
    for _ in range(draw(st.integers(0, 3))):
        if not posts:
            break
        i = draw(st.integers(0, len(posts) - 1))
        key = draw(st.sampled_from(["id", "parent", "parent", "author", "t", None]))
        if key is None:
            posts[i] = draw(ODD_VALUES)
        elif isinstance(posts[i], dict):
            if draw(st.booleans()):
                posts[i].pop(key, None)
            else:
                posts[i][key] = draw(ODD_VALUES)
    thread = {
        "thread_id": draw(st.sampled_from(["t"] * 6 + ["", "t\ud800", "t\r", 7])),
        "source": draw(st.sampled_from(["focus"] * 3 + ["baseline"] * 3 + ["other"])),
        "posts": posts,
    }
    if draw(st.integers(0, 9)) == 0:
        thread["posts"] = draw(st.sampled_from([{}, {"p0": {}}, "x", None, 7]))
        if draw(st.booleans()):
            del thread["posts"]
    line = json.dumps(thread, ensure_ascii=draw(st.booleans()))
    # A raw lone surrogate becomes bytes that are not UTF-8; an escaped one
    # stays ASCII and reaches the thread's own lone-surrogate check.
    return line.encode("utf-8", "surrogatepass")


@st.composite
def tree_posts(draw):
    """The posts of a reply tree in shuffled order, as records with any text
    and any 64-bit timestamps."""
    n = draw(st.integers(1, 6))
    ids = draw(st.lists(st.text(min_size=1), min_size=n, max_size=n, unique=True))
    posts = [
        PostRecord(
            ids[i],
            None if i == 0 else ids[draw(st.integers(0, i - 1))],
            draw(st.text(max_size=4)),
            draw(st.integers(-(2**63), 2**63 - 1)),
        )
        for i in range(n)
    ]
    return draw(st.permutations(posts))


# Lines of runs of brackets, quotes, backslashes and other bytes, long enough
# to nest on either side of MAX_NESTING.
nesting_lines = st.lists(
    st.tuples(
        st.sampled_from([b"[", b"{", b"]", b"}", b'"', b"\\", b"x", b"\xc3\xa9"]),
        st.integers(1, 150),
    ),
    max_size=8,
).map(lambda runs: b"".join(token * n for token, n in runs))


def _line(*posts, thread_id="t", source="focus"):
    return json.dumps({"thread_id": thread_id, "source": source, "posts": list(posts)}).encode()


ROOT = {"id": "p0", "parent": None, "author": "a", "t": 0}


class TestParseOracle:
    @settings(max_examples=500, deadline=None)
    @given(line=corpus_lines(), line_no=st.integers(1, 10**6))
    @example(  # a post that is its own parent
        line=_line(ROOT, {"id": "p1", "parent": "p1", "author": "b", "t": 1}), line_no=1
    )
    @example(  # a reply before its parent
        line=_line({"id": "p1", "parent": "p0", "author": "b", "t": 1}, ROOT), line_no=1
    )
    @example(  # a duplicate id after a forward reference
        line=_line(
            {"id": "p1", "parent": "p2", "author": "b", "t": 1},
            ROOT,
            {"id": "p1", "parent": "p0", "author": "c", "t": 2},
        ),
        line_no=1,
    )
    @example(  # a missing "parent" key makes a root
        line=_line({"id": "p0", "author": "a", "t": 0}), line_no=1
    )
    @example(line=_line({**ROOT, "id": ""}), line_no=1)
    @example(line=_line({**ROOT, "t": True}), line_no=1)
    @example(line=_line({**ROOT, "t": 2**63}), line_no=1)
    @example(  # a non-object post after a post with a bad field
        line=_line({**ROOT, "author": 5}, 7), line_no=1
    )
    @example(line=_line(7, ROOT), line_no=1)  # a first post that is not an object
    @example(line=_line([None], ROOT), line_no=1)
    @example(line=_line({"parent": None, "author": "a", "t": 0}), line_no=1)  # no "id"
    @example(line=_line({"id": "p0", "parent": None, "author": "a"}), line_no=1)  # no "t"
    @example(line=_line({**ROOT, "author": "\ud800"}), line_no=1)  # escaped lone surrogate
    @example(line=b'{"thread_id": "t\xed\xa0\x80"}', line_no=1)  # raw lone surrogate
    @example(line=b'{"thread_id": "t", "source": "focus", "posts": {}}', line_no=1)
    def test_parse_matches_oracle(self, line, line_no):
        assert _outcome(parse_thread_line, line, line_no) == _outcome(
            parse_oracle, line, line_no
        )

    @settings(max_examples=200, deadline=None)
    @given(line=nesting_lines)
    @example(line=b'["' + b"[" * 300 + b'"]')  # brackets in a string
    @example(line=b'"\\"' + b"[" * 201)  # an escaped quote leaves the string open
    @example(line=b'"\\\\"' + b"[" * 201)  # an escaped backslash closes it
    @example(line=b"]" + b"[" * 201)  # a closer first takes a level away
    def test_nesting_matches_oracle(self, line):
        assert _outcome(parse_thread_line, line) == _outcome(parse_oracle, line)

    @settings(max_examples=300, deadline=None)
    @given(line=corpus_lines(), data=st.data())
    def test_from_posts_on_shuffled_posts_matches_oracle(self, line, data):
        obj = json.loads(line)
        # from_posts takes a list of (id, parent, author, t) records: a 'posts'
        # that is not an array, or a post that is not an object, has no such form.
        assume(isinstance(obj.get("posts"), list))
        posts = data.draw(st.permutations(obj["posts"]))
        assume(all(isinstance(p, dict) for p in posts))
        shuffled = _line(*posts, thread_id=obj["thread_id"], source=obj["source"])
        expected = _outcome(parse_oracle, shuffled, None)
        if isinstance(expected, tuple) and expected[0] is CorpusParseError:
            expected = ThreadValidationError, (obj["thread_id"], expected[1][1], None)
        records = [PostRecord(*map(p.get, PostRecord._fields)) for p in posts]
        got = _outcome(ThreadRecord.from_posts, obj["thread_id"], obj["source"], records)
        assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(thread_id=st.text(), source=st.sampled_from([*SOURCES, "other"]), posts=tree_posts())
    def test_accepted_records_round_trip(self, thread_id, source, posts):
        try:
            record = ThreadRecord.from_posts(thread_id, source, posts)
        except ThreadValidationError:
            return
        assert parse_thread_line(to_json_line(record).encode()) == record


# (thread_id, source, fields of post p1): inputs that from_posts once accepted
# or met with a bare TypeError.
BAD_FIELDS = [
    ("t", "focus", {"t": "soon"}),
    ("t", "focus", {"t": 2**70}),
    ("t", "focus", {"t": True}),
    ("t", "elsewhere", {}),
    ("", "focus", {}),
    ("t", "focus", {"author": 5}),
    ("t", "focus", {"id": ["p1"]}),
    ("t", "focus", {"parent": ["p0"]}),
    ("t", "focus", {"author": ["b"]}),
]


class TestFromPosts:
    @pytest.mark.parametrize("thread_id, source, fields", BAD_FIELDS)
    def test_bad_field_raises_parse_message(self, thread_id, source, fields):
        posts = [ROOT, {"id": "p1", "parent": "p0", "author": "b", "t": 1, **fields}]
        with pytest.raises(CorpusParseError) as parsed:
            parse_thread_line(_line(*posts, thread_id=thread_id, source=source))
        with pytest.raises(ThreadValidationError) as built:
            ThreadRecord.from_posts(thread_id, source, [PostRecord(**p) for p in posts])
        assert built.value.args == (thread_id, parsed.value.args[1], None)

    def test_numpy_timestamp_is_rejected(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(ThreadValidationError, match="'t' must be an integer"):
            ThreadRecord.from_posts("t", "focus", [PostRecord("p0", None, "a", np.int64(0))])

    def test_later_field_fault_beats_duplicate_id(self):
        posts = [ROOT, ROOT, {**ROOT, "id": "p1", "author": 5}]
        message = "post 'p1': 'author' must be a string"
        with pytest.raises(CorpusParseError, match=message):
            parse_thread_line(_line(*posts))
        with pytest.raises(ThreadValidationError, match=message):
            ThreadRecord.from_posts("t", "focus", [PostRecord(**p) for p in posts])


class TestFilter:
    def test_five_post_thread_dropped_by_default(self):
        # 4 replies is one short of the required 5 besides the root.
        posts = [("p0", None, "a", 0)] + [
            (f"p{i}", "p0", "b", i) for i in range(1, 5)
        ]
        assert filter_corpus([make_thread("t", "focus", posts)], FilterPolicy()) == []

    def test_six_post_thread_with_deleted_root_dropped(self):
        posts = [("p0", None, "[deleted]", 0)] + [
            (f"p{i}", "p0", "b", i) for i in range(1, 6)
        ]
        assert filter_corpus([make_thread("t", "focus", posts)], FilterPolicy()) == []

    def test_six_post_thread_with_named_root_retained(self):
        posts = [("p0", None, "alice", 0)] + [
            (f"p{i}", "p0", "b", i) for i in range(1, 6)
        ]
        thread = make_thread("t", "focus", posts)
        assert filter_corpus([thread], FilterPolicy()) == [thread]

    def test_keep_deleted_root_override(self):
        posts = [("p0", None, "[deleted]", 0)] + [
            (f"p{i}", "p0", "b", i) for i in range(1, 6)
        ]
        thread = make_thread("t", "focus", posts)
        policy = FilterPolicy(drop_deleted_root=False)
        assert filter_corpus([thread], policy) == [thread]

    def test_custom_sentinel(self):
        posts = [("p0", None, "gone", 0)] + [
            (f"p{i}", "p0", "b", i) for i in range(1, 6)
        ]
        thread = make_thread("t", "focus", posts)
        assert filter_corpus([thread], FilterPolicy(deleted_sentinel="gone")) == []

    def test_idempotent_and_order_preserving(self):
        corpus = synth_corpus(50, "baseline", reply_back_prob=0.2, seed=11)
        policy = FilterPolicy(min_extra_posts=8)
        once = filter_corpus(corpus, policy)
        assert filter_corpus(once, policy) == once
        assert len(once) <= len(corpus)
        assert all(t.n_posts >= policy.min_extra_posts + 1 for t in once)
        order = {t.thread_id: i for i, t in enumerate(corpus)}
        assert [order[t.thread_id] for t in once] == sorted(
            order[t.thread_id] for t in once
        )

    def test_negative_min_extra_posts_rejected(self):
        with pytest.raises(ValueError):
            FilterPolicy(min_extra_posts=-1)


class TestLifetime:
    def test_single_post(self):
        thread = make_thread("t", "focus", [("p0", None, "a", 100)])
        assert thread_lifetime(thread) == (100, 100)

    def test_max_rule(self):
        thread = make_thread(
            "t",
            "focus",
            [("p0", None, "a", 10), ("p1", "p0", "b", 20), ("p2", "p0", "c", 15)],
        )
        assert thread_lifetime(thread) == (10, 20)

    def test_backdated_reply(self):
        # A reply stamped before the root: max(50, 40) keeps the end at 50.
        thread = make_thread(
            "t", "focus", [("p0", None, "a", 50), ("p1", "p0", "b", 40)]
        )
        assert thread_lifetime(thread) == (50, 50)


class TestErrors:
    @pytest.mark.parametrize(
        "err",
        [
            CorpusParseError(3, "bad"),
            ThreadValidationError("t1", "parent links contain a cycle"),
            ThreadValidationError("t1", "parent links contain a cycle", 6),
        ],
    )
    def test_pickle_round_trip(self, err):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert vars(back) == vars(err)
