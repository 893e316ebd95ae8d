"""Corpus parsing, thread validation, filtering, and lifetimes."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threadmotifs.errors import CorpusParseError, ThreadValidationError
from threadmotifs.thread_model import (
    SOURCES,
    FilterPolicy,
    PostRecord,
    ThreadRecord,
    filter_corpus,
    parse_numbered,
    parse_thread_line,
    thread_lifetime,
)

from support import make_thread, parse_oracle, synth_corpus, to_json_line


def thread_json(thread_id="t", source="focus", posts=None) -> str:
    if posts is None:
        posts = [
            {"id": "p0", "parent": None, "author": "a", "t": 0},
            {"id": "p1", "parent": "p0", "author": "b", "t": 5},
        ]
    return json.dumps({"thread_id": thread_id, "source": source, "posts": posts})


class TestParse:
    def test_minimal_two_post_thread(self):
        numbered = list(parse_numbered([thread_json()]))
        assert [n for n, _ in numbered] == [1]
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
            "{this is not json",
            thread_json(thread_id="t3"),
        ]
        errors = []
        numbered = list(parse_numbered(lines, on_error=errors.append))
        assert [(n, t.thread_id) for n, t in numbered] == [(1, "t1"), (3, "t3")]
        assert len(errors) == 1
        assert errors[0].line_no == 2

    def test_first_line_numbers_a_later_piece(self):
        errors = []
        lines = ["{broken", "", thread_json(), "[]"]
        numbered = list(parse_numbered(lines, on_error=errors.append, first_line=40))
        assert [(n, t.thread_id) for n, t in numbered] == [(42, "t")]
        assert [e.line_no for e in errors] == [40, 43]

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(CorpusParseError) as exc:
            list(parse_numbered([thread_json(), "[]"]))
        assert exc.value.line_no == 2

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
        "text, reason",
        [
            ("[" * 200_000, "line 3: JSON nested too deeply"),
            ('{"t": ' + "7" * 5000 + "}", "line 3: JSON integer has too many digits"),
        ],
        ids=["deep-nesting", "long-integer"],
    )
    def test_decoder_limits_are_parse_errors(self, text, reason):
        for line in (text, text.encode()):
            with pytest.raises(CorpusParseError) as info:
                parse_thread_line(line, 3)
            assert str(info.value) == reason

    def test_blank_lines_skipped(self):
        numbered = list(parse_numbered(["", thread_json(), "   \n"]))
        assert [n for n, _ in numbered] == [2]

    def test_round_trip(self):
        originals = synth_corpus(20, "focus", reply_back_prob=0.4, seed=7)
        lines = [to_json_line(t) for t in originals]
        reparsed = [t for _, t in parse_numbered(lines)]
        assert reparsed == originals


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
    """Lines that are mostly trees in shuffled post order, some with faults:
    bad or missing fields, posts that are not objects, repeated or unknown
    ids, extra roots, cycles and lone surrogates."""
    n = draw(st.integers(0, 6))
    posts = [
        {
            "id": f"p{i}",
            "parent": None if i == 0 else f"p{draw(st.integers(0, i - 1))}",
            "author": draw(st.sampled_from(["a", "b", "c", "\udc80"])),
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
        "thread_id": draw(st.sampled_from(["t"] * 6 + ["", "t\ud800", 7])),
        "source": draw(st.sampled_from(["focus"] * 3 + ["baseline"] * 3 + ["other"])),
        "posts": posts,
    }
    line = json.dumps(thread, ensure_ascii=draw(st.booleans()))
    return line.encode() if draw(st.booleans()) and line.isascii() else line


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


def _line(*posts, thread_id="t", source="focus"):
    return json.dumps({"thread_id": thread_id, "source": source, "posts": list(posts)})


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
    @example(line=_line({**ROOT, "author": "\ud800"}), line_no=1)  # escaped lone surrogate
    def test_parse_matches_oracle(self, line, line_no):
        assert _outcome(parse_thread_line, line, line_no) == _outcome(
            parse_oracle, line, line_no
        )

    @settings(max_examples=300, deadline=None)
    @given(line=corpus_lines(), data=st.data())
    def test_from_posts_on_shuffled_posts_matches_oracle(self, line, data):
        obj = json.loads(line)
        posts = data.draw(st.permutations(obj["posts"]))
        # from_posts takes (id, parent, author, t) records: a post that is not
        # an object has no such form.
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
        assert parse_thread_line(to_json_line(record)) == record


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
