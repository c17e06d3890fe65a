"""Parsing, container invariants, and serialization round-trips."""

import gc
import io
import math
import random
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from iprank import ingest
from iprank.cli import load_config, read_score_columns
from iprank.errors import ConfigInvalid, EmptyInput, MissingInput, NegativeCount, UnparsableLine
from iprank.graphs import InfluenceGraph, graph_from_tsv
from iprank.ingest import (
    ActivityLog,
    ClickTable,
    FollowEdgeList,
    TweetEvent,
    clicks_to_tsv,
    events_to_tsv,
    follows_to_tsv,
    parse_clicks,
    parse_events,
    parse_follows,
)
from oracles import (
    arcs_of, edges, followees_of, followers_of, follows_of, graph_from_arcs, log_of, read_manifest,
)

EVENTS = "1\tu1\turl-a\tM\n2\tu2\turl-b\tM\n3\tu3\turl-c\tM\n"


class TestParseEvents:
    def test_three_wellformed_mentions(self):
        log = parse_events(EVENTS)
        assert len(log) == 3
        assert [ev.time for ev in log] == [1, 2, 3]
        assert all(ev.source is None for ev in log)

    def test_out_of_order_lines_resorted(self):
        log = parse_events("5\tu1\ta\tM\n1\tu2\tb\tM\n3\tu3\tc\tM\n")
        assert [ev.time for ev in log] == [1, 3, 5]

    def test_retweet_line(self):
        log = parse_events("7\tu2\ta\tRT\tu1\n1\tu1\ta\tM\n")
        rt = list(log)[1]
        assert rt.source is not None and rt.source == "u1"

    def test_self_retweet_rejected_strict(self):
        with pytest.raises(UnparsableLine):
            parse_events("1\tu1\ta\tRT\tu1\n")

    def test_self_retweet_skipped_lenient(self):
        log = parse_events("1\tu1\ta\tRT\tu1\n2\tu2\tb\tM\n", strict=False)
        assert len(log) == 1
        assert log.skipped == 1

    @pytest.mark.parametrize(
        "line",
        [
            "x\tu1\ta\tM",  # bad time
            "1\tu1\ta",  # missing kind
            "1\tu1\ta\tM\textra",  # mention with 5 fields
            "1\tu1\ta\tRT",  # retweet without source
            "1\tu1\t\tM",  # empty url
            "1\t\ta\tM",  # empty user
            "1\tu1\ta\tZ",  # unknown kind
            "0x1\tu1\ta\tM",  # non-decimal time
        ],
    )
    def test_malformed_lines_strict(self, line):
        with pytest.raises(UnparsableLine):
            parse_events(line + "\n")

    def test_lenient_tallies_malformed(self):
        text = "bad line\n" + EVENTS + "also bad\n"
        log = parse_events(text, strict=False)
        assert len(log) == 3
        assert log.skipped == 2

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_events("")
        with pytest.raises(EmptyInput):
            parse_events("\n\n# only a comment\n")

    def test_comments_and_blanks_ignored(self):
        log = parse_events("# header\n\n" + EVENTS)
        assert len(log) == 3

    def test_accepts_file_object(self, tmp_path):
        p = tmp_path / "events.tsv"
        p.write_text(EVENTS, encoding="utf-8")
        with open(p, encoding="utf-8") as fh:
            assert len(parse_events(fh)) == 3

    def test_accepts_byte_stream(self, tmp_path):
        assert len(parse_events(EVENTS.encode("utf-8"))) == 3
        p = tmp_path / "events.tsv"
        p.write_bytes(EVENTS.encode("utf-8"))
        with open(p, "rb") as fh:
            assert len(parse_events(fh)) == 3

    def test_permutation_invariance(self):
        lines = [
            "5\tu1\ta\tM",
            "5\tu1\tb\tM",
            "5\tu2\ta\tM",
            "5\tu2\ta\tRT\tu1",
            "2\tu9\tz\tM",
        ]
        rng = random.Random(13)
        logs = []
        for _ in range(6):
            shuffled = lines[:]
            rng.shuffle(shuffled)
            logs.append(parse_events("\n".join(shuffled) + "\n"))
        assert all(lg == logs[0] for lg in logs)

    def test_a_file_in_log_order_reads_as_its_shuffled_copy(self):
        # ties on (time, user), so url, kind and source decide the order
        lines = [
            "5\tu2\tb\tM", "5\tu2\ta\tRT\tu3", "5\tu2\ta\tM", "5\tu2\ta\tRT\tu1",
            "5\tu1\tc\tM", "1\tu3\ta\tM", "5\tu2\tb\tRT\tu1", "9\tu1\ta\tM",
        ]
        canonical = events_to_tsv(parse_events("\n".join(lines)))
        assert canonical.splitlines() != lines
        rows = canonical.splitlines(keepends=True)
        log = parse_events(canonical)
        for order in (rows[::-1], random.Random(3).sample(rows, len(rows))):
            shuffled = parse_events("".join(order))
            assert shuffled == log
            assert events_to_tsv(shuffled) == canonical
        for col in (log.time, log.user, log.url, log.source):
            assert not col.flags.writeable

    def test_index_covers_exactly_the_events(self):
        log = parse_events(EVENTS + "9\tu1\turl-z\tM\n")
        positions = sorted(p for ps in log.by_user.values() for p in ps)
        assert positions == list(range(len(log)))
        rows = list(log)
        for user, ps in log.by_user.items():
            assert all(rows[p].user == user for p in ps)


class TestEventLineRules:
    def test_line_numbers_count_blank_and_comment_lines(self):
        text = "# header\n\n1\tu1\ta\tM\n   \n  # indented comment\nbad line\n"
        with pytest.raises(UnparsableLine) as info:
            parse_events(text)
        assert info.value.line_no == 6
        assert info.value.line == "bad line"

    @pytest.mark.parametrize("token", ["+5", " 5", "5_0", "\u0663", "--5", ""])
    def test_time_tokens_int_would_accept_are_rejected(self, token):
        with pytest.raises(UnparsableLine) as info:
            parse_events(f"{token}\tu1\ta\tM\n")
        assert info.value.reason == f"not a base-10 integer: {token!r}"

    def test_time_must_fit_64_bits(self):
        log = parse_events("-9223372036854775808\tu1\ta\tM\n9223372036854775807\tu1\ta\tM\n")
        assert [ev.time for ev in log] == [-(2**63), 2**63 - 1]
        with pytest.raises(UnparsableLine):
            parse_events("9223372036854775808\tu1\ta\tM\n")

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("1\t\ta\tM", "empty user id"),
            ("1\tu1\t\tM", "empty url"),
            ("1\tu1\ta\tRT\t", "empty retweet source"),
            ("1\tu1\ta\tRT\tu1", "retweet credits its own author"),
        ],
    )
    def test_invalid_events_rejected_with_reason(self, line, reason):
        with pytest.raises(UnparsableLine) as info:
            parse_events(line + "\n")
        assert info.value.reason == reason

    def test_lenient_counts_every_rejected_line(self):
        bad = [
            "+5\tu1\ta\tM", " 5\tu1\ta\tM", "5_0\tu1\ta\tM", "\u0663\tu1\ta\tM",
            "--5\tu1\ta\tM", "\tu1\ta\tM", "1\t\ta\tM", "1\tu1\t\tM",
            "1\tu1\ta\tRT\t", "1\tu1\ta\tRT\tu1",
        ]
        text = "\n".join(["# c", "", *bad, "2\tu2\tb\tM"]) + "\n"
        log = parse_events(text, strict=False)
        assert log.skipped == len(bad)
        assert events_to_tsv(log) == "2\tu2\tb\tM\n"


class TestParseFollows:
    def test_duplicates_collapse(self):
        f = parse_follows("a\tb\na\tb\n")
        assert edges(f) == frozenset({("a", "b")})

    def test_self_follow_strict(self):
        with pytest.raises(UnparsableLine):
            parse_follows("a\ta\n")

    def test_self_follow_lenient(self):
        f = parse_follows("a\ta\na\tb\n", strict=False)
        assert edges(f) == frozenset({("a", "b")})
        assert f.skipped == 1

    def test_two_distinct_pairs(self):
        f = parse_follows("a\tb\nb\ta\n")
        assert len(f) == 2
        assert ("a", "b") in edges(f) and ("b", "a") in edges(f)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_follows("")

    def test_maps(self):
        f = parse_follows("a\tb\na\tc\nd\tb\n")
        assert followers_of(f, "a") == {"b", "c"}
        assert followees_of(f, "b") == {"a", "d"}
        assert set(f.user_ids) == {"a", "b", "c", "d"}


class TestHashLedIds:
    """An id starting with "#" would read back as a comment, so ingest refuses it."""

    @pytest.mark.parametrize(
        "line", ["1\t#a\tu\tM", "1\ta\t#u\tM", "1\ta\tu\tRT\t#b", "1\t#a\tu\tRT\tb"]
    )
    def test_events_strict(self, line):
        with pytest.raises(UnparsableLine) as info:
            parse_events(f"# header\n{line}\n")
        assert info.value.line_no == 2
        assert info.value.reason == "id starts with '#'"

    def test_events_lenient_tallies(self):
        text = "1\t#a\tu\tM\n2\ta\t#u\tM\n3\ta\tu\tRT\t#b\n4\tb\tu\tM\n"
        log = parse_events(text, strict=False)
        assert log.skipped == 3
        assert events_to_tsv(log) == "4\tb\tu\tM\n"

    @pytest.mark.parametrize(
        "user,url,source", [("#a", "u", None), ("a", "#u", None), ("a", "u", "#b")]
    )
    def test_tweet_event(self, user, url, source):
        with pytest.raises(ValueError, match="id starts with '#'"):
            log_of([(1, user, url, source)])

    def test_follows_strict(self):
        with pytest.raises(UnparsableLine) as info:
            parse_follows("a\tb\nb\t#a\n")
        assert info.value.line_no == 2
        assert info.value.reason == "id starts with '#'"

    def test_follows_lenient_tallies(self):
        f = parse_follows("b\t#a\na\tb\n", strict=False)
        assert f.skipped == 1
        assert edges(f) == frozenset({("a", "b")})

    @pytest.mark.parametrize("edge", [("#a", "b"), ("b", "#a")])
    def test_follow_edge_list(self, edge):
        with pytest.raises(ValueError):
            follows_of([edge])

    def test_inner_hash_is_an_ordinary_character(self):
        assert edges(parse_follows("a#\tb#c\n")) == frozenset({("a#", "b#c")})
        assert parse_events("1\ta#\tu#1\tM\n").user_ids == ("a#",)


class TestCarriageReturnEndsALine:
    """LF, CR and CRLF each end a line of a string, of bytes and of a text
    stream that ends lines at LF only, as in a file opened in text mode, so
    no id holds a CR."""

    FORMS = {
        "str": lambda text: text,
        "bytes": lambda text: text.encode("utf-8"),
        # an io.StringIO ends lines at LF only, unlike a file opened in text mode
        "LF-only stream": io.StringIO,
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_events_strict(self, form):
        with pytest.raises(UnparsableLine) as info:
            parse_events(self.FORMS[form]("1\tu\tx\tM\n1\ta\rb\tu\tM\n"))
        assert (info.value.line_no, info.value.line) == (2, "1\ta")

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_events_lenient(self, form):
        text = "1\tu\tx\tM\r\n1\ta\rb\tu\tM\r2\tv\ty\tRT\tu\r\n"
        log = parse_events(self.FORMS[form](text), strict=False)
        assert log.skipped == 2  # "1<TAB>a" and "b<TAB>u<TAB>M"
        assert events_to_tsv(log) == "1\tu\tx\tM\n2\tv\ty\tRT\tu\n"

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_follows_strict(self, form):
        with pytest.raises(UnparsableLine) as info:
            parse_follows(self.FORMS[form]("a\tb\nc\rd\ta\n"))
        assert (info.value.line_no, info.value.line) == (2, "c")

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_follows_lenient(self, form):
        f = parse_follows(self.FORMS[form]("a\tb\r\nc\rd\ta\n"), strict=False)
        assert f.skipped == 1
        assert edges(f) == frozenset({("a", "b"), ("d", "a")})

    @pytest.fixture
    def lf_only_file(self, tmp_path):
        """A function that writes text to a file and opens it to end lines at LF only."""
        opened = []

        def open_lf_only(text):
            path = tmp_path / "lines.tsv"
            path.write_text(text, encoding="utf-8", newline="")
            opened.append(open(path, "r", encoding="utf-8", newline="\n"))
            return opened[-1]

        yield open_lf_only
        for fh in opened:
            fh.close()

    def test_events_from_a_file_opened_lf_only(self, lf_only_file):
        with pytest.raises(UnparsableLine) as info:
            parse_events(lf_only_file("1\ta\rb\tu\tM\n"))
        assert (info.value.line_no, info.value.line) == (1, "1\ta")
        log = parse_events(lf_only_file("1\tu\tx\tM\n1\ta\rb\tu\tM\n"), strict=False)
        assert log.skipped == 2
        assert log.user_ids == ("u",)

    def test_follows_from_a_file_opened_lf_only(self, lf_only_file):
        with pytest.raises(UnparsableLine) as info:
            parse_follows(lf_only_file("a\tb\nc\rd\ta\n"))
        assert (info.value.line_no, info.value.line) == (2, "c")
        f = parse_follows(lf_only_file("a\tb\nc\rd\ta\n"), strict=False)
        assert f.skipped == 1
        assert edges(f) == frozenset({("a", "b"), ("d", "a")})

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_a_cr_split_line_numbers_the_rest(self, form):
        log = parse_events(self.FORMS[form]("1\tu\tx\tM\rbad\n\n#c\n2\tu\ty\tM\n"), strict=False)
        assert log.skipped == 1
        with pytest.raises(UnparsableLine) as info:
            parse_events(self.FORMS[form]("1\tu\tx\tM\rbad\nbad\n"))
        assert (info.value.line_no, info.value.line) == (2, "bad")

    def test_a_cr_only_file_comes_in_blocks(self, tmp_path):
        lines = [f"{t}\tu{t % 7}\tx{t % 5}\tM" for t in range(40)]
        path = tmp_path / "cr.tsv"
        path.write_bytes("\r".join(lines).encode("utf-8") + b"\r")
        with patch.object(ingest, "_BLOCK", 64):
            with open(path, "rb") as fh:
                numbers = [f.numbers.tolist() for f in ingest._records(fh)]
            with open(path, "rb") as fh:
                log = parse_events(fh)
        assert len(numbers) > 1
        assert sum(numbers, []) == list(range(1, 41))
        assert log == parse_events("\n".join(lines) + "\n")


class TestBytesInput:
    """Bytes, from a binary stream or a ``bytes`` object, are read as UTF-8
    in one pipeline with the CLI's files: a leading byte order mark is
    dropped, and a line that is not UTF-8 is an error in both modes,
    reported in file order with the other line faults, whatever the block
    size."""

    # a 3-field line 1, valid lines 2 to 2999, and a byte that is no UTF-8 on line 3000
    FAULTS = (
        "\n".join(["1\tu\tx", *(f"{t}\tu\tx{t}\tM" for t in range(2, 3000)), "3000\tu\t\xff\tM"])
        .encode("latin-1")
        + b"\n"
    )

    @pytest.mark.parametrize("block", [7, ingest._BLOCK])
    def test_faults_are_reported_in_file_order(self, block):
        with patch.object(ingest, "_BLOCK", block):
            with pytest.raises(UnparsableLine) as info:
                parse_events(io.BytesIO(self.FAULTS))
            assert (info.value.line_no, info.value.reason) == (1, ingest._EVENT_SHAPE)
            with pytest.raises(UnparsableLine) as info:
                parse_events(io.BytesIO(self.FAULTS), strict=False)
            assert (info.value.line_no, info.value.reason) == (3000, "not UTF-8")
            assert info.value.line == "3000\tu\t\ufffd\tM"

    @pytest.mark.parametrize("strict", [True, False])
    def test_a_bad_byte_is_an_unparsable_line(self, strict):
        with pytest.raises(UnparsableLine) as info:
            parse_follows(b"a\tb\r\nc\td\xc3\n", strict=strict)
        assert (info.value.line_no, info.value.line, info.value.reason) == (
            2, "c\td\ufffd", "not UTF-8",
        )

    @pytest.mark.parametrize("form", [bytes, io.BytesIO])
    def test_a_leading_bom_is_dropped(self, form):
        f = parse_follows(form(b"\xef\xbb\xbfu1\tu2\n"))
        assert edges(f) == frozenset({("u1", "u2")})

    def test_a_text_stream_is_taken_as_opened(self):
        f = parse_follows(io.StringIO("\ufeffu1\tu2\n"))
        assert edges(f) == frozenset({("\ufeffu1", "u2")})


class TestParseClicks:
    def test_basic(self):
        assert parse_clicks("u1\t5\n").clicks == {"u1": 5}

    def test_duplicate_takes_max(self):
        assert parse_clicks("u1\t5\nu1\t7\nu1\t6\n").clicks == {"u1": 7}

    def test_negative_count(self):
        with pytest.raises(NegativeCount):
            parse_clicks("u1\t-2\n")

    def test_negative_skipped_lenient(self):
        table = parse_clicks("u1\t-2\nu2\t3\n", strict=False)
        assert table.clicks == {"u2": 3}
        assert table.skipped == 1

    def test_empty_table_is_legal(self):
        assert parse_clicks("").clicks == {}

    def test_malformed(self):
        with pytest.raises(UnparsableLine):
            parse_clicks("u1\tfive\n")


class TestRoundTrips:
    def test_events_round_trip(self):
        text = "1\tu1\ta\tM\n1\tu1\tb\tM\n2\tu2\ta\tRT\tu1\n"
        log = parse_events(text)
        assert parse_events(events_to_tsv(log)) == log

    def test_follows_round_trip(self):
        f = parse_follows("a\tb\nc\td\n")
        assert parse_follows(follows_to_tsv(f)) == f

    def test_clicks_round_trip(self):
        t = parse_clicks("a\t3\nb\t0\n")
        assert parse_clicks(clicks_to_tsv(t)).clicks == t.clicks


# each fault a constructor rejects: (fault, constructor, its arguments, the message)
UNSORTED = "node ids must be distinct and sorted ascending"
LENGTHS = "columns must be 1-D and of equal length"
CONSTRUCTOR_FAULTS = [
    ("unsorted", ActivityLog, (("b", "a"), ("u",), [1, 2], [0, 1], [0, 0], [-1, -1]), UNSORTED),
    ("unsorted", ActivityLog, (("a",), ("v", "u"), [1, 2], [0, 0], [0, 1], [-1, -1]), UNSORTED),
    ("unsorted", FollowEdgeList, (("b", "a"), [0], [1]), UNSORTED),
    ("unsorted", FollowEdgeList, (("a", "a"), [0], [1]), UNSORTED),  # so not distinct
    ("bad id", ActivityLog, (("#a",), ("u",), [1], [0], [0], [-1]), "id starts with '#': '#a'"),
    ("bad id", FollowEdgeList, (("", "a"), [0], [1]), "empty user id: ''"),
    ("lengths", ActivityLog, (("a",), ("u",), [1, 2], [0], [0], [-1]), LENGTHS),
    ("lengths", ActivityLog, (("a",), ("u",), [1], [0], [0], []), LENGTHS),
    ("lengths", FollowEdgeList, (("a", "b"), [0, 1], [1]), LENGTHS),
    ("lengths", FollowEdgeList, (("a", "b"), [[0]], [[1]]), LENGTHS),
    ("lengths", FollowEdgeList, (("a", "b"), 0, 1), LENGTHS),
    ("type", ActivityLog, (("a",), ("u",), [1.5], [0], [0], [-1]), "columns must hold integers"),
    ("type", FollowEdgeList, (("a", "b"), [True], [False]), "columns must hold integers"),
    ("type", FollowEdgeList, (("a", "b"), ["0"], ["1"]), "columns must hold integers"),
    # a graph's arc endpoints follow the same column rule
    ("lengths", InfluenceGraph, (("a", "b"), [[0]], [[1]], [[0.5]]), LENGTHS),
    ("type", InfluenceGraph, (("a", "b"), [0.7], [1.9], [0.5]), "columns must hold integers"),
    ("type", InfluenceGraph, (("a", "b"), ["0"], [1], [0.5]), "columns must hold integers"),
    ("type", InfluenceGraph, (("a", "b"), [False], [True], [0.5]), "columns must hold integers"),
    ("range", ActivityLog, (("a",), ("u",), [1], [1], [0], [-1]), "code out of range: 1 ids"),
    ("range", ActivityLog, (("a",), ("u",), [1], [-1], [0], [-1]), "code out of range: 1 ids"),
    ("range", ActivityLog, (("a",), ("u",), [1], [0], [1], [-1]), "code out of range: 1 ids"),
    ("range", ActivityLog, (("a", "b"), ("u",), [1], [0], [0], [-2]), "code out of range: 2 ids"),
    ("range", FollowEdgeList, (("a", "b"), [0], [2]), "code out of range: 2 ids"),
    ("unnamed", ActivityLog, (("a", "b"), ("u",), [1], [0], [0], [-1]), "id named by no row: 'b'"),
    ("unnamed", ActivityLog, (("a",), ("u", "v"), [1], [0], [0], [-1]), "id named by no row: 'v'"),
    ("unnamed", FollowEdgeList, (("a", "b", "c"), [0], [2]), "id named by no row: 'b'"),
    ("self-credit", ActivityLog, (("a",), ("u",), [1], [0], [0], [0]), ingest._SELF_CREDIT),
    ("self-follow", FollowEdgeList, (("a", "b"), [0, 1], [1, 1]), "self-follow"),
]


class TestConstructors:
    @pytest.mark.parametrize(
        "fault, cls, args, message", CONSTRUCTOR_FAULTS,
        ids=[f"{cls.__name__}-{fault}" for fault, cls, _, _ in CONSTRUCTOR_FAULTS],
    )
    def test_each_fault_raises_its_own_message(self, fault, cls, args, message):
        with pytest.raises(ValueError) as info:
            cls(*args)
        assert str(info.value) == message
        # no other kind of fault gives this message, whatever id it names
        others = {m.split(":")[0] for f, _, _, m in CONSTRUCTOR_FAULTS if f != fault}
        assert message.split(":")[0] not in others

    def test_event_invariants(self):
        with pytest.raises(ValueError, match="retweet credits its own author"):
            log_of([(1, "u", "a", "u")])
        with pytest.raises(ValueError, match="empty user id"):
            log_of([(1, "u", "")])

    def test_follow_edge_list_rejects_self(self):
        with pytest.raises(ValueError, match="self-follow"):
            follows_of([("a", "a")])

    def test_int64_columns_are_kept_as_given_and_made_read_only(self):
        time, user, url, source = (np.array(c) for c in ([1, 2], [0, 1], [0, 0], [-1, 0]))
        log = ActivityLog(("a", "b"), ("u",), time, user, url, source, skipped=3)
        kept = (log.time, log.user, log.url, log.source)
        assert all(a is b for a, b in zip(kept, (time, user, url, source)))
        assert not any(col.flags.writeable for col in kept)
        assert list(log) == [TweetEvent(1, "a", "u"), TweetEvent(2, "b", "u", "a")]
        assert log.skipped == 3 and log == log_of(log)
        followee, follower = np.array([0, 0]), np.array([1, 2])
        follows = FollowEdgeList(("a", "b", "c"), followee, follower)
        assert follows.followee is followee and follows.follower is follower
        assert not followee.flags.writeable

    def test_rows_are_sorted_and_repeated_edges_collapse(self):
        log = ActivityLog(("a", "b"), ("u", "v"), [5, 1, 5], [1, 0, 0], [0, 1, 0], [-1, -1, 1])
        assert list(log) == [(1, "a", "v", None), (5, "a", "u", "b"), (5, "b", "u", None)]
        follows = FollowEdgeList(("a", "b"), [1, 0, 1], [0, 1, 0])
        assert len(follows) == 2 and edges(follows) == {("a", "b"), ("b", "a")}

    def test_empty_containers(self):
        assert len(ActivityLog((), (), [], [], [], [])) == 0
        assert len(FollowEdgeList((), [], [])) == 0


def _file(tmp_path, text):
    path = tmp_path / "input.tsv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _score_rows(tmp_path, text):
    # a last row keeps a header-only file from being empty; a label counts as read
    label, columns = read_score_columns(_file(tmp_path, text + "z\t1\n"))
    return (label != "scores") + sum(len(v.node_ids) for v in columns.values()) - 1


# what each reader keeps of a text: some count that is 0 when it kept nothing
READERS = {
    "events": lambda tmp_path, text: len(parse_events(text)),
    "follows": lambda tmp_path, text: len(parse_follows(text)),
    "clicks": lambda tmp_path, text: len(parse_clicks(text).clicks),
    "graph": lambda tmp_path, text: graph_from_tsv(text).num_nodes,
    "scores": _score_rows,
    "config": lambda tmp_path, text: len(load_config(_file(tmp_path, text))),
}
HEADERS = {"graph": "#nodes=1 arcs=0", "scores": "#measure=m", "manifest": "#manifest k=v\x85w"}
READ, SKIPPED = ("read", 1), ("skipped", 2)
LINE_CASES = [
    ("", SKIPPED),
    ("   ", SKIPPED),
    ("\t\t", READ),
    ("  # c", SKIPPED),
    (" # c\tx", READ),
    ("# c", SKIPPED),
    ("\x1c\t\x1d", READ),
]


def _line_of(exc):
    if isinstance(exc, UnparsableLine):
        return exc.line_no
    return int(re.search(r"line (\d+)", str(exc))[1])


def _decision(read, tmp_path, line):
    """("read", n) when the reader keeps ``line`` or complains about it on line
    n; else ("skipped", n), n being the number it gives the line after it."""
    try:
        kept = read(tmp_path, line + "\n")
    except (UnparsableLine, ConfigInvalid) as exc:
        return "read", _line_of(exc)
    except (EmptyInput, MissingInput):
        kept = 0
    if kept:
        return "read", 1
    with pytest.raises((UnparsableLine, ConfigInvalid)) as info:
        read(tmp_path, line + "\n\u00a4\n")  # no record of any format
    return "skipped", _line_of(info.value)


class TestOneLineRule:
    """Every reader skips and numbers lines by the same rule: a line is
    skipped when it starts with "#", or has no TAB and is blank or whitespace
    then "#"; a reader also reads its own header."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_same_decisions_in_every_reader(self, tmp_path, reader):
        cases = LINE_CASES + [(h, READ if r == reader else SKIPPED) for r, h in HEADERS.items()]
        got = [(line, _decision(READERS[reader], tmp_path, line)) for line, _ in cases]
        assert got == cases

    def test_manifest_reads_its_header_lines_whole(self, tmp_path):
        lines = [line for line, _ in LINE_CASES] + list(HEADERS.values())
        assert read_manifest(_file(tmp_path, "\n".join(lines) + "\n")) == {"k": "v\x85w"}

    @pytest.mark.parametrize("line", ["\t\t", " # c\tx", " \t", "\t# c"])
    def test_an_error_quotes_the_line_as_written(self, line):
        with pytest.raises(UnparsableLine) as info:
            parse_events(f"1\tu\ta\tM\n{line}\r\n")
        assert (info.value.line_no, info.value.line) == (2, line)


def _float_or_none(token):
    try:
        return float(token)
    except ValueError:
        return None


# float() accepts spaces, underscores, non-ASCII digits, "inf" and "nan", and
# rejects hexadecimal and the empty string
FLOAT_TOKENS = [" 0.5", "1_0", "٠.٥", "inf", "nan", "0x1p-3", "", "0.5", "1", "-0.25"]
# -?[0-9]+ within 64 bits; int() would accept more
TIME_TOKENS = [
    "+5", " 5", "5 ", "5_0", "٣", "--5", "-", "", "0x1", "-0", "007", "0" * 30 + "1",
    "-9223372036854775808", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
    # over 18 digits, a fault before the last 18 bytes
    "+" + "1" * 19, "1_" + "0" * 18, "٣" + "0" * 18, "--" + "0" * 19, "0x" + "0" * 17 + "1",
]


def _amid(line, good):
    """``line`` as line 21 of 41, among good lines, so the block-wide checks run."""
    return "\n".join(good[:20] + [line] + good[20:40]) + "\n"


class TestNumbersParseAsFloatAndIntDo:
    """Graph weights and score values accept and reject exactly what float()
    does, then apply their own range; event times keep the -?[0-9]+ rule and
    the 64-bit bound."""

    @pytest.mark.parametrize("token", FLOAT_TOKENS)
    def test_graph_weight(self, token):
        text = _amid(f"a\tb\t{token}", [f"n{k}\tm{k}\t0.5" for k in range(40)])
        w = _float_or_none(token)
        if w is not None and 0.0 < w <= 1.0:
            weights = {(i, j): x for i, j, x in arcs_of(graph_from_tsv(text))}
            assert weights[("a", "b")] == w
            return
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(text)
        if w is None:
            reason = f"could not convert string to float: {token!r}"
        else:
            reason = f"weight outside (0, 1]: {token!r}"
        assert (info.value.line_no, info.value.reason) == (21, reason)

    @pytest.mark.parametrize("columns", [2, 3])
    @pytest.mark.parametrize("token", FLOAT_TOKENS)
    def test_score_value(self, tmp_path, token, columns):
        rest = "\t0.5" * (columns - 2)
        text = _amid(f"x\t{token}{rest}", [f"u{k:02}\t{k}{rest}" for k in range(40)])
        path = _file(tmp_path, text)
        value = _float_or_none(token)
        if value is not None and not math.isnan(value):
            _, read = read_score_columns(path)
            vector = read["influence" if columns == 3 else "scores"]
            assert vector.values[vector.node_ids.index("x")] == value
            return
        line = f"x\t{token}{rest}"
        with pytest.raises(ConfigInvalid) as info:
            read_score_columns(path)
        assert str(info.value) == f"line 21 of {path}: score is not a number: {line!r}"

    @pytest.mark.parametrize("token", TIME_TOKENS)
    def test_event_time(self, token):
        text = _amid(f"{token}\tu\tx\tM", [f"{k}\tv\ty\tM" for k in range(40)])
        if not re.fullmatch("-?[0-9]+", token):
            reason = f"not a base-10 integer: {token!r}"
        elif not -(2**63) <= int(token) < 2**63:
            reason = f"time out of 64-bit range: {token!r}"
        else:
            log = parse_events(text)
            assert log.time[log.user == log.user_ids.index("u")].tolist() == [int(token)]
            return
        with pytest.raises(UnparsableLine) as info:
            parse_events(text)
        assert (info.value.line_no, info.value.reason) == (21, reason)
        log = parse_events(text, strict=False)
        assert (log.skipped, log.user_ids) == (1, ("v",))


def _read_scores(tmp_path, text):
    """``read_score_columns`` of ``text``, its path called PATH in an error."""
    path = _file(tmp_path, text)
    try:
        return read_score_columns(path)
    except ConfigInvalid as exc:
        raise ConfigInvalid(str(exc).replace(path, "PATH")) from None


# lines, most with several faults, and the error each gives: that of the
# first check of its format's order that it fails. Between them they try every
# two checks adjacent in an order that one line can fail.
EVENT_SHAPE = "expected 'time user url M' or 'time user url RT source'"
SEVERAL_FAULTS = [
    ("events", "x\t\tu\tM", UnparsableLine, "not a base-10 integer: 'x'"),
    ("events", "1\tu\t#x\tRT\tu", UnparsableLine, "id starts with '#'"),
    ("events", "9" * 20 + "\t\tx\tM", UnparsableLine, "empty user id"),
    ("events", "1\tu\tx\tRT", UnparsableLine, EVENT_SHAPE),
    ("events", "x\tu\tx\tRT", UnparsableLine, EVENT_SHAPE),
    ("events", "1\t\t\tM", UnparsableLine, "empty user id"),
    ("events", "1\tu\t\tRT\t", UnparsableLine, "empty url"),
    ("events", "1\t#u\tx\tRT\t", UnparsableLine, "id starts with '#'"),
    ("events", "1\tu\tx\tRT\t", UnparsableLine, "empty retweet source"),
    ("events", "9" * 20 + "\tu\tx\tRT\tu", UnparsableLine, "retweet credits its own author"),
    ("events", "9" * 20 + "\tu\tx\tRT\t#s", UnparsableLine, "id starts with '#'"),
    ("events", "1\t#u\t\tM", UnparsableLine, "empty url"),
    ("events", "9" * 20 + "\tu\tx\tRT\t", UnparsableLine, "empty retweet source"),
    ("events", "9" * 20 + "\t#u\tx\tM", UnparsableLine, "id starts with '#'"),
    ("follows", "a\ta\tb", UnparsableLine, "expected 'followee follower'"),
    ("follows", "\t", UnparsableLine, "empty user id"),
    ("follows", "a\t", UnparsableLine, "empty user id"),
    ("follows", "a b\ta b", UnparsableLine, "self-follow"),
    ("follows", "\t\t", UnparsableLine, "expected 'followee follower'"),
    ("follows", "\t#a", UnparsableLine, "empty user id"),
    ("clicks", "\t-x", UnparsableLine, "expected 'url count'"),
    ("clicks", "u\t-x", UnparsableLine, "not a base-10 integer: '-x'"),
    ("clicks", "u\t-007", NegativeCount, "negative count -7"),
    ("clicks", "u\t1\t2", UnparsableLine, "expected 'url count'"),
    ("clicks", "\t5", UnparsableLine, "expected 'url count'"),
    ("graph", "a\ta\tnan", UnparsableLine, "self-arc"),
    ("graph", "a\ta\t-", UnparsableLine, "self-arc"),
    ("graph", "a\tb\tx", UnparsableLine, "could not convert string to float: 'x'"),
    ("graph", "a\tb\tnan", UnparsableLine, "weight outside (0, 1]: 'nan'"),
    ("graph", "a\t-\t-\tx", UnparsableLine, "expected 'source target weight' or 'node - -'"),
    ("graph", "a\ta\t0.5\tx", UnparsableLine, "expected 'source target weight' or 'node - -'"),
    ("scores", "a\t1\nb\tnan\tx", ConfigInvalid, "3 columns, unlike the 2 of line 1"),
    ("scores", "a\tnan\tx\ty", ConfigInvalid, "unrecognized line"),
    ("scores", "a\t1\nb\tx\tx\tx", ConfigInvalid, "unrecognized line"),
    ("scores", "a\tx\t1", ConfigInvalid, "score is not a number"),
]
FAULT_READERS = {
    "events": lambda tmp_path, text: parse_events(text),
    "follows": lambda tmp_path, text: parse_follows(text),
    "clicks": lambda tmp_path, text: parse_clicks(text),
    "graph": lambda tmp_path, text: graph_from_tsv(text),
    "scores": _read_scores,
}


class TestEachFormatChecksInOneOrder:
    MESSAGE = {
        UnparsableLine: "line {n}: {reason}: {line!r}",
        NegativeCount: "line {n}: {reason}",
        ConfigInvalid: "line {n} of PATH: {reason}: {line!r}",
    }

    @pytest.mark.parametrize("reader, text, error, reason", SEVERAL_FAULTS)
    def test_a_line_reports_the_first_check_it_fails(self, tmp_path, reader, text, error, reason):
        with pytest.raises(error) as info:
            FAULT_READERS[reader](tmp_path, text + "\n")
        *before, line = text.split("\n")
        message = self.MESSAGE[error].format(n=len(before) + 1, reason=reason, line=line)
        assert str(info.value) == message


# per reader: valid lines that no bulk check clears, the malformed third line's
# reason, and what the valid lines read to
UNUSUAL = {
    "events": (
        parse_events,
        [
            "-5\tu#\tl1\tM", "9223372036854775807\tv\tl#2\tM", "3\tv\tl1\tRT\tv",
            "-9223372036854775808\tw\tl1\tRT\tu#", "007\t-\t-\tM",
        ],
        "retweet credits its own author",
        log_of([
            TweetEvent(-5, "u#", "l1"), TweetEvent(2**63 - 1, "v", "l#2"),
            TweetEvent(-(2**63), "w", "l1", "u#"), TweetEvent(7, "-", "-"),
        ]),
    ),
    "follows": (
        parse_follows,
        ["u#\tv", "v\tu#", "w\tw", "a b\t-", "é\tu#"],
        "self-follow",
        follows_of([("u#", "v"), ("v", "u#"), ("a b", "-"), ("é", "u#")]),
    ),
    "clicks": (
        parse_clicks,
        ["u#\t0", "a b\t007", "x\t1.5", "l\t99999999999999999999", "-\t3"],
        "not a base-10 integer: '1.5'",
        ClickTable({"u#": 0, "a b": 7, "l": 99999999999999999999, "-": 3}),
    ),
    "graph": (
        lambda text, strict=True: graph_from_tsv(text),
        ["u#\tv\t1", "v\tu#\t1e-300", "a\ta\t0.5", "w\t-\t-", "-\tw\t0.5"],
        "self-arc",
        graph_from_arcs(
            [("u#", "v", 1.0), ("v", "u#", 1e-300), ("-", "w", 0.5)], nodes=["w"]
        ),
    ),
}


class TestABlockThatFailsItsCheck:
    """A block holding one malformed line among valid lines that no bulk
    check clears has every line judged: strict mode names the malformed
    line, lenient mode keeps every other line, whatever the block size."""

    @pytest.mark.parametrize("block", [1, ingest._BLOCK])
    @pytest.mark.parametrize("reader", sorted(UNUSUAL))
    def test_strict_names_the_line_and_lenient_keeps_the_rest(self, reader, block):
        parse, lines, reason, expected = UNUSUAL[reader]
        with patch.object(ingest, "_BLOCK", block):
            with pytest.raises(UnparsableLine) as info:
                parse("\n".join(lines) + "\n")
            assert (info.value.line_no, info.value.reason) == (3, reason)
            assert parse("\n".join(lines[:2] + lines[3:])) == expected
            if reader != "graph":  # a graph file is always read strictly
                lenient = parse("\n".join(lines) + "\n", strict=False)
                assert (lenient, lenient.skipped) == (expected, 1)


class TestMemoryIsBoundedByTheBlock:
    """Text is read a block at a time, so what a reader allocates and frees
    again stays under one bound for inputs 4x apart. Over the whole of the
    larger inputs, the tokens alone would take more than twice that bound."""

    BOUND_MB = 4.0

    @staticmethod
    def _transient_mb(read, path, mode):
        gc.collect()
        tracemalloc.start()
        try:
            with open(path, mode) as fh:
                result = read(fh)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result
        return (peak - current) / 1e6

    @pytest.mark.parametrize("mode", ["r", "rb"])
    @pytest.mark.parametrize("lines", [5000, 20000])
    def test_events(self, tmp_path, lines, mode):
        text = "".join(
            f"{t}\tu{t % 97}\tl{t % 89}\t" + (f"RT\tu{(t + 1) % 97}\n" if t % 3 == 0 else "M\n")
            for t in range(lines)
        )
        assert self._transient_mb(parse_events, _file(tmp_path, text), mode) < self.BOUND_MB

    @pytest.mark.parametrize("mode", ["r", "rb"])
    @pytest.mark.parametrize("lines", [5000, 20000])
    def test_graph(self, tmp_path, lines, mode):
        text = "".join(f"n{k % 199:03}\tm{k // 199:03}\t0.{k % 9 + 1}\n" for k in range(lines))
        assert self._transient_mb(graph_from_tsv, _file(tmp_path, text), mode) < self.BOUND_MB

    @pytest.mark.parametrize("mode", ["r", "rb"])
    @pytest.mark.parametrize("lines", [5000, 20000])
    def test_follows(self, tmp_path, lines, mode):
        # ids as the benchmark's follows have them: 12-byte lines
        text = "".join(f"u{k % 97:04}\tu{k // 97 + 100:04}\n" for k in range(lines))
        assert self._transient_mb(parse_follows, _file(tmp_path, text), mode) < self.BOUND_MB

    @pytest.mark.parametrize("lines", [5000, 20000])
    def test_scores(self, tmp_path, lines):
        # scores as a writer here gives them, 17 significant digits
        text = "".join(f"n{k:05}\t{k / 7:.17g}\t{k / 9:.17g}\n" for k in range(lines))
        read = _file(tmp_path, text), "rb"  # the reader opens the path itself
        assert self._transient_mb(lambda fh: read_score_columns(fh.name), *read) < self.BOUND_MB


class TestACleanBlockMakesNoPythonCallPerToken:
    """Blocks whose lines all pass are judged and interned from their bytes:
    the reader never splits them into strings (``_Fields.flat``). A block
    holding one bad line still reports that line as before."""

    @staticmethod
    def _events(lines):
        # times of up to 18 digits, some negative or with leading zeros
        times = [f"{(t * 7919) ** 5 % 10 ** (t % 18 + 1):0{t % 4 + 1}}" for t in range(lines)]
        times = [f"-{t}" if k % 5 == 0 else t for k, t in enumerate(times)]
        return [
            f"{t}\tu{k % 97}\turl{k % 89}\t" + (f"RT\tu{(k + 1) % 97}" if k % 3 == 0 else "M")
            for k, t in enumerate(times)
        ]

    @staticmethod
    def _follows(lines):
        return [f"u{k % 97}\tv{k % 89}" for k in range(lines)]

    @staticmethod
    def _splits(parse, lines):
        """What ``parse`` makes of ``lines``, and how often a block was split."""
        calls = []
        split = ingest._Fields.flat.func

        def counted(f):
            calls.append(f)
            return split(f)

        with patch.object(ingest._Fields, "flat", property(counted)):
            result = parse("\n".join(lines) + "\n")
        return result, len(calls)

    def test_clean_events_are_never_split(self):
        lines = self._events(20000)  # several blocks
        log, splits = self._splits(parse_events, lines)
        assert splits == 0
        events = []
        for line in lines:
            t, user, url, *rest = line.split("\t")
            events.append(TweetEvent(int(t), user, url, rest[1] if len(rest) == 2 else None))
        assert log == log_of(events)

    def test_clean_follows_are_never_split(self):
        lines = self._follows(12000)
        follows, splits = self._splits(parse_follows, lines)
        assert splits == 0
        assert follows == follows_of(line.split("\t") for line in lines)

    def test_a_clean_graph_is_never_split(self):
        arcs = [(f"n{k % 997:03}", f"m{k // 997:03}", (k % 9 + 1) / 10) for k in range(20000)]
        g, splits = self._splits(graph_from_tsv, [f"{i}\t{j}\t{w!r}" for i, j, w in arcs])
        assert splits == 0
        assert g == graph_from_arcs(arcs)

    def test_a_graph_block_reads_its_weights_a_slice_at_a_time(self):
        """One block holds more lines than a slice, and a node line: an odd
        weight in the first slice and a bad one in the next read as they do
        at a line a block."""
        lines = [f"n{k % 97:02}\tm{k // 97:02}\t0.{k % 9 + 1}" for k in range(ingest._SLICE + 99)]
        lines[0] = lines[0].rsplit("\t", 1)[0] + "\t1e-300"
        lines[1000] = "z\t-\t-"
        bad = ingest._SLICE + 50
        lines[bad] = lines[bad].rsplit("\t", 1)[0] + "\tnan"
        text = "\n".join(lines[:bad] + lines[bad + 1 :]) + "\n"
        assert len(text.encode()) < ingest._BLOCK  # one block at the default
        read = []
        for block in (7, ingest._BLOCK):
            with patch.object(ingest, "_BLOCK", block):
                g = graph_from_tsv(text)
                with pytest.raises(UnparsableLine) as info:
                    graph_from_tsv("\n".join(lines))
            read.append((g, info.value.line_no, info.value.reason, info.value.line))
        assert read[0] == read[1]
        assert read[1][1:] == (bad + 1, "weight outside (0, 1]: 'nan'", lines[bad])
        arcs = [line.split("\t") for k, line in enumerate(lines) if k not in (1000, bad)]
        assert read[1][0] == graph_from_arcs([(i, j, float(w)) for i, j, w in arcs], nodes=["z"])

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("5\tu7\turl1\tRT\tu7", "retweet credits its own author"),
            ("9223372036854775808\tu7\turl1\tM", "time out of 64-bit range: '9223372036854775808'"),
            ("-9223372036854775809\tu7\turl1\tM", "time out of 64-bit range: '-9223372036854775809'"),
        ],
    )
    def test_one_bad_event_still_names_its_line(self, line, reason):
        lines = self._events(6000)
        lines[4321] = line
        with pytest.raises(UnparsableLine) as info:
            self._splits(parse_events, lines)
        assert (info.value.line_no, info.value.reason, info.value.line) == (4322, reason, line)
        log = parse_events("\n".join(lines), strict=False)
        assert (len(log), log.skipped) == (5999, 1)

    def test_a_nineteen_digit_time_in_range_reads_through_int(self):
        lines = self._events(6000)
        lines[4321] = "-9223372036854775808\tu7\turl1\tM"
        lines[4322] = "0000000000000000042\tu7\turl1\tM"
        log, _ = self._splits(parse_events, lines)
        assert log.time[:1].tolist() == [-(2**63)]
        assert 42 in log.time.tolist()

    def test_one_self_follow_still_names_its_line(self):
        lines = self._follows(12000)
        lines[9876] = "u5\tu5"
        with pytest.raises(UnparsableLine) as info:
            self._splits(parse_follows, lines)
        assert (info.value.line_no, info.value.reason) == (9877, "self-follow")
        assert parse_follows("\n".join(lines), strict=False).skipped == 1
