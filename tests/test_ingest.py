"""Parsing, container invariants, and serialization round-trips."""

import io
import random
import re

import pytest

from iprank.cli import load_config, read_manifest, read_score_columns
from iprank.errors import ConfigInvalid, EmptyInput, MissingInput, NegativeCount, UnparsableLine
from iprank.graphs import graph_from_tsv
from iprank.ingest import (
    ActivityLog,
    FollowEdgeList,
    TweetEvent,
    clicks_to_tsv,
    events_to_tsv,
    follows_to_tsv,
    parse_clicks,
    parse_events,
    parse_follows,
    url_counts,
)
from iprank.testkit import followees_of, followers_of

EVENTS = "1\tu1\turl-a\tM\n2\tu2\turl-b\tM\n3\tu3\turl-c\tM\n"


class TestParseEvents:
    def test_three_wellformed_mentions(self):
        log = parse_events(EVENTS)
        assert len(log) == 3
        assert [ev.time for ev in log] == [1, 2, 3]
        assert all(not ev.is_retweet for ev in log)

    def test_out_of_order_lines_resorted(self):
        log = parse_events("5\tu1\ta\tM\n1\tu2\tb\tM\n3\tu3\tc\tM\n")
        assert [ev.time for ev in log] == [1, 3, 5]

    def test_retweet_line(self):
        log = parse_events("7\tu2\ta\tRT\tu1\n1\tu1\ta\tM\n")
        rt = log.events[1]
        assert rt.is_retweet and rt.source == "u1" and rt.kind == "RT"

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

    def test_index_covers_exactly_the_events(self):
        log = parse_events(EVENTS + "9\tu1\turl-z\tM\n")
        positions = sorted(p for ps in log.by_user.values() for p in ps)
        assert positions == list(range(len(log)))
        for user, ps in log.by_user.items():
            assert all(log.events[p].user == user for p in ps)


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
        assert f.edges == frozenset({("a", "b")})

    def test_self_follow_strict(self):
        with pytest.raises(UnparsableLine):
            parse_follows("a\ta\n")

    def test_self_follow_lenient(self):
        f = parse_follows("a\ta\na\tb\n", strict=False)
        assert f.edges == frozenset({("a", "b")})
        assert f.skipped == 1

    def test_two_distinct_pairs(self):
        f = parse_follows("a\tb\nb\ta\n")
        assert len(f) == 2
        assert ("a", "b") in f and ("b", "a") in f

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
        with pytest.raises(ValueError):
            TweetEvent(1, user, url, source)

    def test_follows_strict(self):
        with pytest.raises(UnparsableLine) as info:
            parse_follows("a\tb\nb\t#a\n")
        assert info.value.line_no == 2
        assert info.value.reason == "id starts with '#'"

    def test_follows_lenient_tallies(self):
        f = parse_follows("b\t#a\na\tb\n", strict=False)
        assert f.skipped == 1
        assert f.edges == frozenset({("a", "b")})

    @pytest.mark.parametrize("edge", [("#a", "b"), ("b", "#a")])
    def test_follow_edge_list(self, edge):
        with pytest.raises(ValueError):
            FollowEdgeList([edge])

    def test_inner_hash_is_an_ordinary_character(self):
        assert parse_follows("a#\tb#c\n").edges == frozenset({("a#", "b#c")})
        assert parse_events("1\ta#\tu#1\tM\n").user_ids == ("a#",)


class TestCarriageReturnEndsALine:
    """LF, CR and CRLF each end a line of a string, of bytes, of an
    iterable's items and of a text stream that ends lines at LF only, as in a
    file opened in text mode, so no id holds a CR."""

    FORMS = {
        "str": lambda text: text,
        "bytes": lambda text: text.encode("utf-8"),
        # items split at LF only: splitlines() would split at the CR too
        "lines": lambda text: [f"{line}\n" for line in text.split("\n")[:-1]],
        "byte lines": lambda text: [line.encode("utf-8") for line in text.split("\n")[:-1]],
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
        assert f.edges == frozenset({("a", "b"), ("d", "a")})

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
        assert f.edges == frozenset({("a", "b"), ("d", "a")})

    def test_a_cr_split_line_numbers_the_rest(self):
        log = parse_events(["1\tu\tx\tM\rbad\n", "\n", "#c\n", "2\tu\ty\tM\n"], strict=False)
        assert log.skipped == 1
        with pytest.raises(UnparsableLine) as info:
            parse_events(["1\tu\tx\tM\rbad\n", "bad\n"])
        assert (info.value.line_no, info.value.line) == (2, "bad")


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


class TestUrlCounts:
    def test_repeat_mentions_counted_once(self):
        log = parse_events("1\tu\ta\tM\n2\tu\tb\tM\n3\tu\ta\tM\n")
        assert url_counts(log) == {"u": 2}

    def test_user_without_events_absent(self):
        log = parse_events(EVENTS)
        assert "ghost" not in url_counts(log)

    def test_retweet_counts_as_mention(self):
        log = parse_events("1\tv\tb\tM\n2\tu\ta\tM\n3\tu\tb\tRT\tv\n")
        counts = url_counts(log)
        # independent check: brute-force distinct-URL scan
        naive = {}
        for ev in log:
            naive.setdefault(ev.user, set()).add(ev.url)
        assert counts == {u: len(s) for u, s in naive.items()}
        assert counts["u"] == 2

    def test_matches_naive_scan_on_random_trace(self):
        rng = random.Random(5)
        events = []
        for t in range(200):
            user = f"u{rng.randrange(10)}"
            url = f"l{rng.randrange(15)}"
            events.append(TweetEvent(time=t, user=user, url=url))
        log = ActivityLog(events)
        naive = {}
        for ev in log:
            naive.setdefault(ev.user, set()).add(ev.url)
        assert url_counts(log) == {u: len(s) for u, s in naive.items()}


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


class TestConstructors:
    def test_event_invariants(self):
        with pytest.raises(ValueError):
            TweetEvent(time=1, user="u", url="a", source="u")
        with pytest.raises(ValueError):
            TweetEvent(time=1, user="u", url="")

    def test_follow_edge_list_rejects_self(self):
        with pytest.raises(ValueError):
            FollowEdgeList([("a", "a")])


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
