"""Hypothesis properties of the events, follows, graph and score formats, the
columnar log and follow edges, and the array rankings against their
dict-and-loop oracles; the block readers against their line-loop references."""

import io
import math
import operator
import os
import random
import re
import tempfile
import warnings
from pathlib import Path
from unittest.mock import patch

import line_readers
import line_writers
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from iprank import ingest
from iprank.analytics import (
    RateReport, RateSummary, _average_ranks, curve_to_tsv, percentile_curve, rank_correlation,
    rank_join, rate_report, rates_to_tsv, report_to_tsv, top_k,
)
from iprank.baselines import (
    ScoreVector, follower_count, h_index_scores, retweet_count, vector_to_tsv,
)
from iprank.cli import load_config, read_score_columns
from iprank.errors import (
    ConfigInvalid, EmptyInput, InsufficientOverlap, IpRankError, MissingInput, NegativeCount,
    UnparsableLine,
)
from iprank.graphs import InfluenceGraph, graph_from_tsv, graph_to_tsv
from iprank.ingest import (
    _ROW_BLOCK,
    ClickTable,
    TweetEvent,
    clicks_to_tsv,
    events_to_tsv,
    follows_to_tsv,
    parse_clicks,
    parse_events,
    parse_follows,
)
from iprank.ipcore import IterationTrace, ScorePair, scores_to_tsv, trace_to_tsv
from oracles import (
    audience_retweeting_rate,
    average_ranks,
    arcs_of,
    by_id,
    edges,
    follow_codes,
    follower_counts,
    follows_of,
    graph_from_arcs,
    h_index,
    log_of,
    percentile_curve_oracle,
    point_columns,
    posters,
    posts_of,
    ranking,
    ranks_of,
    read_manifest,
    retweets_of,
    rows,
    user_retweeting_rate,
    vector_from_mapping,
)

# every id the ingest accepts: non-empty, no TAB/CR/LF, no leading "#"
IDS = st.text(
    alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="\t\r\n"),
    min_size=1,
    max_size=6,
).filter(lambda s: not s.startswith("#"))
TIMES = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1)


@st.composite
def event_lists(draw):
    """Events over a small id pool, so ties on time, user and url are common."""
    users = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    urls = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    events = []
    for _ in range(draw(st.integers(1, 25))):
        user = draw(st.sampled_from(users))
        others = [u for u in users if u != user]
        source = draw(st.none() | st.sampled_from(others)) if others else None
        events.append(TweetEvent(draw(TIMES), user, draw(st.sampled_from(urls)), source))
    return events


@st.composite
def repeating_event_lists(draw):
    """Event lists in which rows repeat: a (user, url) at the time it had and
    at others, and a retweet's (source, user, url), whose source then posts
    the URL too, so that retweets count; the tables sort on ties."""
    events = draw(event_lists())
    again = draw(st.lists(st.sampled_from(events), max_size=12))
    events += [ev._replace(time=draw(st.just(ev.time) | TIMES)) for ev in again]
    posts = [TweetEvent(draw(TIMES), ev.source, ev.url) for ev in again if ev.source is not None]
    return events + posts


@given(repeating_event_lists())
def test_posts_match_the_oracle(events):
    log = log_of(events)
    users, urls, posts = log.user_ids, log.url_ids, log.posts
    got = zip(posts.user.tolist(), posts.url.tolist(), posts.first.tolist(), posts.last.tolist())
    assert [(users[u], urls[r], first, last) for u, r, first, last in got] == posts_of(log)
    keys = [users.index(u) * len(urls) + urls.index(r) for u, r, _, _ in posts_of(log)]
    assert posts.key.tolist() == keys


@given(repeating_event_lists())
def test_retweets_match_the_oracle(events):
    log = log_of(events)
    users, urls, rt = log.user_ids, log.url_ids, log.retweets
    got = zip(rt.source.tolist(), rt.user.tolist(), rt.url.tolist(), rt.count.tolist())
    assert [(users[s], users[u], urls[r], n) for s, u, r, n in got] == retweets_of(log)


@given(repeating_event_lists())
def test_h_index_matches_the_oracle(events):
    log = log_of(events)
    assert by_id(h_index_scores(log)) == {u: float(h_index(log, u)) for u in posters(log)}


def test_the_derived_tables_sort_without_lexsort():
    """Each derived table and ranking sorts by one packed key, never by
    ``np.lexsort``; the containers are built before it is taken away."""
    events = [
        (3, "b", "x", None), (1, "a", "x", None), (2, "b", "x", "a"), (2, "c", "x", "a"),
        (1, "c", "y", None), (4, "a", "y", "c"), (4, "b", "x", "a"), (0, "a", "y", None),
    ]
    log = log_of(events)
    follows = follows_of([("a", "b"), ("a", "c"), ("z", "a"), ("c", "a"), ("b", "z")])

    def refuse(*args, **kwargs):
        raise AssertionError("np.lexsort called")

    with patch.object(np, "lexsort", refuse):
        assert len(log.posts.key) == 5
        assert log.retweets.count.tolist() == [2, 1, 1]
        assert log.follow_codes(follows)[2] == ("z",)
        assert by_id(h_index_scores(log)) == {"a": 1.0, "b": 0.0, "c": 1.0}
        # h-index 1, 0, 1 against 3, 0, 1 retweets, for a, b, c
        rho = rank_correlation(h_index_scores(log), retweet_count(log))
        assert rho == pytest.approx(3**0.5 / 2)


@given(event_lists())
def test_events_round_trip_through_tsv(events):
    log = log_of(events)
    assert parse_events(events_to_tsv(log)) == log
    assert log_of(log) == log


@given(st.data())
def test_log_is_invariant_under_permutation(data):
    events = data.draw(event_lists())
    shuffled = data.draw(st.permutations(events))
    assert log_of(shuffled) == log_of(events)
    assert list(log_of(shuffled)) == list(log_of(events))


@st.composite
def edge_lists(draw, users=None):
    """Follow edges over a small id pool, so users share many edges."""
    if users is None:
        users = draw(st.lists(IDS, min_size=2, max_size=5, unique=True))
    pairs = st.tuples(st.sampled_from(users), st.sampled_from(users))
    return draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=12))


@given(st.data())
def test_follow_edges_ignore_order_and_repeats(data):
    drawn = data.draw(edge_lists())
    repeats = data.draw(st.lists(st.sampled_from(drawn))) if drawn else []
    follows = follows_of(drawn)
    assert follows_of(data.draw(st.permutations(drawn + repeats))) == follows
    pairs = edges(follows)
    assert pairs == set(drawn)
    assert len(follows) == len(set(drawn))
    for a, b in drawn:
        assert (a, b) in pairs
        assert (a, "\t") not in pairs


# ids a looser line rule would skip: whitespace only, or whitespace then "#"
WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\t\r\n"]
SPACES = st.text(alphabet=st.sampled_from(WHITESPACE), min_size=1, max_size=3)
EDGE_IDS = IDS | SPACES | st.tuples(SPACES, IDS | st.just("")).map(lambda t: t[0] + "#" + t[1])


@given(st.lists(EDGE_IDS, min_size=2, max_size=5, unique=True).flatmap(edge_lists))
def test_follows_round_trip_through_tsv(edges):
    assume(edges)
    follows = follows_of(edges)
    assert parse_follows(follows_to_tsv(follows)) == follows


# ids of up to 24 UTF-8 bytes, so some are longer than the interner's keys
# hold (``ingest._PREFIX``), with multibyte characters and "#" past the first
ROW_IDS = st.text(
    alphabet=st.sampled_from("ab#-é中\U0001f600") | st.characters(
        exclude_categories=("Cs",), exclude_characters="\t\r\n"
    ),
    min_size=1,
    max_size=24,
).filter(lambda s: s[0] != "#" and len(s.encode("utf-8")) <= 24)


@settings(deadline=None)
@given(st.data())
def test_rows_and_edges_round_trip(data):
    ids = st.sampled_from(data.draw(st.lists(ROW_IDS, min_size=2, max_size=5, unique=True)))
    row = st.tuples(TIMES, ids, ids, st.none() | ids).filter(lambda r: r[1] != r[3])
    rows = data.draw(st.lists(row, min_size=1, max_size=12))
    log = log_of(rows)
    assert parse_events(events_to_tsv(log)) == log_of(rows) == log
    assert log_of(tuple(log)) == log
    pairs = data.draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), min_size=1))
    follows = follows_of(pairs)
    assert parse_follows(follows_to_tsv(follows)) == follows_of(pairs) == follows
    assert follows_of(edges(follows)) == follows


@given(st.dictionaries(EDGE_IDS, st.integers(0, 2**63 - 1), max_size=8))
def test_clicks_round_trip_through_tsv(clicks):
    table = ClickTable(clicks)
    assert parse_clicks(clicks_to_tsv(table)).clicks == table.clicks


@given(edge_lists())
def test_follower_count_matches_the_oracle(edges):
    assert by_id(follower_count(follows_of(edges))) == follower_counts(follows_of(edges))


@given(st.data())
def test_follow_codes_match_the_oracle(data):
    events = data.draw(repeating_event_lists())
    log = log_of(events)
    # edges over some of the log's users and some it never saw
    pool = data.draw(st.lists(IDS, max_size=3, unique=True)) + list(log.user_ids)
    if len(set(pool)) < 2:
        return
    follows = follows_of(data.draw(edge_lists(sorted(set(pool)))))
    followee, follower, extra = log.follow_codes(follows)
    pairs, expected_extra = follow_codes(log, follows)
    assert list(zip(followee.tolist(), follower.tolist())) == pairs
    assert extra == expected_extra


@st.composite
def logs_and_follows(draw):
    """A log, and follow edges over some of its users and at least one id it
    never saw."""
    log = log_of(draw(repeating_event_lists()))
    unseen = draw(st.lists(IDS.filter(lambda u: u not in log.user_ids), min_size=1, max_size=3))
    return log, follows_of(draw(edge_lists(sorted({*unseen, *log.user_ids}))))


@given(logs_and_follows())
@example((log_of([(1, "a", "x", None)]), follows_of([("a", "b"), ("c", "a")])))
def test_rate_report_matches_the_oracles(trace):
    # a user the log never saw has no audience rate, and may have a user rate
    log, follows = trace
    report = rate_report(log, follows)
    users = sorted({*log.user_ids, *follows.user_ids})
    for vector, summary, oracle, label in (
        (report.user_rates, report.user_summary, user_retweeting_rate, "user_rate"),
        (report.audience_rates, report.audience_summary, audience_retweeting_rate, "audience_rate"),
    ):
        rates = {user: oracle(log, follows, user) for user in users}
        assert list(vector.node_ids) == [user for user in users if rates[user] is not None]
        assert by_id(vector) == {user: r for user, r in rates.items() if r is not None}
        assert vector.label == label
        assert sum(summary.histogram) == len(vector.node_ids)
    assert rates_to_tsv(report) == line_writers.rates_to_tsv(report)


WEIGHTS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


# "-" often, since an isolated node is written as "i TAB - TAB -"
@given(st.lists(IDS | st.just("-"), max_size=6, unique=True), st.data())
def test_graph_round_trips_through_tsv(nodes, data):
    arcs = {}
    if len(nodes) >= 2:
        pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(
            lambda e: e[0] != e[1]
        )
        arcs = data.draw(st.dictionaries(pairs, WEIGHTS, max_size=10))
    g = graph_from_arcs([(i, j, w) for (i, j), w in arcs.items()], nodes=nodes)
    assert graph_from_tsv(graph_to_tsv(g)) == g


# ids that strain the graph reader's byte keys: stems of 7, 8, 9, 15, 16, 17 and
# 40 bytes (long ones sharing their first 16), each perhaps with a tail of NUL,
# DEL, multibyte characters or lone surrogates, so one id is often another's prefix
KEY_STEMS = ["", "x" * 7, "x" * 8, "x" * 9, "y" * 15, "0123456789abcdef", "0123456789abcdefg"]
KEY_STEMS += ["0123456789abcdef" + "z" * 24, "0123456789abcdef" + "w" * 24]
KEY_CHARS = ["a", "b", "\x00", "\x7f", "é", "中", "\U0001f600", "\ud800", "\udfff"]
KEY_TAILS = st.text(alphabet=st.sampled_from(KEY_CHARS), max_size=3)
KEY_IDS = st.builds(operator.add, st.just("") | st.sampled_from(KEY_STEMS), KEY_TAILS).filter(bool)


@settings(deadline=None)
@given(st.lists(KEY_IDS, min_size=1, max_size=10), st.data())
def test_graph_reader_sorts_and_tells_apart_every_id(ids, data):
    nodes = sorted(set(ids))
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    pairs = pairs.filter(lambda e: e[0] != e[1])
    arcs = data.draw(st.dictionaries(pairs, WEIGHTS, max_size=12)) if len(nodes) > 1 else {}
    g = graph_from_arcs([(i, j, w) for (i, j), w in arcs.items()], nodes=ids)
    text = graph_to_tsv(g)  # a str, so lone surrogates reach the reader
    for size in (7, ingest._BLOCK):
        with patch.object(ingest, "_BLOCK", size):
            back = graph_from_tsv(text)
        assert back == g
        assert back.node_ids == tuple(nodes)


# times of 1 to 19 digits, perhaps signed or led by zeros, so some do not fit in 64 bits
TIME_TOKENS = st.builds(
    operator.add, st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=19)
) | st.sampled_from(["-0", str(-(2**63)), str(2**63 - 1)])


@st.composite
def keyed_event_texts(draw):
    """Events over ``KEY_IDS`` users and urls; a source may be its own retweeter."""
    users = draw(st.lists(KEY_IDS, min_size=1, max_size=5, unique=True))
    urls = draw(st.lists(KEY_IDS, min_size=1, max_size=5, unique=True))
    lines = []
    for _ in range(draw(st.integers(1, 20))):
        time, user, url = draw(TIME_TOKENS), draw(st.sampled_from(users)), draw(st.sampled_from(urls))
        source = draw(st.none() | st.sampled_from(users))
        lines.append(f"{time}\t{user}\t{url}\t" + ("M" if source is None else f"RT\t{source}"))
    return "\n".join(lines) + "\n"


@st.composite
def keyed_follow_texts(draw):
    """Follow edges over ``KEY_IDS``; a user may follow itself."""
    users = draw(st.lists(KEY_IDS, min_size=1, max_size=6, unique=True))
    pairs = st.tuples(st.sampled_from(users), st.sampled_from(users))
    return "".join(f"{a}\t{b}\n" for a, b in draw(st.lists(pairs, min_size=1, max_size=20)))


def _assert_keyed_reader(parse, reference, write, text):
    """``parse`` reads ``text`` as ``reference`` does in both modes, at block
    sizes 7 and the default, and what it reads round-trips through ``write``."""
    for size in (7, ingest._BLOCK):
        with patch.object(ingest, "_BLOCK", size):
            for strict in (True, False):
                read = _outcome(_reader(parse, write, strict), text)
                assert read == _outcome(_reader(reference, write, strict), text), (size, strict)
                if isinstance(read[1], int):  # read, not refused
                    assert parse(read[0]) == parse(text, strict=False)


@settings(deadline=None)
@given(keyed_event_texts())
def test_events_reader_tells_apart_every_id_and_time(text):
    _assert_keyed_reader(parse_events, line_readers.read_events, events_to_tsv, text)


@settings(deadline=None)
@given(keyed_follow_texts())
def test_follows_reader_tells_apart_every_id(text):
    _assert_keyed_reader(parse_follows, line_readers.read_follows, follows_to_tsv, text)


# ids from characters that matter to the line format, so the rule is often broken
@given(st.lists(st.text(alphabet="#\t\r\n a", max_size=3), max_size=5, unique=True))
def test_constructor_scan_matches_the_per_id_rule(ids):
    ids = sorted(ids)
    bad = any(not u or u[0] == "#" or "\t" in u or "\r" in u or "\n" in u for u in ids)
    try:
        InfluenceGraph(ids, [], [], [])
    except ValueError:
        assert bad
    else:
        assert not bad


# ids a writer can write back, and ids holding TAB, CR or LF or led by "#"
MIXED_IDS = KEY_IDS | st.builds(
    lambda head, mark, tail: head + mark + tail,
    st.just("") | KEY_IDS, st.sampled_from(["\t", "\r", "\n", "\r\n", "#"]), st.just("") | KEY_IDS,
)


def _writable(uid):
    return bool(uid) and uid[0] != "#" and not any(c in uid for c in "\t\r\n")


@settings(deadline=None)
@given(st.data())
def test_events_constructor_refuses_what_does_not_read_back(data):
    ids = st.sampled_from(data.draw(st.lists(MIXED_IDS, min_size=1, max_size=4, unique=True)))
    rows = data.draw(st.lists(st.tuples(TIMES, ids, ids, st.none() | ids), min_size=1, max_size=6))
    try:
        log = log_of(rows)
    except ValueError:
        assert any(
            s == u or not all(map(_writable, (u, r) if s is None else (u, r, s)))
            for _, u, r, s in rows
        )
    else:
        assert parse_events(events_to_tsv(log)) == log


@settings(deadline=None)
@given(st.data())
def test_follows_constructor_refuses_what_does_not_read_back(data):
    ids = st.sampled_from(data.draw(st.lists(MIXED_IDS, min_size=1, max_size=4, unique=True)))
    pairs = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=8))
    try:
        follows = follows_of(pairs)
    except ValueError:
        assert any(a == b or not (_writable(a) and _writable(b)) for a, b in pairs)
    else:
        assert parse_follows(follows_to_tsv(follows)) == follows


@given(st.dictionaries(MIXED_IDS, st.integers(-3, 2**63 - 1), max_size=4))
def test_clicks_constructor_refuses_what_does_not_read_back(clicks):
    try:
        table = ClickTable(clicks)
    except ValueError:
        assert not all(_writable(url) and count >= 0 for url, count in clicks.items())
    else:
        assert parse_clicks(clicks_to_tsv(table)).clicks == table.clicks


SCORES = st.floats(allow_nan=False)


def read_back(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.tsv"
        path.write_text(text, encoding="utf-8")
        return read_score_columns(str(path))


@given(st.dictionaries(IDS, SCORES, min_size=1, max_size=8), IDS)
def test_score_vector_round_trips_through_its_file(values, label):
    vector = vector_from_mapping(values, label)
    assert read_back(vector_to_tsv(vector)) == (label, {label: vector})


@given(st.dictionaries(IDS, st.tuples(SCORES, SCORES), min_size=1, max_size=8))
def test_score_pair_round_trips_through_its_file(values):
    ids = sorted(values)
    pair = ScorePair(ids, [values[u][0] for u in ids], [values[u][1] for u in ids], 1)
    _, columns = read_back(scores_to_tsv(pair))
    assert columns["influence"] == ScoreVector(pair.node_ids, pair.influence, "influence")
    assert columns["passivity"] == ScoreVector(pair.node_ids, pair.passivity, "passivity")


# few distinct values, so ties are common; signed zeros and infinities included
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf])
VECTORS = st.dictionaries(IDS | st.sampled_from("abcdef"), VALUES, max_size=12).map(
    lambda values: vector_from_mapping(values, "m")
)


@given(st.lists(VALUES, max_size=30))
def test_average_ranks_match_the_loop(values):
    values = np.array(values)
    assert np.array_equal(_average_ranks(values), average_ranks(values))


@given(VECTORS, VECTORS)
def test_rank_correlation_matches_the_oracle(a, b):
    assert_rank_correlation_matches_the_oracle(a, b)


def assert_rank_correlation_matches_the_oracle(a, b):
    da, db = by_id(a), by_id(b)
    common = sorted(da.keys() & db.keys())
    if len(common) < 2:
        with pytest.raises(InsufficientOverlap):
            rank_correlation(a, b)
        return
    ca = average_ranks(np.array([da[u] for u in common]))
    cb = average_ranks(np.array([db[u] for u in common]))
    ca, cb = ca - ca.mean(), cb - cb.mean()
    den = math.sqrt(float(ca @ ca) * float(cb @ cb))
    got = rank_correlation(a, b)
    if den == 0.0:
        assert math.isnan(got)
    else:
        assert got == float((ca @ cb) / den)


@given(VECTORS, st.integers(1, 14), st.data())
def test_top_k_matches_the_oracle(scores, k, data):
    assert rows(top_k(scores, k)) == tuple(
        (u, v, rank) for rank, (u, v) in enumerate(ranking(scores)[:k], start=1)
    )
    n = len(scores.node_ids)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    eligible = {u for u, keep in zip(scores.node_ids, mask) if keep}
    expected = [(u, v) for u, v in ranking(scores) if u in eligible][:k]
    got = rows(top_k(scores, k, np.array(mask, dtype=bool)))
    assert got == tuple((u, v, rank) for rank, (u, v) in enumerate(expected, start=1))
    # signed zeros must come back with their sign, not just equal
    assert [math.copysign(1.0, r[1]) for r in got] == [math.copysign(1.0, v) for _, v in expected]


@given(VECTORS, VECTORS)
def test_rank_join_matches_the_oracle(a, b):
    assert_rank_join_matches_the_oracle(a, b)


def assert_rank_join_matches_the_oracle(a, b):
    ra, rb = ranks_of(a), ranks_of(b)
    common = sorted(ra.keys() & rb.keys(), key=lambda u: (ra[u], u))
    assert rows(rank_join(a, b)) == tuple((u, ra[u], rb[u]) for u in common)


@given(VECTORS, st.data())
def test_alignment_does_not_depend_on_how_the_ids_are_shared(a, data):
    """A second vector over the very id tuple of the first, over an equal
    but distinct tuple, over those ids and one more, or over none of them:
    each is joined and correlated as the oracle says."""
    n = len(a.node_ids)
    values = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    same = ScoreVector(a.node_ids, values, "b")
    equal = ScoreVector(tuple(list(a.node_ids)), values, "b")
    assert same.node_ids is a.node_ids
    assert equal.node_ids == a.node_ids and equal.node_ids is not a.node_ids
    # after every other id and valued least, the extra id leaves the others' ranks as they were
    extra = max(a.node_ids, default="") + "\U0010ffff"
    wider = ScoreVector((*a.node_ids, extra), [*values, -math.inf], "b")
    for b in (same, equal, wider):
        assert_rank_join_matches_the_oracle(a, b)
        assert_rank_correlation_matches_the_oracle(a, b)
    assert rank_join(a, same) == rank_join(a, equal) == rank_join(a, wider)
    apart = sorted({u + "+" for u in a.node_ids} - set(a.node_ids))
    disjoint = ScoreVector(apart, np.ones(len(apart)), "b")
    with pytest.raises(InsufficientOverlap):
        rank_correlation(a, disjoint)
    assert rows(rank_join(a, disjoint)) == ()


# pieces of text that make records of every reader, their headers, comments,
# blank lines and malformed lines when strung together
PIECES = st.sampled_from([
    "\n", "\n", "\r\n", "\r", "\t", "#", " ", "-", "x", "1",
    "1\tu\tx\tM", "2\tv\tx\tRT\tu", "3\tw\ty\tRT\tw", "9223372036854775808\tu\tz\tM",
    "u\tv", "v\tu", "v\tv", "x\t5", "y\t-2",
    "u\tv\t0.5", "v\tu\t1", "u\t-\t-", "u\tw\t2",
    "z\t0.25", "w\t0.5\t0.75", "#nodes=2 arcs=1", "#measure=m", "#manifest k=v",
    "#manifest oops", "min_urls=2", "strict=no",
])
TEXTS = st.lists(PIECES | st.text(alphabet="ab#\t \r\n-1", max_size=3), max_size=24).map("".join)


def _outcome(read, source):
    """What a reader makes of ``source``: its result, or its error's type and message."""
    try:
        return read(source)
    except (UnparsableLine, NegativeCount, EmptyInput, ConfigInvalid, MissingInput) as exc:
        return type(exc).__name__, str(exc)


def _reader(parse, write, strict):
    """``parse`` in one mode, its result written out with the lines it skipped."""

    def read(source):
        result = parse(source, strict=strict)
        return write(result), result.skipped

    return read


def _scores(path):
    label, columns = read_score_columns(path)
    return label, {name: (v.node_ids, v.values.tolist()) for name, v in columns.items()}


STREAM_READERS = {
    **{
        f"{name} {mode}": _reader(parse, write, mode == "strict")
        for name, parse, write in [
            ("events", parse_events, events_to_tsv),
            ("follows", parse_follows, follows_to_tsv),
            ("clicks", parse_clicks, clicks_to_tsv),
        ]
        for mode in ("strict", "lenient")
    },
    "graph": lambda source: graph_to_tsv(graph_from_tsv(source)),
}
PATH_READERS = {
    "scores": _scores,
    "manifest": read_manifest,
    "config": load_config,
}
# each form is made from the text and a file holding it
STREAM_FORMS = {
    "str": lambda text, path: text,
    "bytes": lambda text, path: text.encode("utf-8"),
    # as the command line opens every input
    "binary file": lambda text, path: open(path, "rb"),
    "file": lambda text, path: open(path, encoding="utf-8"),
    "LF-only stream": lambda text, path: io.StringIO(text),
}


def _written(text):
    fd, path = tempfile.mkstemp(suffix=".tsv")
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=40, deadline=None)
@given(TEXTS, st.integers(1, 300))
@example("1\tu\tx\tM\r\n2\tv\tx\tRT\tu\r\nu\tv\t0.5\r\n", 10)  # a CRLF split at 10
@example("1\tu\ta\rb\tM\nu\tv\t0\r.5\n", 7)  # CRs inside lines of an LF-only stream
@example("1\tu\t" + "x" * 40 + "\tM\n1\t" + "y" * 50, 16)  # long lines, no final LF
@example("u\tv\t0.5\n#nodes=9 arcs=9\n#c\n\t\n#measure=m\nz\t1\n#manifest oops\n", 9)
def test_every_reader_reads_alike_at_every_block_size(text, drawn):
    """Each reader gives the same result, skipped count or first error,
    whatever the block size and whatever form the text comes in: cuts fall
    everywhere, including inside a CRLF, a long line, a comment and a header."""
    sizes = sorted({1, 2, 3, 5, drawn, len(text) + 1})
    path = _written(text)
    try:
        for name, read in STREAM_READERS.items():
            seen = {}
            for form, make in STREAM_FORMS.items():
                outcomes = []
                for size in sizes:
                    with patch.object(ingest, "_BLOCK", size):
                        source = make(text, path)
                        outcomes.append(_outcome(read, source))
                        if hasattr(source, "close"):
                            source.close()
                assert outcomes == [outcomes[0]] * len(sizes), (name, form)
                seen[form] = outcomes[0]
            assert all(outcome == seen["str"] for outcome in seen.values()), name
        for name, read in PATH_READERS.items():
            outcomes = []
            for size in sizes:
                with patch.object(ingest, "_BLOCK", size):
                    outcomes.append(_outcome(read, path))
            assert outcomes == [outcomes[0]] * len(sizes), name
    finally:
        os.unlink(path)


# valid lines of each format over a small id pool, so equal ids are common
POOL = st.sampled_from(["a", "b", "-", "u#", "é", "a b"])
PAIRS = st.tuples(POOL, POOL).filter(lambda p: p[0] != p[1])
VALID_LINES = [
    st.builds("{}\t{}\t{}\tM".format, TIMES, POOL, POOL),
    st.builds(lambda t, p, url: f"{t}\t{p[0]}\t{url}\tRT\t{p[1]}", TIMES, PAIRS, POOL),
    PAIRS.map("\t".join),
    st.builds("{}\t{}".format, POOL, st.integers(0, 2**70)),
    st.builds(lambda p, w: f"{p[0]}\t{p[1]}\t{w!r}", PAIRS, WEIGHTS) | POOL.map("{}\t-\t-".format),
    st.builds("{}\t{!r}".format, POOL, SCORES),
]
# a valid line of each format, its ids made distinct by the number filled in
TEMPLATES = [
    "{0}\tu{0}\tl{0}\tM", "{0}\tu{0}\tl{0}\tRT\tv{0}", "u{0}\tv{0}", "l{0}\t{0}",
    "u{0}\tv{0}\t0.5", "u{0}\t-\t-", "u{0}\t{0}", "u{0}\t{0}\t0.5",
]
FAULT_TOKENS = ["", "#a", "x", "-", "-0", "-7", "nan", "2", "RT", "9" * 20]


def _one_fault_lines():
    """``(template, line)``: the template's line 0 with one field swapped
    for each fault token, or with one field too many or too few."""
    for template in TEMPLATES:
        fields = template.format(0).split("\t")
        for k in range(len(fields)):
            for token in FAULT_TOKENS:
                yield template, "\t".join([*fields[:k], token, *fields[k + 1 :]])
        yield template, "\t".join([*fields, "x"])
        yield template, "\t".join(fields[:-1])


ONE_FAULT_LINES = list(_one_fault_lines())


@st.composite
def mostly_valid_texts(draw):
    """Valid lines of one format around one line that is likely malformed,
    so a block that fails a check holds many lines."""
    lines = draw(st.lists(draw(st.sampled_from(VALID_LINES)), min_size=1, max_size=40))
    odd = draw(st.sampled_from([line for _, line in ONE_FAULT_LINES]) | PIECES | TEXTS)
    lines.insert(draw(st.integers(0, len(lines))), odd)
    return "\n".join(lines) + "\n"


def _reference_scores(path):
    label, columns = line_readers.read_scores(path)
    return label, {name: (v.node_ids, v.values.tolist()) for name, v in columns.items()}


# each block reader, and its line-loop reference
DIFFERENTIAL = {
    **{
        f"{name} {mode}": (
            _reader(parse, write, mode == "strict"), _reader(reference, write, mode == "strict")
        )
        for name, parse, reference, write in [
            ("events", parse_events, line_readers.read_events, events_to_tsv),
            ("follows", parse_follows, line_readers.read_follows, follows_to_tsv),
            ("clicks", parse_clicks, line_readers.read_clicks, clicks_to_tsv),
        ]
        for mode in ("strict", "lenient")
    },
    "graph": (STREAM_READERS["graph"], lambda text: graph_to_tsv(line_readers.read_graph(text))),
}


def _assert_readers_match_references(text, sizes):
    path = _written(text)
    try:
        for size in sizes:
            with patch.object(ingest, "_BLOCK", size):
                for name, (read, reference) in DIFFERENTIAL.items():
                    assert _outcome(read, text) == _outcome(reference, text), (name, size)
                assert _outcome(_scores, path) == _outcome(_reference_scores, path), size
    finally:
        os.unlink(path)


@settings(max_examples=80, deadline=None)
@given(TEXTS | mostly_valid_texts())
@example("x\t5\ny\t-007\nz\t-0\n")  # a negative count, and -0, which is none
@example("#nodes=1 arcs=0\na\t-\t-\n#nodes=1 arcs=0\n")  # a second header
def test_every_reader_matches_its_line_loop_reference(text):
    """Each reader gives what its reference gives: the same result and
    skipped count, or the same error type and message, at block sizes 1, 7
    and the default."""
    _assert_readers_match_references(text, (1, 7, ingest._BLOCK))


def test_one_faulty_line_among_valid_ones_reads_as_the_reference_reads_it():
    """Every field of a valid line of each format, swapped for each fault
    token, as line 21 of 41: the failing block holds every line."""
    for template, line in ONE_FAULT_LINES:
        lines = [template.format(k) for k in range(1, 41)]
        text = "\n".join([*lines[:20], line, *lines[20:]])
        _assert_readers_match_references(text, [ingest._BLOCK])


# values each format must carry exactly: signed zero, infinities, subnormals
# and the largest magnitudes among any others
FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [-0.0, math.inf, -math.inf, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1 / 3]
)
# row counts at the edges of one block of rows
ROW_COUNTS = st.sampled_from([0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])


@st.composite
def columns(draw, *kinds):
    """Equal-length columns of ``ROW_COUNTS`` rows, each drawing its cells
    from a few values of its kind; an ``"ids"`` column holds distinct ``IDS``
    in ascending order."""
    n = draw(ROW_COUNTS)
    rng = random.Random(draw(st.integers(0, 2**32)))
    out = []
    for kind in kinds:
        pool = draw(st.lists(IDS if kind == "ids" else kind, min_size=1, max_size=5))
        if kind == "ids":  # a fixed-width suffix keeps the ids distinct
            out.append(sorted(f"{rng.choice(pool)}|{k:05d}" for k in range(n)))
        else:
            out.append([rng.choice(pool) for _ in range(n)])
    return out


@settings(deadline=None)
@given(columns("ids", FLOATS, FLOATS))
def test_scores_to_tsv_matches_the_row_writer(cols):
    pair = ScorePair(*cols, 1)
    assert scores_to_tsv(pair) == line_writers.scores_to_tsv(pair)


@settings(deadline=None)
@given(columns("ids", FLOATS), IDS)
def test_vector_to_tsv_matches_the_row_writer(cols, label):
    vector = ScoreVector(*cols, label)
    assert vector_to_tsv(vector) == line_writers.vector_to_tsv(vector)


@settings(deadline=None)
@given(columns("ids", FLOATS), st.lists(FLOATS, min_size=1, max_size=5), st.data())
def test_report_to_tsv_matches_the_row_writer(cols, pool, data):
    """The reports of ``top_k``, with k up to past the vector's end, and of
    ``rank_join`` with a vector that shares all, some or none of the ids;
    a few values per vector, so ties are common."""
    a = ScoreVector(*cols, "a")
    k = data.draw(st.integers(1, len(a.node_ids) + 2))
    share = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    shared = [u for u in a.node_ids if rng.random() < share]
    # an id of ``columns`` ends in a digit, so "+" makes one that ``a`` does not hold
    ids = sorted(shared + [u + "+" for u in a.node_ids if rng.random() < 0.5])
    b = ScoreVector(ids, [rng.choice(pool) for _ in ids], "b")
    for report in (top_k(a, k), top_k(b, k), rank_join(a, b), rank_join(b, a)):
        assert report_to_tsv(report) == line_writers.report_to_tsv(report)


@settings(deadline=None)
@given(columns(WEIGHTS), ROW_COUNTS, IDS)
def test_graph_to_tsv_matches_the_row_writer(cols, isolated, prefix):
    (weights,) = cols
    arcs = len(weights)
    ids = [f"{prefix}|{k:05d}" for k in range(2 * arcs + isolated)]
    src = np.arange(0, 2 * arcs, 2)
    g = InfluenceGraph(ids, src, src + 1, weights)
    assert graph_to_tsv(g) == line_writers.graph_to_tsv(g)


@settings(deadline=None)
@given(columns(FLOATS))
def test_trace_to_tsv_matches_the_row_writer(cols):
    trace = IterationTrace(tuple(cols[0]))
    assert trace_to_tsv(trace) == line_writers.trace_to_tsv(trace)


@given(st.dictionaries(IDS, FLOATS), st.dictionaries(IDS, FLOATS))
def test_rates_to_tsv_matches_the_row_writer(user_rates, audience_rates):
    summary = RateSummary(0.5, math.nan, (1, 0, 2))
    report = RateReport(
        vector_from_mapping(user_rates, "user_rate"),
        vector_from_mapping(audience_rates, "audience_rate"), summary, summary,
    )
    assert rates_to_tsv(report) == line_writers.rates_to_tsv(report)


# attributes that tie, are zero or negative, or are not finite, and clicks that tie
CURVE_XS = st.sampled_from([0.0, -2.0, 1.0, 1.0, 3.0, 10.0, 1000.0]) | st.floats(-10.0, 1e9)
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
CURVE_CLICKS = st.sampled_from([0.0, 1.0, 1.0, 7.0]) | st.floats(0.0, 1e12)
CURVE_QS = st.sampled_from([1.0, 0.5, 0.25, 0.999]) | st.floats(0.0, 1.0, exclude_min=True)


# attributes whose bin edges multiply past the float range, either way
EXTREME_XS = st.sampled_from([5e-324, 1e-200, 1e-160, 1.0, 1e160, 1e300, 1.7e308]) | st.floats(
    5e-324, 1.7e308
)


@settings(deadline=None)
@given(
    st.lists(st.tuples(CURVE_XS, CURVE_CLICKS), max_size=40)
    | st.lists(st.tuples(CURVE_XS | NON_FINITE, CURVE_CLICKS), max_size=6)
    | st.lists(st.tuples(EXTREME_XS, CURVE_CLICKS), min_size=1, max_size=12),
    CURVE_QS,
    st.integers(1, 8),
)
@example([(2.0, 3.0), (2.0, 1.0), (2.0, 3.0), (2.0, 5.0)], 0.5, 4)  # one bin; q*n = 2
@example([(1.0, 4.0), (-1.0, 2.0), (0.0, 3.0), (10.0, 4.0), (10.0, 1.0)], 1.0, 2)
@example([(1.0, 1.0), (-math.inf, 2.0), (math.nan, 3.0), (math.inf, 4.0)], 0.5, 2)
@example([(1e-200, 3.0), (1.0, 5.0)], 0.999, 50)  # an edge product that underflows to 0
@example([(1e200, 3.0), (1e300, 5.0)], 0.999, 50)  # and one that overflows to inf
@example([(3.5e-245, 1.0)], 0.5, 1)
def test_percentile_curve_matches_the_list_oracle(points, q, bin_count):
    try:
        expected = percentile_curve_oracle(points, q, bin_count)
    except IpRankError as error:  # the same error and message
        with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
            percentile_curve(*point_columns(points), q, bin_count)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or underflow warning either
        got = percentile_curve(*point_columns(points), q, bin_count)
    assert got == expected
    assert curve_to_tsv(got) == curve_to_tsv(expected)
    assert all(0.0 < center < math.inf for center, _ in got.bins)
    assert math.isfinite(got.slope) and math.isfinite(got.intercept)


@given(event_lists())
def test_events_to_tsv_matches_the_row_writer(events):
    log = log_of(events)
    assert events_to_tsv(log) == line_writers.events_to_tsv(log)


@given(st.lists(EDGE_IDS, min_size=2, max_size=5, unique=True).flatmap(edge_lists))
def test_follows_to_tsv_matches_the_row_writer(edges):
    follows = follows_of(edges)
    assert follows_to_tsv(follows) == line_writers.follows_to_tsv(follows)
