"""Hypothesis properties of the events format, the columnar log, and the
array rankings against their dict-and-loop oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from iprank.analytics import _average_ranks, rank_correlation, rank_join, top_k
from iprank.baselines import ScoreVector
from iprank.errors import InsufficientOverlap
from iprank.ingest import ActivityLog, TweetEvent, events_to_tsv, parse_events
from iprank.testkit import average_ranks, by_id, ranking, ranks_of

# every id the events format can carry: non-empty, no TAB/CR/LF, no leading
# "#", and not the "-" that graph files reserve
IDS = st.text(
    alphabet=st.characters(exclude_categories=("Cs",), exclude_characters="\t\r\n"),
    min_size=1,
    max_size=6,
).filter(lambda s: not s.startswith("#") and s != "-")
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


@given(event_lists())
def test_events_round_trip_through_tsv(events):
    log = ActivityLog(events)
    assert parse_events(events_to_tsv(log)) == log
    assert ActivityLog(log.events) == log


@given(st.data())
def test_log_is_invariant_under_permutation(data):
    events = data.draw(event_lists())
    shuffled = data.draw(st.permutations(events))
    assert ActivityLog(shuffled) == ActivityLog(events)
    assert ActivityLog(shuffled).events == ActivityLog(events).events


# few distinct values, so ties are common; signed zeros and infinities included
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf])
VECTORS = st.dictionaries(IDS | st.sampled_from("abcdef"), VALUES, max_size=12).map(
    lambda values: ScoreVector.from_mapping(values, "m")
)


@given(st.lists(VALUES, max_size=30))
def test_average_ranks_match_the_loop(values):
    values = np.array(values)
    assert np.array_equal(_average_ranks(values), average_ranks(values))


@given(VECTORS, VECTORS)
def test_rank_correlation_matches_the_oracle(a, b):
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
    assert top_k(scores, k).rows == tuple(
        (u, v, rank) for rank, (u, v) in enumerate(ranking(scores)[:k], start=1)
    )
    n = len(scores.node_ids)
    mask = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    eligible = {u for u, keep in zip(scores.node_ids, mask) if keep}
    expected = [(u, v) for u, v in ranking(scores) if u in eligible][:k]
    rows = top_k(scores, k, np.array(mask, dtype=bool)).rows
    assert rows == tuple((u, v, rank) for rank, (u, v) in enumerate(expected, start=1))
    # signed zeros must come back with their sign, not just equal
    assert [math.copysign(1.0, r[1]) for r in rows] == [math.copysign(1.0, v) for _, v in expected]


@given(VECTORS, VECTORS)
def test_rank_join_matches_the_oracle(a, b):
    ra, rb = ranks_of(a), ranks_of(b)
    common = sorted(ra.keys() & rb.keys(), key=lambda u: (ra[u], u))
    assert rank_join(a, b).rows == tuple((u, ra[u], rb[u]) for u in common)
