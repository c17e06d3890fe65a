"""Hypothesis properties of the events format and the columnar log."""

from hypothesis import given, strategies as st

from iprank.ingest import ActivityLog, TweetEvent, events_to_tsv, parse_events

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
