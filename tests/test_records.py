"""Every record type: construction by position and by keyword, defaults, the
error of a bad value, equality, and refused assignment where a record is
frozen. None is built by runtime code generation: the plain ones are
``NamedTuple``s and the rest set their fields in an explicit ``__init__``."""

import numpy as np
import pytest

from iprank import cli
from iprank.analytics import PercentileCurve, RankReport, RateReport, RateSummary
from iprank.baselines import PageRankParams, ScoreVector
from iprank.errors import InvalidParams, UnparsableLine
from iprank.graphs import GraphStats, InfluenceGraph
from iprank.ingest import (
    ActivityLog, ClickTable, FollowEdgeList, Posts, Retweets, TweetEvent, _Check,
)
from iprank.ipcore import IpParams, IterationTrace, ScorePair

ONE, TWO = np.array([1.0, 1.0]), np.array([2.0, 2.0])
SUMMARY = RateSummary(0.5, 0.5, (1,))

# (type, its field values in order, the defaults of its trailing fields,
#  changes of fields with whether the record stays equal,
#  a bad field value with the error it raises or None, whether it is frozen)
RECORDS = [
    (  # a row checks nothing: the log constructor does (tests/test_ingest.py)
        TweetEvent, {"time": 1, "user": "a", "url": "u", "source": "b"}, {"source": None},
        [({"time": 2}, False), ({"source": None}, False)], None, True,
    ),
    (
        Posts, {"user": ONE, "url": ONE, "first": ONE, "last": ONE, "key": ONE}, {},
        [({"key": TWO}, False)], None, True,
    ),
    (
        Retweets, {"source": ONE, "user": ONE, "url": ONE, "count": ONE}, {},
        [({"count": TWO}, False)], None, True,
    ),
    (
        ActivityLog,
        {"user_ids": ("a", "b"), "url_ids": ("u",), "time": np.array([1, 2]),
         "user": np.array([0, 1]), "url": np.array([0, 0]), "source": np.array([-1, 0]),
         "skipped": 2},
        {"skipped": 0}, [({"time": np.array([1, 3])}, False), ({"skipped": 5}, True)],
        ({"source": np.array([-1, 1])}, ValueError, "retweet credits its own author"), True,
    ),
    (
        FollowEdgeList,
        {"user_ids": ("a", "b"), "followee": np.array([0, 1]), "follower": np.array([1, 0]),
         "skipped": 2},
        {"skipped": 0}, [({"user_ids": ("a", "c")}, False), ({"skipped": 5}, True)],
        ({"follower": np.array([0, 0])}, ValueError, "self-follow"), True,
    ),
    (
        ClickTable, {"clicks": {"u": 1}, "skipped": 2}, {"skipped": 0},
        [({"clicks": {"u": 2}}, False), ({"skipped": 5}, True)],
        ({"clicks": {"u": -1}}, ValueError, "negative count -1: 'u'"), True,
    ),
    (
        _Check, {"reason": "r", "bad": len, "error": ValueError}, {"error": UnparsableLine},
        [({"reason": "s"}, False)], None, True,
    ),
    (
        GraphStats, {"nodes": 2, "arcs": 1, "mean_weight": 0.5, "weight_histogram": (1,)}, {},
        [({"arcs": 0}, False)], None, True,
    ),
    (
        InfluenceGraph,
        {"node_ids": ("a", "b"), "src": np.array([0, 1]), "dst": np.array([1, 0]), "weights": ONE},
        {}, [({"weights": np.array([0.5, 1.0])}, False), ({"node_ids": ("a", "c")}, False)],
        ({"weights": TWO}, ValueError, r"arc weights must lie in \(0, 1\]"), True,
    ),
    (
        IpParams, {"max_iterations": 5, "epsilon": 0.1},
        {"max_iterations": 100, "epsilon": 1e-9}, [({"epsilon": 0.2}, False)],
        ({"max_iterations": 0}, InvalidParams, "max_iterations must be >= 1, got 0"), True,
    ),
    (
        ScorePair,
        {"node_ids": ("a", "b"), "influence": ONE, "passivity": ONE, "iterations_run": 3},
        {}, [({"iterations_run": 4}, False), ({"passivity": TWO}, False)],
        ({"node_ids": ("b", "a")}, ValueError, "node ids must be distinct and sorted ascending"),
        True,
    ),
    (IterationTrace, {"deltas": (0.5,)}, {}, [({"deltas": ()}, False)], None, True),
    (
        PageRankParams, {"damping": 0.5, "epsilon": 0.1, "max_iterations": 5},
        {"damping": 0.85, "epsilon": 1e-12, "max_iterations": 200},
        [({"damping": 0.6}, False)],
        ({"damping": 1.0}, InvalidParams, r"damping must be in \(0, 1\), got 1.0"), True,
    ),
    (
        ScoreVector, {"node_ids": ("a", "b"), "values": ONE, "label": "x"}, {},
        [({"label": "y"}, False), ({"values": TWO}, False)],
        ({"values": [np.nan, 1.0]}, ValueError, "values must be 2 scores, none of them NaN"),
        True,
    ),
    (
        RateSummary, {"mean": 0.5, "median": 0.5, "histogram": (1,)}, {},
        [({"median": 0.25}, False)], None, True,
    ),
    (
        RateReport,
        {"user_rates": ScoreVector(("a",), [0.5], "user_rate"),
         "audience_rates": ScoreVector((), [], "audience_rate"), "user_summary": SUMMARY,
         "audience_summary": SUMMARY},
        {}, [({"audience_rates": ScoreVector(("a",), [1.0], "audience_rate")}, False)], None,
        True,
    ),
    (
        PercentileCurve, {"bins": ((1.0, 2.0),), "q": 0.9, "slope": 1.0, "intercept": 0.0}, {},
        [({"q": 0.5}, False)], None, True,
    ),
    (
        RankReport,
        {"label": "top1_x", "columns": ("user", "x", "rank"), "data": (["a", "b"], ONE)},
        {}, [({"label": "top2_x"}, False), ({"data": (("a", "b"), ONE)}, True),
             ({"data": (["a", "b"], TWO)}, False)], None, True,
    ),
]


@pytest.mark.parametrize(
    "cls, values, defaults, changes, bad, frozen", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record(cls, values, defaults, changes, bad, frozen):
    record = cls(*values.values())
    assert record == cls(**values)
    for name, value in values.items():
        assert np.array_equal(getattr(record, name), value) or getattr(record, name) == value
    required = {k: v for k, v in values.items() if k not in defaults}
    assert {k: getattr(cls(**required), k) for k in defaults} == defaults
    for change, equal in changes:
        assert (cls(**{**values, **change}) == record) is equal, change
    assert record != object()
    if bad is not None:
        change, error, message = bad
        with pytest.raises(error, match=message):
            cls(**{**values, **change})
    for name, value in values.items():
        if frozen:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            with pytest.raises(AttributeError):
                delattr(record, name)
        else:
            setattr(record, name, value)


def test_frozen_records_hash_and_show_their_fields():
    event = TweetEvent(1, "a", "u")
    assert hash(event) == hash(TweetEvent(1, "a", "u"))
    assert repr(event) == "TweetEvent(time=1, user='a', url='u', source=None)"
    assert repr(IpParams()) == "IpParams(max_iterations=100, epsilon=1e-09)"
    with pytest.raises(TypeError):  # equal by arrays: unhashable, as before
        hash(ScoreVector(("a", "b"), ONE, "x"))
    # repr names the fields equality reads, each by its own value: not ``skipped``
    follows = FollowEdgeList(("a", "b"), np.array([0]), np.array([1]), skipped=3)
    assert repr(follows) == (
        "FollowEdgeList(user_ids=('a', 'b'), followee=array([0]), follower=array([1]))"
    )
    assert repr(InfluenceGraph(("a", "b"), [0], [1], [0.5])) == "InfluenceGraph(2 nodes, 1 arcs)"


def test_a_logs_posts_and_retweets_compare_by_value():
    def log():
        return ActivityLog(("a", "b"), ("u", "v"), [1, 2, 3], [0, 0, 1], [0, 1, 0], [-1, -1, 0])

    first, second = log(), log()
    assert first.posts == second.posts and first.retweets == second.retweets
    assert not first.posts != second.posts and not first.retweets != second.retweets
    other = ActivityLog(("a", "b"), ("u", "v"), [1, 2, 3], [0, 0, 1], [0, 1, 1], [-1, -1, 0])
    assert first.posts != other.posts and first.retweets != other.retweets
    assert first.posts != first.retweets
    with pytest.raises(TypeError):
        hash(first.posts)
    with pytest.raises(AttributeError):  # the caches are fields too
        first._posts = None


def test_score_arrays_are_read_only_once_checked():
    values = np.array([0.5, 1.0])
    vector = ScoreVector(("a", "b"), values, "x")
    assert vector.values is values  # kept as given, not copied
    with pytest.raises(ValueError, match="read-only"):
        values[0] = np.nan
    pair = ScorePair(("a", "b"), [0.5, 0.5], [0.25, 0.75], 1)
    for scores in (pair.influence, pair.passivity):
        with pytest.raises(ValueError, match="read-only"):
            scores[0] = 0.0
    assert vector == ScoreVector(("a", "b"), [0.5, 1.0], "x")


def test_a_click_table_keeps_a_read_only_copy():
    clicks = {"u": 1}
    table = ClickTable(clicks)
    clicks["u"] = 2
    assert table.clicks == {"u": 1}
    with pytest.raises(TypeError):
        table.clicks["u"] = 3


def test_run_config_is_the_defaults_then_the_flags():
    # run settings are a namespace: the defaults table, overridden by the flags given
    cfg = cli.resolve_config(cli.build_parser("ip").parse_args(["ip", "--iterations", "7"]))
    assert vars(cfg) == {**cli._DEFAULTS, "iterations": 7}
