"""Oracles and helpers that only the tests use.

The dense oracles build full matrices with plain loops and apply the
defining operations naively. The per-user event oracles (co-mention counts,
retweeting rates, the H-index, a log's posts and retweets) scan a log's
:class:`TweetEvent` rows one by one, the follow oracles scan (followee,
follower) id pairs, and the ranking oracles sort id -> value dicts and walk
runs of ties in a loop, so none shares code with the implementation it
checks. :func:`planted_contrast_trace` is a small trace whose IP ordering is
known, and :func:`read_manifest` reads an artifact's manifest back. :func:`log_of`, :func:`follows_of`,
:func:`graph_from_arcs`, :func:`arcs_of`, :func:`vector_from_mapping` and
:func:`rows` build and read the containers by id, one event, edge, arc,
value or row at a time. :func:`percentile_curve_oracle` bins a list of
(attribute, clicks) points with one Python bucket per bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from iprank.analytics import PercentileCurve, RankReport
from iprank.baselines import PageRankParams, ScoreVector
from iprank.errors import (
    ConfigInvalid, DegenerateGraph, EmptyGraph, EmptyNodeSet, InvalidParams, IpRankError, NoData,
)
from iprank.graphs import InfluenceGraph
from iprank.ingest import ActivityLog, FollowEdgeList, TweetEvent, _records
from iprank.ipcore import ScorePair

DENSE_LIMIT = 200

PLANTED_A = "brdA"
PLANTED_B = "brdB"


class TooLarge(IpRankError):
    """The input exceeds the size limit of a dense reference computation."""


def edges(follows: FollowEdgeList) -> frozenset[tuple[str, str]]:
    """The (followee, follower) id pairs of the edge list."""
    ids = follows.user_ids
    return frozenset(
        (ids[a], ids[b]) for a, b in zip(follows.followee.tolist(), follows.follower.tolist())
    )


def _codes(ids: Iterable[str]) -> dict[str, int]:
    """Each of the distinct ``ids`` with its position in sorted order."""
    return {uid: k for k, uid in enumerate(sorted(set(ids)))}


def log_of(rows: Iterable[tuple], skipped: int = 0) -> ActivityLog:
    """Log of ``(time, user, url[, source])`` rows, such as :class:`TweetEvent`
    objects; ``source`` None is a plain mention."""
    events = [TweetEvent(*row) for row in rows]
    sources = [ev.source for ev in events if ev.source is not None]
    users = _codes([*(ev.user for ev in events), *sources])
    urls = _codes(ev.url for ev in events)
    return ActivityLog(
        tuple(users), tuple(urls), [ev.time for ev in events], [users[ev.user] for ev in events],
        [urls[ev.url] for ev in events],
        [-1 if ev.source is None else users[ev.source] for ev in events], skipped,
    )


def follows_of(pairs: Iterable[tuple[str, str]], skipped: int = 0) -> FollowEdgeList:
    """Follow edges of ``(followee, follower)`` id pairs; repeats collapse."""
    pairs = [tuple(pair) for pair in pairs]
    users = _codes(uid for pair in pairs for uid in pair)
    return FollowEdgeList(
        tuple(users), [users[a] for a, _ in pairs], [users[b] for _, b in pairs], skipped
    )


def graph_from_arcs(
    arcs: Iterable[tuple[str, str, float]], nodes: Iterable[str] = ()
) -> InfluenceGraph:
    """Graph of (source id, target id, weight) triples plus extra nodes."""
    arc_list = list(arcs)
    ids = sorted({*nodes, *(i for i, _, _ in arc_list), *(j for _, j, _ in arc_list)})
    index = {uid: k for k, uid in enumerate(ids)}
    src = np.array([index[i] for i, _, _ in arc_list], dtype=np.int64)
    dst = np.array([index[j] for _, j, _ in arc_list], dtype=np.int64)
    w = np.array([w for _, _, w in arc_list], dtype=np.float64)
    return InfluenceGraph(ids, src, dst, w)


def arcs_of(g: InfluenceGraph) -> list[tuple[str, str, float]]:
    """The graph's (source id, target id, weight) triples, in arc order."""
    ids = g.node_ids
    return [
        (ids[s], ids[d], w)
        for s, d, w in zip(g.src.tolist(), g.dst.tolist(), g.weights.tolist())
    ]


def vector_from_mapping(values: Mapping[str, float], label: str) -> ScoreVector:
    """Vector of an id -> value mapping, ids in sorted order."""
    ids = sorted(values)
    return ScoreVector(ids, np.array([values[u] for u in ids], dtype=np.float64), label)


def rows(report: RankReport) -> tuple[tuple, ...]:
    """The report's rows: each user id with its values as Python numbers."""
    users, *values = report.data
    return tuple(zip(users, *(v.tolist() for v in values)))


def posters(log: ActivityLog) -> set[str]:
    """Ids that posted at least one event, by scanning the events."""
    return {ev.user for ev in log}


def read_manifest(path: str) -> dict[str, str]:
    """The ``#manifest key=value`` lines of an artifact; a manifest line
    without ``=`` is :class:`ConfigInvalid`."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for f in _records(fh, headers=("#manifest ",)):
            if f.text[:1] == "#":  # the header: no record starts with "#"
                key, eq, value = f.text[len("#manifest ") :].partition("=")
                if not eq:
                    raise ConfigInvalid(
                        f"line {f.numbers[0]} of {path}: expected '#manifest key=value': {f.text!r}"
                    )
                entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# Dense oracles
# ---------------------------------------------------------------------------


def _dense_rates(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """IP's acceptance matrix ``accept[i, j]`` and transposed rejection
    matrix ``reject_t[j, i]`` of each arc (i, j), built one arc at a time."""
    if g.num_nodes > DENSE_LIMIT:
        raise TooLarge(f"dense oracle is limited to {DENSE_LIMIT} nodes")
    if g.num_arcs == 0:
        raise EmptyGraph("influence graph has no arcs")
    n = g.num_nodes
    index = {uid: k for k, uid in enumerate(g.node_ids)}
    triples = [(index[i], index[j], w) for i, j, w in arcs_of(g)]
    in_sum = [0.0] * n
    rej_sum = [0.0] * n
    for i, j, w in triples:
        in_sum[j] += w
        rej_sum[i] += 1.0 - w
    accept = np.zeros((n, n))
    reject_t = np.zeros((n, n))
    for i, j, w in triples:
        accept[i, j] = w / in_sum[j]
        if rej_sum[i] > 0.0:
            reject_t[j, i] = (1.0 - w) / rej_sum[i]
    return accept, reject_t


def dense_ip_oracle(g: InfluenceGraph, iterations: int) -> ScorePair:
    """Reference influence-passivity computation via explicit dense matrices."""
    accept, reject_t = _dense_rates(g)
    if iterations < 1:
        raise InvalidParams(f"iterations must be >= 1, got {iterations}")
    n = g.num_nodes
    influence = np.ones(n)
    passivity = np.ones(n)
    for _ in range(iterations):
        raw_p = reject_t @ influence
        if raw_p.sum() <= 0.0:
            raise DegenerateGraph("raw passivity sums to zero")
        raw_i = accept @ raw_p
        influence = raw_i / raw_i.sum()
        passivity = raw_p / raw_p.sum()
    return ScorePair(g.node_ids, influence, passivity, iterations)


def dense_ip_limit(g: InfluenceGraph, squarings: int = 12) -> ScorePair:
    """Reference limit of IP's normalized iteration from the all-ones start.

    The influence step ``accept @ reject_t`` is squared ``squarings`` times,
    rescaled to a largest entry of 1 each time, so the power stands for
    ``2**squarings`` iterations; the limit influence is that power applied to
    the start, and the limit passivity one rejection step from it. This
    holds only where the iteration has converged by then; no aperiodicity is
    checked. Each closed class has eigenvalue 1, which rounding moves by
    about 1e-16, and each squaring doubles that drift: at 64 squarings one
    of two closed classes lost all its mass, so the default stays small.
    """
    accept, reject_t = _dense_rates(g)
    power = accept @ reject_t
    for _ in range(squarings):
        power = power @ power
        if power.max() <= 0.0:
            raise DegenerateGraph("the influence step vanishes")
        power /= power.max()
    influence = power @ np.ones(g.num_nodes)
    passivity = reject_t @ influence
    return ScorePair(
        g.node_ids, influence / influence.sum(), passivity / passivity.sum(), 2**squarings
    )


def dense_pagerank_oracle(
    g: InfluenceGraph, params: PageRankParams | None = None
) -> ScoreVector:
    """Reference weighted PageRank via a dense transition matrix."""
    if params is None:
        params = PageRankParams()
    if g.num_nodes > DENSE_LIMIT:
        raise TooLarge(f"dense oracle is limited to {DENSE_LIMIT} nodes")
    n = g.num_nodes
    if n == 0:
        raise EmptyNodeSet("pagerank needs at least one node")
    index = {uid: k for k, uid in enumerate(g.node_ids)}
    transition = np.zeros((n, n))
    out_sum = [0.0] * n
    for i, j, w in arcs_of(g):
        out_sum[index[i]] += w
    for i, j, w in arcs_of(g):
        transition[index[i], index[j]] = w / out_sum[index[i]]
    for k in range(n):
        if out_sum[k] == 0.0:
            transition[k, :] = 1.0 / n
    d = params.damping
    x = np.full(n, 1.0 / n)
    for _ in range(params.max_iterations):
        new_x = d * (x @ transition) + (1.0 - d) / n
        err = float(np.abs(new_x - x).sum())
        x = new_x
        if err < params.epsilon:
            break
    return ScoreVector(g.node_ids, x / x.sum(), label="pagerank")


# ---------------------------------------------------------------------------
# A planted trace
# ---------------------------------------------------------------------------


def planted_contrast_trace(
    audience_size: int = 5,
) -> tuple[ActivityLog, FollowEdgeList]:
    """Two broadcasters with equal audiences but opposite audience behavior.

    ``brdA``'s audience follows brdA and the background broadcaster brdC but
    retweets only part of brdA's output: dedicated and passive. ``brdB``'s
    audience follows brdB and brdC and retweets every URL they see. On the
    resulting retweet graph the influence of brdA exceeds that of brdB.
    """
    if audience_size < 1:
        raise InvalidParams(f"audience_size must be >= 1, got {audience_size}")
    posts_per_broadcaster = 5
    events: list[TweetEvent] = []
    clock = 0

    def tick() -> int:
        nonlocal clock
        clock += 1000
        return clock

    pools = {}
    for b, tag in ((PLANTED_A, "a"), (PLANTED_B, "b"), ("brdC", "c")):
        pools[b] = [f"{tag}url{k}" for k in range(posts_per_broadcaster)]
        for url in pools[b]:
            events.append(TweetEvent(time=tick(), user=b, url=url))

    edges: list[tuple[str, str]] = []
    for k in range(audience_size):
        dedicated = f"audA{k:02d}"
        edges += [(PLANTED_A, dedicated), ("brdC", dedicated)]
        for url in pools[PLANTED_A][:3]:
            events.append(
                TweetEvent(time=tick(), user=dedicated, url=url, source=PLANTED_A)
            )
        eager = f"audB{k:02d}"
        edges += [(PLANTED_B, eager), ("brdC", eager)]
        for url in pools[PLANTED_B]:
            events.append(TweetEvent(time=tick(), user=eager, url=url, source=PLANTED_B))
        for url in pools["brdC"]:
            events.append(TweetEvent(time=tick(), user=eager, url=url, source="brdC"))
    return log_of(events), follows_of(edges)


# ---------------------------------------------------------------------------
# Per-user event oracles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PairwiseCounts:
    """Distinct-URL counts behind a co-mention arc (i, j).

    ``s``: URLs j mentioned strictly after i's first mention of them;
    ``f``: URLs i mentioned that j never did; ``p``: all URLs i mentioned.
    """

    s: int
    f: int
    p: int

    def __post_init__(self) -> None:
        if not (0 <= self.s <= self.p and 0 <= self.f <= self.p):
            raise ValueError(f"counts out of range: s={self.s} f={self.f} p={self.p}")


_rows_by: dict[str, tuple[ActivityLog, dict[str | None, list[TweetEvent]]]] = {}


def _rows_of(log: ActivityLog, field: str, uid: str) -> list[TweetEvent]:
    """The rows of ``log`` whose ``field`` is ``uid``, in log order. One scan
    of the rows groups them by that field; the grouping of the last log asked
    about is kept per field, which holds because a log cannot change."""
    held = _rows_by.get(field)
    if held is None or held[0] is not log:
        groups: dict[str | None, list[TweetEvent]] = {}
        for ev in log:
            groups.setdefault(getattr(ev, field), []).append(ev)
        held = _rows_by[field] = log, groups
    return held[1].get(uid, [])


def _events_of(log: ActivityLog, user: str) -> list[TweetEvent]:
    """The user's rows of ``log``, in log order."""
    return _rows_of(log, "user", user)


def pairwise_counts(log: ActivityLog, i: str, j: str) -> PairwiseCounts:
    """Co-mention counts for the ordered pair (i, j), by scanning both users' events."""
    first_i: dict[str, int] = {}
    for ev in _events_of(log, i):
        first_i.setdefault(ev.url, ev.time)
    shared: set[str] = set()
    later: set[str] = set()
    for ev in _events_of(log, j):
        if ev.url in first_i:
            shared.add(ev.url)
            if ev.time > first_i[ev.url]:
                later.add(ev.url)
    return PairwiseCounts(s=len(later), f=len(first_i) - len(shared), p=len(first_i))


def followers_of(follows: FollowEdgeList, user: str) -> set[str]:
    """Followers of the user, by scanning every edge."""
    return {follower for followee, follower in edges(follows) if followee == user}


def followees_of(follows: FollowEdgeList, user: str) -> set[str]:
    """Users the user follows, by scanning every edge."""
    return {followee for followee, follower in edges(follows) if follower == user}


def follower_counts(follows: FollowEdgeList) -> dict[str, int]:
    """Followers per user, zero for users appearing only as followers."""
    counts = {user: 0 for edge in edges(follows) for user in edge}
    for followee, _ in edges(follows):
        counts[followee] += 1
    return counts


def follow_codes(
    log: ActivityLog, follows: FollowEdgeList
) -> tuple[list[tuple[int, int]], tuple[str, ...]]:
    """Sorted (followee, follower) log-code pairs, and the ids the log lacks,
    which get codes from ``len(log.user_ids)`` up in id order."""
    extra = tuple(sorted({u for edge in edges(follows) for u in edge} - set(log.user_ids)))
    code = {uid: k for k, uid in enumerate(log.user_ids + extra)}
    return sorted((code[a], code[b]) for a, b in edges(follows)), extra


def user_retweeting_rate(
    log: ActivityLog, follows: FollowEdgeList, user: str
) -> float | None:
    """Share of received URL posts the user retweeted; None when nothing received."""
    followees = followees_of(follows, user)
    if not followees:
        return None
    received = 0
    received_pairs: set[tuple[str, str]] = set()
    for followee in followees:
        for ev in _events_of(log, followee):
            received += 1
            received_pairs.add((followee, ev.url))
    if received == 0:
        return None
    retweeted = {
        (ev.source, ev.url)
        for ev in _events_of(log, user)
        if ev.source is not None and (ev.source, ev.url) in received_pairs
    }
    return len(retweeted) / received


def audience_retweeting_rate(
    log: ActivityLog, follows: FollowEdgeList, user: str
) -> float | None:
    """Share of deliveries to the user's followers that came back as retweets."""
    followers = followers_of(follows, user)
    if not followers:
        return None
    own_events = _events_of(log, user)
    if not own_events:
        return None
    posted = {ev.url for ev in own_events}
    pairs: set[tuple[str, str]] = set()
    for follower in followers:
        for ev in _events_of(log, follower):
            if ev.source == user and ev.url in posted:
                pairs.add((follower, ev.url))
    return len(pairs) / (len(own_events) * len(followers))


def distinct_urls(log: ActivityLog) -> dict[str, int]:
    """Distinct URLs each poster mentioned or retweeted, by scanning the events."""
    urls: dict[str, set[str]] = {}
    for ev in log:
        urls.setdefault(ev.user, set()).add(ev.url)
    return {user: len(posted) for user, posted in urls.items()}


def posts_of(log: ActivityLog) -> list[tuple[str, str, int, int]]:
    """Each distinct (user, url) of the log with the earliest and latest time
    the user mentioned the URL, by scanning each user's rows; sorted."""
    times: dict[tuple[str, str], list[int]] = {}
    for user in log.user_ids:
        for ev in _rows_of(log, "user", user):
            times.setdefault((user, ev.url), []).append(ev.time)
    return sorted((user, url, min(t), max(t)) for (user, url), t in times.items())


def retweets_of(log: ActivityLog) -> list[tuple[str, str, str, int]]:
    """Each distinct (source, retweeter, url) whose source posted the URL,
    with its number of retweet rows, by scanning each source's rows; sorted."""
    counts: dict[tuple[str, str, str], int] = {}
    for source in log.user_ids:
        posted = {ev.url for ev in _rows_of(log, "user", source)}
        for ev in _rows_of(log, "source", source):
            if ev.url in posted:
                counts[source, ev.user, ev.url] = counts.get((source, ev.user, ev.url), 0) + 1
    return sorted((*triple, count) for triple, count in counts.items())


def h_from_counts(counts: Iterable[int]) -> int:
    """Largest h such that at least h of the counts are >= h."""
    h = 0
    for rank, count in enumerate(sorted(counts, reverse=True), start=1):
        if count >= rank:
            h = rank
        else:
            break
    return h


def h_index(log: ActivityLog, user: str) -> int:
    """H-index analog: h of the user's posted URLs were each retweeted >= h times."""
    posted = {ev.url for ev in _events_of(log, user)}
    counts: dict[str, int] = {}
    for ev in _rows_of(log, "source", user):
        if ev.url in posted:
            counts[ev.url] = counts.get(ev.url, 0) + 1
    return h_from_counts(counts.values())


# ---------------------------------------------------------------------------
# Curve oracle
# ---------------------------------------------------------------------------


def point_columns(points: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """(attribute, clicks) points as the two columns ``percentile_curve`` takes."""
    return [x for x, _ in points], [c for _, c in points]


def percentile_curve_oracle(
    points: list[tuple[float, float]], q: float = 0.999, bin_count: int = 50
) -> PercentileCurve:
    """``percentile_curve`` of (attribute, clicks) points, by putting each
    point's clicks in a list per bin and sorting each list."""
    if bin_count < 1:
        raise InvalidParams(f"bin_count must be >= 1, got {bin_count}")
    if not 0.0 < q <= 1.0:
        raise InvalidParams(f"q must be in (0, 1], got {q}")
    for x, _ in points:
        if not math.isfinite(x):
            raise InvalidParams(f"attribute {x!r} is not finite: a score is infinite")
    usable = [(x, c) for x, c in points if x > 0.0]
    if not usable:
        raise NoData("no points with positive attribute value")
    xs = [x for x, _ in usable]
    lo, hi = min(xs), max(xs)
    if lo == hi:
        edges = np.array([lo, hi])
        bin_count = 1
    else:
        edges = np.logspace(math.log10(lo), math.log10(hi), bin_count + 1)
    bin_of = np.clip(np.searchsorted(edges, xs, side="right") - 1, 0, bin_count - 1)
    buckets: dict[int, list[float]] = {}
    for idx, (_, clicks) in zip(bin_of.tolist(), usable):
        buckets.setdefault(idx, []).append(clicks)
    bins = []
    for idx in sorted(buckets):
        center = math.sqrt(edges[idx] * edges[idx + 1])
        ordered = sorted(buckets[idx])
        k = int(Fraction(Decimal(str(q))) * len(ordered)) + 1
        bins.append((center, ordered[min(len(ordered), k) - 1]))
    log_x = [math.log10(c) for c, _ in bins]
    log_y = [math.log10(max(p, 1.0)) for _, p in bins]
    if len(set(log_x)) < 2 or len(set(log_y)) < 2:
        slope, intercept = 0.0, sum(log_y) / len(log_y)
    else:
        mx = sum(log_x) / len(log_x)
        my = sum(log_y) / len(log_y)
        sxx = sum((x - mx) ** 2 for x in log_x)
        sxy = sum((x - mx) * (y - my) for x, y in zip(log_x, log_y))
        slope = sxy / sxx
        intercept = my - slope * mx
    return PercentileCurve(tuple(bins), q, slope, intercept)


# ---------------------------------------------------------------------------
# Ranking oracles
# ---------------------------------------------------------------------------


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties receiving the mean of their rank range, by walking
    the sorted values one run of equal values at a time."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def arc_weights(g: InfluenceGraph) -> dict[tuple[str, str], float]:
    """The graph's arcs as a (source, target) -> weight dict."""
    return {(i, j): w for i, j, w in arcs_of(g)}


def by_id(scores: ScoreVector) -> dict[str, float]:
    """The vector as an id -> value dict."""
    return dict(zip(scores.node_ids, scores.values.tolist()))


def ranking(scores: ScoreVector) -> list[tuple[str, float]]:
    """(user, value) pairs by value descending, ties by user id ascending."""
    return sorted(by_id(scores).items(), key=lambda kv: (-kv[1], kv[0]))


def ranks_of(scores: ScoreVector) -> dict[str, int]:
    """Rank 1 = highest value; ties broken by user id ascending."""
    return {user: k for k, (user, _) in enumerate(ranking(scores), start=1)}
