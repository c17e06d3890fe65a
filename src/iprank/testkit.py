"""Independent oracles and deterministic synthetic-trace generation.

The oracles deliberately share no code with the implementations they check:
the dense ones build full matrices with plain loops and apply the defining
operations naively, the per-user event oracles (co-mention counts,
retweeting rates, the H-index) scan :class:`TweetEvent` objects one by one,
and the ranking oracles sort id -> value dicts and walk runs of ties in a
loop. Trace generation uses ``random.Random`` (Mersenne Twister), drawing
in a fixed documented order so a seed fully determines the output:

1. follow edges: for each broadcaster in id order, for each other user in id
   order, one uniform draw against ``follow_prob``;
2. mention counts: for each user in id order, one uniform draw resolves the
   fractional part of ``mention_rate``;
3. mention URLs: one ``randrange`` draw per mention, users in id order;
4. retweets: for each broadcaster in id order, for each follower in id order,
   for each of the broadcaster's distinct URLs in first-mention order, one
   uniform draw against ``retweet_prob``.

All retweet timestamps come after every mention timestamp, so a retweet is
always a later mention of its URL by the retweeter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .baselines import PageRankParams, ScoreVector, h_from_counts
from .errors import DegenerateGraph, EmptyGraph, EmptyNodeSet, InvalidParams, TooLarge
from .graphs import InfluenceGraph
from .ingest import ActivityLog, FollowEdgeList, TweetEvent
from .ipcore import ScorePair

DENSE_LIMIT = 200

PLANTED_A = "brdA"
PLANTED_B = "brdB"


@dataclass(frozen=True, slots=True)
class SynthParams:
    """Knobs for the random trace generator; the seed fully determines output."""

    users: int
    broadcasters: int
    follow_prob: float
    mention_rate: float
    retweet_prob: float
    url_pool: int
    seed: int

    def __post_init__(self) -> None:
        if self.users < 1 or self.broadcasters < 0 or self.url_pool < 1:
            raise InvalidParams("users and url_pool must be >= 1, broadcasters >= 0")
        if self.broadcasters > self.users:
            raise InvalidParams("broadcasters cannot exceed users")
        for name in ("follow_prob", "retweet_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidParams(f"{name} must be in [0, 1], got {p}")
        if self.mention_rate < 0.0:
            raise InvalidParams(f"mention_rate must be >= 0, got {self.mention_rate}")


def synth_trace(p: SynthParams) -> tuple[ActivityLog, FollowEdgeList]:
    """Deterministic trace where followers retweet broadcasters' URLs."""
    rng = random.Random(p.seed)
    user_width = max(3, len(str(p.users - 1)))
    url_width = max(3, len(str(p.url_pool - 1)))
    users = [f"u{i:0{user_width}d}" for i in range(p.users)]
    urls = [f"url{i:0{url_width}d}" for i in range(p.url_pool)]
    broadcasters = users[: p.broadcasters]

    edges: list[tuple[str, str]] = []
    for b in broadcasters:
        for u in users:
            if u == b:
                continue
            if rng.random() < p.follow_prob:
                edges.append((b, u))

    events: list[TweetEvent] = []
    clock = 0

    def tick() -> int:
        nonlocal clock
        clock += 1000
        return clock

    base = int(p.mention_rate)
    frac = p.mention_rate - base
    first_order: dict[str, list[str]] = {}
    for u in users:
        count = base + (1 if rng.random() < frac else 0)
        for _ in range(count):
            url = urls[rng.randrange(p.url_pool)]
            events.append(TweetEvent(time=tick(), user=u, url=url))
            mine = first_order.setdefault(u, [])
            if url not in mine:
                mine.append(url)

    followers_of: dict[str, list[str]] = {}
    for b, u in edges:
        followers_of.setdefault(b, []).append(u)
    for b in broadcasters:
        for follower in sorted(followers_of.get(b, [])):
            for url in first_order.get(b, []):
                if rng.random() < p.retweet_prob:
                    events.append(
                        TweetEvent(time=tick(), user=follower, url=url, source=b)
                    )
    return ActivityLog(events), FollowEdgeList(edges)


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
    return ActivityLog(events), FollowEdgeList(edges)


def random_graph(n: int, arcs: int, seed: int) -> InfluenceGraph:
    """Seeded random graph with weights in (0, 1), no self-arcs, no duplicates."""
    if n < 2:
        raise InvalidParams(f"need at least 2 nodes, got {n}")
    if arcs < 1 or arcs > n * (n - 1):
        raise InvalidParams(f"arc count {arcs} out of range for {n} nodes")
    rng = np.random.default_rng(seed)
    codes = np.empty(0, dtype=np.int64)
    while codes.size < arcs:
        draw = arcs - codes.size
        batch = max(16, int(draw * 1.5))
        src = rng.integers(0, n, size=batch, dtype=np.int64)
        dst = rng.integers(0, n, size=batch, dtype=np.int64)
        keep = src != dst
        codes = np.unique(np.concatenate([codes, src[keep] * n + dst[keep]]))
    codes = codes[:arcs]
    weights = rng.random(arcs)
    weights[weights == 0.0] = 0.5
    width = max(3, len(str(n - 1)))
    node_ids = [f"n{i:0{width}d}" for i in range(n)]
    return InfluenceGraph(node_ids, codes // n, codes % n, weights)


def dense_ip_oracle(g: InfluenceGraph, iterations: int) -> ScorePair:
    """Reference influence-passivity computation via explicit dense matrices."""
    if g.num_nodes > DENSE_LIMIT:
        raise TooLarge(f"dense oracle is limited to {DENSE_LIMIT} nodes")
    if g.num_arcs == 0:
        raise EmptyGraph("influence graph has no arcs")
    if iterations < 1:
        raise InvalidParams(f"iterations must be >= 1, got {iterations}")
    n = g.num_nodes
    index = {uid: k for k, uid in enumerate(g.node_ids)}
    triples = [(index[i], index[j], w) for i, j, w in g.arcs()]
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
    for i, j, w in g.arcs():
        out_sum[index[i]] += w
    for i, j, w in g.arcs():
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


def _events_of(log: ActivityLog, user: str) -> list[TweetEvent]:
    return [ev for ev in log.events if ev.user == user]


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


def user_retweeting_rate(
    log: ActivityLog, follows: FollowEdgeList, user: str
) -> float | None:
    """Share of received URL posts the user retweeted; None when nothing received."""
    followees = follows.followees_of(user)
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
    followers = follows.followers_of(user)
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


def h_index(log: ActivityLog, user: str) -> int:
    """H-index analog: h of the user's posted URLs were each retweeted >= h times."""
    posted = {ev.url for ev in _events_of(log, user)}
    counts: dict[str, int] = {}
    for ev in log.events:
        if ev.source == user and ev.url in posted:
            counts[ev.url] = counts.get(ev.url, 0) + 1
    return h_from_counts(counts.values())


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


def by_id(scores: ScoreVector) -> dict[str, float]:
    """The vector as an id -> value dict."""
    return dict(zip(scores.node_ids, scores.values.tolist()))


def ranking(scores: ScoreVector) -> list[tuple[str, float]]:
    """(user, value) pairs by value descending, ties by user id ascending."""
    return sorted(by_id(scores).items(), key=lambda kv: (-kv[1], kv[0]))


def ranks_of(scores: ScoreVector) -> dict[str, int]:
    """Rank 1 = highest value; ties broken by user id ascending."""
    return {user: k for k, (user, _) in enumerate(ranking(scores), start=1)}
