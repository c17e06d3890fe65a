"""Deterministic synthetic inputs: a trace (:func:`synth_trace`) and a
weighted graph (:func:`random_graph`). The oracles that the tests check the
package against, and the planted trace, live in ``tests/oracles.py``.

Trace generation uses ``random.Random`` (Mersenne Twister), drawing in a
fixed documented order so a seed fully determines the output:

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

from .errors import InvalidParams
from .graphs import InfluenceGraph
from .ingest import ActivityLog, FollowEdgeList


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


def _named(ids: list[str], *cols: np.ndarray) -> list[str]:
    """The ``ids`` that ``cols`` name by position, in order; recodes ``cols``
    in place to positions among them, a -1 staying -1."""
    named = np.zeros(len(ids) + 1, dtype=bool)  # a -1 marks the spare last entry
    for col in cols:
        named[col] = True
    code = np.cumsum(named) - 1
    code[-1] = -1
    for col in cols:
        col[:] = code[col]
    return [ids[k] for k in np.flatnonzero(named[:-1]).tolist()]


def synth_trace(p: SynthParams) -> tuple[ActivityLog, FollowEdgeList]:
    """Deterministic trace where followers retweet broadcasters' URLs."""
    rng = random.Random(p.seed)
    user_width = max(3, len(str(p.users - 1)))
    url_width = max(3, len(str(p.url_pool - 1)))
    # zero-padded, so each list is in id order: a number is a position in it
    users = [f"u{i:0{user_width}d}" for i in range(p.users)]
    urls = [f"url{i:0{url_width}d}" for i in range(p.url_pool)]

    followers = [  # of each broadcaster, ascending
        [u for u in range(p.users) if u != b and rng.random() < p.follow_prob]
        for b in range(p.broadcasters)
    ]
    rows: list[tuple[int, int, int]] = []  # (user, url, source) of each event, in time order
    base = int(p.mention_rate)
    frac = p.mention_rate - base
    first_order: list[dict[int, None]] = []  # each user's distinct URLs, as first mentioned
    for u in range(p.users):
        count = base + (1 if rng.random() < frac else 0)
        mentions = [rng.randrange(p.url_pool) for _ in range(count)]
        rows += [(u, r, -1) for r in mentions]
        first_order.append(dict.fromkeys(mentions))
    for b, audience in enumerate(followers):
        for follower in audience:
            rows += [(follower, r, b) for r in first_order[b] if rng.random() < p.retweet_prob]

    user, url, source = np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy()
    time = np.arange(1, len(rows) + 1, dtype=np.int64) * 1000  # a tick of 1000 per event
    log = ActivityLog(_named(users, user, source), _named(urls, url), time, user, url, source)
    followee = np.repeat(np.arange(p.broadcasters, dtype=np.int64), list(map(len, followers)))
    follower = np.array([u for audience in followers for u in audience], dtype=np.int64)
    return log, FollowEdgeList(_named(users, followee, follower), followee, follower)


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
