"""Comparison measures: weighted PageRank, the post/retweet H-index, and counts.

PageRank is intended to run on the inverted influence graph (influenced users
pointing at their influencers); callers compose :func:`invert_graph` with
:func:`weighted_pagerank`. The random surfer moves along out-arcs with
probability proportional to weight, dangling mass and teleportation are spread
uniformly over all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import EmptyNodeSet, InvalidParams
from .graphs import InfluenceGraph
from .ingest import ActivityLog, FollowEdgeList, _iter_lines


@dataclass(frozen=True, slots=True)
class PageRankParams:
    damping: float = 0.85
    epsilon: float = 1e-12
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not 0.0 < self.damping < 1.0:
            raise InvalidParams(f"damping must be in (0, 1), got {self.damping}")
        if not self.epsilon >= 0.0:
            raise InvalidParams(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_iterations < 1:
            raise InvalidParams(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )


@dataclass(slots=True)
class ScoreVector:
    """A labeled node -> value map, the common currency of all rankings."""

    values: dict[str, float]
    label: str


def invert_graph(g: InfluenceGraph) -> InfluenceGraph:
    """Reverse every arc, carrying its weight; an involution."""
    return InfluenceGraph(g.node_ids, g.dst.copy(), g.src.copy(), g.weights.copy())


def weighted_pagerank(
    g: InfluenceGraph, params: PageRankParams | None = None
) -> ScoreVector:
    """Damped power iteration with weight-proportional transitions.

    Dangling nodes redistribute their mass uniformly over all nodes, as does
    the teleport term. Iterates until the L1 change drops below
    ``params.epsilon`` or the iteration cap is hit, then renormalizes to unit
    sum.
    """
    # scipy.sparse costs about 0.26 s and 18 MB to import; only the kernels need it
    from scipy.sparse import csr_matrix

    if params is None:
        params = PageRankParams()
    n = g.num_nodes
    if n == 0:
        raise EmptyNodeSet("pagerank needs at least one node")
    out_sum = np.bincount(g.src, weights=g.weights, minlength=n)
    dangling = out_sum == 0.0
    if g.num_arcs:
        data = g.weights / out_sum[g.src]
        transition = csr_matrix((data, (g.dst, g.src)), shape=(n, n))
    else:
        transition = csr_matrix((n, n))
    d = params.damping
    x = np.full(n, 1.0 / n)
    for _ in range(params.max_iterations):
        dangle_mass = float(x[dangling].sum())
        new_x = d * (transition @ x) + (d * dangle_mass + (1.0 - d)) / n
        err = float(np.abs(new_x - x).sum())
        x = new_x
        if err < params.epsilon:
            break
    x = x / x.sum()
    return ScoreVector(dict(zip(g.node_ids, x.tolist())), label="pagerank")


def h_from_counts(counts: Iterable[int]) -> int:
    """Largest h such that at least h of the counts are >= h."""
    h = 0
    for rank, count in enumerate(sorted(counts, reverse=True), start=1):
        if count >= rank:
            h = rank
        else:
            break
    return h


def h_index_scores(log: ActivityLog) -> ScoreVector:
    """H-index analog per posting user: h of the user's posted URLs were each
    retweeted (counting retweet events) at least h times."""
    rt = log.retweets
    _, first, group = np.unique(
        log.post_key(rt.source, rt.url), return_index=True, return_inverse=True
    )
    counts = np.bincount(group, weights=rt.count).astype(np.int64)
    source = rt.source[first]
    order = np.lexsort((-counts, source))
    source, counts = source[order], counts[order]
    rank = np.arange(source.size) - np.searchsorted(source, source) + 1
    h = np.bincount(source[counts >= rank], minlength=len(log.user_ids))
    ids = log.user_ids
    return ScoreVector(
        {ids[c]: float(h[c]) for c in np.unique(log.user).tolist()}, label="hindex"
    )


def follower_count(follows: FollowEdgeList) -> ScoreVector:
    """Followers per user, zero for users appearing only as followers."""
    counts = {user: 0 for user in follows.users()}
    for followee, _ in follows.edges:
        counts[followee] += 1
    return ScoreVector({u: float(c) for u, c in counts.items()}, label="followers")


def retweet_count(log: ActivityLog) -> ScoreVector:
    """Times each user was credited in a retweet; authors default to zero."""
    n = len(log.user_ids)
    counts = np.bincount(log.source[log.source >= 0], minlength=n)
    listed = (np.bincount(log.user, minlength=n) > 0) | (counts > 0)
    ids = log.user_ids
    return ScoreVector(
        {ids[c]: float(counts[c]) for c in np.flatnonzero(listed).tolist()}, label="retweets"
    )


def vector_to_tsv(vector: ScoreVector) -> str:
    lines = [f"#measure={vector.label}"]
    for user in sorted(vector.values):
        lines.append(f"{user}\t{vector.values[user]:.17g}")
    return "\n".join(lines) + "\n"


def vector_from_tsv(stream: IO | str | bytes) -> ScoreVector:
    label = "scores"
    values: dict[str, float] = {}
    for raw in _iter_lines(stream):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if line.startswith("#measure="):
            label = line.split("=", 1)[1]
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"bad score line: {line!r}")
        values[parts[0]] = float(parts[1])
    return ScoreVector(values, label=label)
