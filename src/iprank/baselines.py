"""Comparison measures: weighted PageRank, the post/retweet H-index, and counts.

PageRank scores the influence graph it is given by walking its arcs backward,
from each influenced user to its influencers, with probability proportional to
weight; dangling mass and teleportation are spread uniformly over all nodes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import EmptyNodeSet, InvalidParams
from .graphs import InfluenceGraph
from .ingest import ActivityLog, FollowEdgeList, _Frozen, _picked, _set, _tsv_rows
from .ipcore import IterationTrace, _arc_sum, _l1_change, _set_scores


class PageRankParams(_Frozen):
    __slots__ = ("damping", "epsilon", "max_iterations")

    def __init__(
        self, damping: float = 0.85, epsilon: float = 1e-12, max_iterations: int = 200
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise InvalidParams(f"damping must be in (0, 1), got {damping}")
        if not epsilon >= 0.0:
            raise InvalidParams(f"epsilon must be >= 0, got {epsilon}")
        if max_iterations < 1:
            raise InvalidParams(f"max_iterations must be >= 1, got {max_iterations}")
        _set(self, "damping", damping)
        _set(self, "epsilon", epsilon)
        _set(self, "max_iterations", max_iterations)


class ScoreVector(_Frozen):
    """A labeled score per node, the common currency of all rankings.

    ``node_ids`` is strictly ascending and ``values`` is a float64 array
    aligned with it, so array position is id order.
    """

    __slots__ = ("node_ids", "values", "label")

    def __init__(self, node_ids: Sequence[str], values: object, label: str) -> None:
        _set_scores(self, node_ids, values=values)
        _set(self, "label", label)


def weighted_pagerank(
    g: InfluenceGraph, params: PageRankParams | None = None
) -> tuple[ScoreVector, IterationTrace]:
    """Damped power iteration with weight-proportional transitions, each arc
    (i, j) of ``g`` moving mass from j to i.

    A node no arc enters is dangling: it redistributes its mass uniformly over
    all nodes, as does the teleport term. Iterates until the L1 change drops
    below ``params.epsilon`` or the iteration cap is hit, then renormalizes to
    unit sum. The trace holds the change of each iteration.
    """
    if params is None:
        params = PageRankParams()
    n = g.num_nodes
    if n == 0:
        raise EmptyNodeSet("pagerank needs at least one node")
    out_sum = np.bincount(g.dst, weights=g.weights, minlength=n)
    dangling = out_sum == 0.0
    data = g.weights / out_sum[g.dst]
    products = np.empty(g.num_arcs)
    d = params.damping
    x = np.full(n, 1.0 / n)
    deltas: list[float] = []
    for _ in range(params.max_iterations):
        dangle_mass = float(x[dangling].sum())
        new_x = _arc_sum(x, g.dst, data, g.src, products)
        new_x *= d
        new_x += (d * dangle_mass + (1.0 - d)) / n
        deltas.append(_l1_change(new_x, x))
        x = new_x
        if deltas[-1] < params.epsilon:
            break
    return ScoreVector(g.node_ids, x / x.sum(), label="pagerank"), IterationTrace(tuple(deltas))


def h_index_scores(log: ActivityLog) -> ScoreVector:
    """H-index analog per posting user: h of the user's posted URLs were each
    retweeted (counting retweet events) at least h times."""
    rt = log.retweets
    posts, group = np.unique(log.post_key(rt.source, rt.url), return_inverse=True)
    counts = np.bincount(group, weights=rt.count).astype(np.int64)
    source = posts // len(log.url_ids)
    # by source, then count down: a key under len(user_ids) * (rows + 1), as
    # no count exceeds the log's rows; equal keys are equal rows
    order = np.argsort(source * (counts.max(initial=0) + 1) - counts)
    source, counts = source[order], counts[order]
    rank = np.arange(source.size) - np.searchsorted(source, source) + 1
    h = np.bincount(source[counts >= rank], minlength=len(log.user_ids))
    users = np.flatnonzero(np.bincount(log.user, minlength=len(log.user_ids)))
    return ScoreVector(_picked(log.user_ids, users), h[users], label="hindex")


def follower_count(follows: FollowEdgeList) -> ScoreVector:
    """Followers per user, zero for users appearing only as followers."""
    counts = np.bincount(follows.followee, minlength=len(follows.user_ids))
    return ScoreVector(follows.user_ids, counts, label="followers")


def retweet_count(log: ActivityLog) -> ScoreVector:
    """Times each user was credited in a retweet; authors default to zero."""
    n = len(log.user_ids)
    counts = np.bincount(log.source[log.source >= 0], minlength=n)
    listed = np.flatnonzero((np.bincount(log.user, minlength=n) > 0) | (counts > 0))
    return ScoreVector(_picked(log.user_ids, listed), counts[listed], "retweets")


def vector_to_tsv(vector: ScoreVector) -> str:
    rows = _tsv_rows(("%s", "%.17g"), vector.node_ids, vector.values.tolist())
    return f"#measure={vector.label}\n{rows}"
