"""Comparison measures: weighted PageRank, the post/retweet H-index, and counts.

PageRank is intended to run on the inverted influence graph (influenced users
pointing at their influencers); callers compose :func:`invert_graph` with
:func:`weighted_pagerank`. The random surfer moves along out-arcs with
probability proportional to weight, dangling mass and teleportation are spread
uniformly over all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import EmptyNodeSet, InvalidParams
from .graphs import InfluenceGraph
from .ingest import ActivityLog, FollowEdgeList
from .ipcore import _same_scores, _set_scores


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


@dataclass(frozen=True, slots=True, eq=False)
class ScoreVector:
    """A labeled score per node, the common currency of all rankings.

    ``node_ids`` is strictly ascending and ``values`` is a float64 array
    aligned with it, so array position is id order.
    """

    node_ids: tuple[str, ...]
    values: np.ndarray
    label: str

    def __post_init__(self) -> None:
        _set_scores(self, "values")

    @classmethod
    def from_mapping(cls, values: Mapping[str, float], label: str) -> "ScoreVector":
        """Vector of an id -> value mapping, ids in sorted order."""
        ids = sorted(values)
        scores = np.fromiter(map(values.__getitem__, ids), dtype=np.float64, count=len(ids))
        return cls(ids, scores, label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreVector):
            return NotImplemented
        return _same_scores(self, other, "values") and self.label == other.label


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
    return ScoreVector(g.node_ids, x / x.sum(), label="pagerank")


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
    users = np.unique(log.user)
    return ScoreVector([log.user_ids[c] for c in users.tolist()], h[users], label="hindex")


def follower_count(follows: FollowEdgeList) -> ScoreVector:
    """Followers per user, zero for users appearing only as followers."""
    counts = {user: 0 for user in follows.users()}
    for followee, _ in follows.edges:
        counts[followee] += 1
    return ScoreVector.from_mapping(counts, label="followers")


def retweet_count(log: ActivityLog) -> ScoreVector:
    """Times each user was credited in a retweet; authors default to zero."""
    n = len(log.user_ids)
    counts = np.bincount(log.source[log.source >= 0], minlength=n)
    listed = np.flatnonzero((np.bincount(log.user, minlength=n) > 0) | (counts > 0))
    return ScoreVector([log.user_ids[c] for c in listed.tolist()], counts[listed], "retweets")


def vector_to_tsv(vector: ScoreVector) -> str:
    lines = [f"#measure={vector.label}"]
    lines += (f"{user}\t{v:.17g}" for user, v in zip(vector.node_ids, vector.values.tolist()))
    return "\n".join(lines) + "\n"
