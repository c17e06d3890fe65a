"""Weighted influence-graph construction from activity traces.

Three builders produce the same graph type from different evidence:

* :func:`build_comention` -- follower j mentioned a URL after followee i did;
  arc weight ``S / (F + S)`` where S counts URLs j picked up from i and F
  counts i's URLs that j never mentioned.
* :func:`build_retweet` -- j retweeted i at least once; weight ``S / P`` where
  S counts distinct URLs of i that j retweeted and P counts all URLs i
  mentioned.
* :func:`build_retweet_follower` -- same as the retweet builder, restricted to
  pairs where j follows i.

All counts are over distinct URLs. Nodes must have mentioned at least
``min_urls`` distinct URLs; arcs touching an ineligible endpoint are dropped.
"""

from __future__ import annotations

import heapq
import operator
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidParams, UnparsableLine
from .ingest import (
    _HASH_ID, ActivityLog, FollowEdgeList, _lookup, _records, _run_starts, _sorted_codes,
)

WEIGHT_HIST_BINS = 10


def _id_error(uid: str) -> str | None:
    """Why ``uid`` would not read back from a file, or None when it would."""
    if uid[:1] == "#":
        return _HASH_ID
    if "\t" in uid or "\r" in uid or "\n" in uid:
        return "id contains TAB, CR or LF"
    return None


def _sorted_ids(node_ids: Sequence[str]) -> tuple[str, ...]:
    """``node_ids`` as a tuple, checked to be strictly ascending (so distinct)
    and to pass :func:`_id_error`."""
    ids = tuple(node_ids)
    if not all(map(operator.lt, ids, ids[1:])):
        raise ValueError("node ids must be distinct and sorted ascending; use from_arcs")
    text = "\n".join(("", *ids))  # each id after its own LF: one string holds them all
    if "\n#" in text or "\t" in text or "\r" in text or text.count("\n") != len(ids):
        uid = next(filter(_id_error, ids))
        raise ValueError(f"{_id_error(uid)}: {uid!r}")
    return ids


class InfluenceGraph:
    """Immutable weighted directed graph with arc weights in (0, 1].

    Nodes are kept in sorted id order and arcs as index arrays sorted by
    (source, target), which fixes the accumulation order used by every
    downstream computation.
    """

    __slots__ = ("node_ids", "src", "dst", "weights")

    def __init__(
        self,
        node_ids: Sequence[str],
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        ids = _sorted_ids(node_ids)
        n = len(ids)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if not (src.shape == dst.shape == weights.shape):
            raise ValueError("arc arrays must have identical shape")
        if src.size:
            if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
                raise ValueError("arc endpoint index out of range")
            if np.any(src == dst):
                raise ValueError("self-arcs are not allowed")
            if not np.all((weights > 0.0) & (weights <= 1.0)):
                raise ValueError("arc weights must lie in (0, 1]")
            order = np.lexsort((dst, src))
            src, dst, weights = src[order], dst[order], weights[order]
            if np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])):
                raise ValueError("duplicate arcs")
        self.node_ids = ids
        self.src = src
        self.dst = dst
        self.weights = weights

    @classmethod
    def from_arcs(
        cls,
        arcs: Iterable[tuple[str, str, float]],
        nodes: Iterable[str] = (),
    ) -> "InfluenceGraph":
        """Build from (source id, target id, weight) triples plus extra nodes."""
        arc_list = list(arcs)
        ids = set(nodes)
        for i, j, _ in arc_list:
            ids.add(i)
            ids.add(j)
        ordered = sorted(ids)
        index = {uid: k for k, uid in enumerate(ordered)}
        src = np.array([index[i] for i, _, _ in arc_list], dtype=np.int64)
        dst = np.array([index[j] for _, j, _ in arc_list], dtype=np.int64)
        w = np.array([w for _, _, w in arc_list], dtype=np.float64)
        return cls(ordered, src, dst, w)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_arcs(self) -> int:
        return int(self.src.size)

    def arcs(self) -> Iterator[tuple[str, str, float]]:
        ids = self.node_ids
        for s, d, w in zip(self.src.tolist(), self.dst.tolist(), self.weights.tolist()):
            yield ids[s], ids[d], w

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfluenceGraph):
            return NotImplemented
        return (
            self.node_ids == other.node_ids
            and np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self) -> str:
        return f"InfluenceGraph({self.num_nodes} nodes, {self.num_arcs} arcs)"


@dataclass(frozen=True, slots=True)
class GraphStats:
    """Size and weight summary of an influence graph."""

    nodes: int
    arcs: int
    mean_weight: float
    weight_histogram: tuple[int, ...]


def _eligible(log: ActivityLog, min_urls: int) -> tuple[np.ndarray, np.ndarray]:
    """Per user code: whether it posted ``min_urls`` distinct URLs, and how many it posted."""
    if min_urls < 1:
        raise InvalidParams(f"min_urls must be >= 1, got {min_urls}")
    posted = np.bincount(log.posts.user, minlength=len(log.user_ids))
    return posted >= min_urls, posted


def _from_codes(
    log: ActivityLog, eligible: np.ndarray, src: np.ndarray, dst: np.ndarray, weights: np.ndarray
) -> InfluenceGraph:
    """Graph over the eligible users with arcs given as user codes."""
    ids = log.user_ids
    node_of = np.cumsum(eligible) - 1
    nodes = [ids[c] for c in np.flatnonzero(eligible).tolist()]
    return InfluenceGraph(nodes, node_of[src], node_of[dst], weights)


def _in_log_edges(log: ActivityLog, follows: FollowEdgeList) -> tuple[np.ndarray, np.ndarray]:
    """Follow edges whose endpoints both appear in the log, as sorted codes."""
    followee, follower, _ = log.follow_codes(follows)
    n = len(log.user_ids)
    keep = (followee < n) & (follower < n)
    return followee[keep], follower[keep]


def build_comention(
    log: ActivityLog, follows: FollowEdgeList, min_urls: int = 3
) -> InfluenceGraph:
    """Influence graph from follower co-mentions.

    Arc (i, j) exists when j follows i and j mentioned at least one URL
    strictly after i's first mention of it. Equal timestamps carry no causal
    order and do not count.
    """
    eligible, posted = _eligible(log, min_urls)
    i, j = _in_log_edges(log, follows)
    keep = eligible[i] & eligible[j]
    i, j = i[keep], j[keep]
    # one row per (edge, URL of i): i's posts are contiguous in the table
    posts = log.posts
    sizes = posted[i]
    edge = np.repeat(np.arange(i.size), sizes)
    row = np.repeat(np.searchsorted(posts.user, i) - (np.cumsum(sizes) - sizes), sizes)
    row += np.arange(row.size)
    pos, shared = _lookup(posts.key, log.post_key(j[edge], posts.url[row]))
    later = shared & (posts.last[pos] > posts.first[row])
    s = np.bincount(edge[later], minlength=i.size)
    f = sizes - np.bincount(edge[shared], minlength=i.size)
    arc = s >= 1
    return _from_codes(log, eligible, i[arc], j[arc], s[arc] / (f[arc] + s[arc]))


def _retweet_arcs(
    log: ActivityLog, eligible: np.ndarray, posted: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source, retweeter) code pairs with weight S / P, pairs sorted."""
    rt = log.retweets
    keep = eligible[rt.source] & eligible[rt.user]
    src, dst = rt.source[keep], rt.user[keep]
    starts = _run_starts(src, dst)
    s = np.diff(np.append(starts, src.size))
    src, dst = src[starts], dst[starts]
    return src, dst, s / posted[src]


def build_retweet(log: ActivityLog, min_urls: int = 3) -> InfluenceGraph:
    """Influence graph from explicit retweet credits: weight S_ij / P_i."""
    eligible, posted = _eligible(log, min_urls)
    return _from_codes(log, eligible, *_retweet_arcs(log, eligible, posted))


def build_retweet_follower(
    log: ActivityLog, follows: FollowEdgeList, min_urls: int = 3
) -> InfluenceGraph:
    """Retweet graph restricted to arcs where the retweeter follows the source."""
    eligible, posted = _eligible(log, min_urls)
    src, dst, w = _retweet_arcs(log, eligible, posted)
    i, j = _in_log_edges(log, follows)
    n = len(log.user_ids)
    _, followed = _lookup(i * n + j, src * n + dst)
    return _from_codes(log, eligible, src[followed], dst[followed], w[followed])


def graph_stats(g: InfluenceGraph) -> GraphStats:
    if g.num_arcs == 0:
        return GraphStats(g.num_nodes, 0, 0.0, (0,) * WEIGHT_HIST_BINS)
    hist, _ = np.histogram(g.weights, bins=WEIGHT_HIST_BINS, range=(0.0, 1.0))
    mean = float(g.weights.sum() / g.num_arcs)
    return GraphStats(g.num_nodes, g.num_arcs, mean, tuple(int(c) for c in hist))


def stats_to_tsv(stats: GraphStats) -> str:
    lines = [
        f"nodes\t{stats.nodes}",
        f"arcs\t{stats.arcs}",
        f"mean_weight\t{stats.mean_weight!r}",
    ]
    width = 1.0 / len(stats.weight_histogram)
    for k, count in enumerate(stats.weight_histogram):
        lines.append(f"hist\t{k * width!r}\t{(k + 1) * width!r}\t{count}")
    return "\n".join(lines) + "\n"


def graph_to_tsv(g: InfluenceGraph) -> str:
    """Serialize as ``i TAB j TAB w`` lines under a ``#nodes= arcs=`` header.

    Isolated nodes are listed as ``i TAB - TAB -``.
    """
    lines = [f"#nodes={g.num_nodes} arcs={g.num_arcs}"]
    lines += (f"{i}\t{j}\t{w!r}" for i, j, w in g.arcs())
    isolated = np.ones(g.num_nodes, dtype=bool)
    isolated[g.src] = isolated[g.dst] = False
    lines += (f"{g.node_ids[k]}\t-\t-" for k in np.flatnonzero(isolated).tolist())
    return "\n".join(lines) + "\n"


def graph_from_tsv(stream: IO | str | bytes) -> InfluenceGraph:
    """Read :func:`graph_to_tsv` output. A malformed line, an id that
    :class:`InfluenceGraph` rejects, an arc listed twice, or a
    ``#nodes= arcs=`` header that the file's arcs and nodes do not match
    raises :class:`UnparsableLine`; a rejected id or repeat is quoted as it reads back."""
    users: dict[str, int] = {}
    cols = src, dst, line_nos = array("q"), array("q"), array("q")
    nodes, node_lines = array("q"), array("q")
    weights = array("d")
    header = None
    # an id holding a CR is left for InfluenceGraph to reject, naming its line
    for line_no, parts in _records(stream, headers=("#nodes=",), as_opened=True):
        try:
            if len(parts) != 3:
                if parts[0][:1] == "#":  # the header: no record starts with "#"
                    header = (line_no, parts[0])
                    continue
                raise ValueError("expected 'source target weight' or 'node - -'")
            if parts[1] == "-" and parts[2] == "-":
                nodes.append(users.setdefault(parts[0], len(users)))
                node_lines.append(line_no)
                continue
            if parts[0] == parts[1]:
                raise ValueError("self-arc")
            w = float(parts[2])
            if not 0.0 < w <= 1.0:
                raise ValueError(f"weight outside (0, 1]: {parts[2]!r}")
        except ValueError as exc:
            raise UnparsableLine(line_no, "\t".join(parts), str(exc)) from None
        src.append(users.setdefault(parts[0], len(users)))
        dst.append(users.setdefault(parts[1], len(users)))
        weights.append(w)
        line_nos.append(line_no)
    ids, rank = _sorted_codes(users)
    src, dst, line_nos = (np.frombuffer(c, dtype=np.int64) for c in cols)
    src, dst, weights = rank[src], rank[dst], np.frombuffer(weights, dtype=np.float64)
    try:
        g = InfluenceGraph(ids, src, dst, weights)
    except ValueError as exc:  # every other rule was checked line by line
        node = rank[np.frombuffer(nodes, dtype=np.int64)].tolist()
        rows = heapq.merge(
            zip(line_nos.tolist(), src.tolist(), dst.tolist(), weights.tolist()),
            zip(node_lines, node, node, repeat(0.0)),
        )
        raise _first_fault(ids, rows) or exc from None
    if header is not None and header[1] != f"#nodes={g.num_nodes} arcs={g.num_arcs}":
        raise UnparsableLine(*header, f"file holds {g.num_nodes} nodes and {g.num_arcs} arcs")
    return g


def _first_fault(
    ids: tuple[str, ...], rows: Iterable[tuple[int, int, int, float]]
) -> UnparsableLine | None:
    """The first of the ``(line_no, source, target, weight)`` rows, which come
    in line order, that names an id :func:`_id_error` rejects or repeats an
    arc; a node line is a row from the node to itself with weight 0."""
    seen: set[tuple[int, int]] = set()
    for line_no, s, d, w in rows:
        reason = _id_error(ids[s]) or _id_error(ids[d])
        if w and not reason:
            reason = "duplicate arc" if (s, d) in seen else None
            seen.add((s, d))
        if reason:
            line = f"{ids[s]}\t{ids[d]}\t{w!r}" if w else f"{ids[s]}\t-\t-"
            return UnparsableLine(line_no, line, reason)
    return None
