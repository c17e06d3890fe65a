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

from typing import IO, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParams, UnparsableLine
from .ingest import (
    _EMPTY_USER, _HASH_ID, ActivityLog, FollowEdgeList, _Check, _Columns, _columns, _Frozen,
    _Ids, _in_order, _Interner, _judge, _line_test, _lookup, _picked, _records, _rejects_float,
    _run_starts, _same_id, _set, _sorted_ids, _tsv_rows,
)

WEIGHT_HIST_BINS = 10
_RUN_ROWS = 1 << 16  # (edge, URL) rows build_comention holds at once, bar one larger edge


class InfluenceGraph(_Frozen):
    """Weighted directed graph with arc weights in (0, 1], a frozen record:
    its fields cannot be set or deleted.

    Nodes are kept in sorted id order and arcs as index arrays sorted by
    (source, target), which fixes the accumulation order used by every
    downstream computation. ``src`` and ``dst`` follow the column rule of
    :class:`ActivityLog`, so no endpoint is cast. The arc arrays are the
    graph's own writeable copies, so no caller's array can change them, but
    code holding a graph can still write into them: nothing in this package does.
    """

    __slots__ = ("node_ids", "src", "dst", "weights")

    def __init__(
        self, node_ids: Sequence[str], src: np.ndarray, dst: np.ndarray, weights: np.ndarray
    ) -> None:
        ids = _sorted_ids(node_ids)
        n = len(ids)
        # copies, not the caller's arrays, and left writeable: np.bincount ran
        # 5x slower on a read-only operand (numpy 2.4), which made run_ip and
        # weighted_pagerank about a quarter slower
        src, dst = map(np.array, _columns(src, dst))
        weights = np.array(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise ValueError("arc arrays must have identical shape")
        if src.size:
            if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
                raise ValueError("arc endpoint index out of range")
            if np.any(src == dst):
                raise ValueError("self-arcs are not allowed")
            if not np.all((weights > 0.0) & (weights <= 1.0)):
                raise ValueError("arc weights must lie in (0, 1]")
            src, dst, weights = _in_order(src, dst, weights, keys=2)
            if np.any((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])):
                raise ValueError("duplicate arcs")
        _set(self, "node_ids", ids)
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "weights", weights)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_arcs(self) -> int:
        return int(self.src.size)

    def __repr__(self) -> str:
        return f"InfluenceGraph({self.num_nodes} nodes, {self.num_arcs} arcs)"


class GraphStats(NamedTuple):
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
    node_of = np.cumsum(eligible) - 1
    nodes = _picked(log.user_ids, np.flatnonzero(eligible))
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
    posts = log.posts
    sizes = posted[i]
    ends = np.cumsum(sizes)
    first = np.searchsorted(posts.user, i)  # i's posts are contiguous in the table
    s = np.zeros(i.size, dtype=np.int64)
    f = sizes.copy()
    a = 0
    while a < i.size:  # runs of whole edges, each of at most _RUN_ROWS rows or one edge
        b = max(int(np.searchsorted(ends, ends[a] - sizes[a] + _RUN_ROWS, "right")), a + 1)
        # one row per (edge, URL of i); every row belongs to one edge of the run
        n = sizes[a:b]
        edge = np.repeat(np.arange(b - a), n)
        row = np.repeat(first[a:b] - (np.cumsum(n) - n), n)
        row += np.arange(row.size)
        pos, shared = _lookup(posts.key, log.post_key(j[a:b][edge], posts.url[row]))
        later = shared & (posts.last[pos] > posts.first[row])
        s[a:b] = np.bincount(edge[later], minlength=b - a)
        f[a:b] -= np.bincount(edge[shared], minlength=b - a)
        a = b
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
    isolated = np.ones(g.num_nodes, dtype=bool)
    isolated[g.src] = isolated[g.dst] = False
    codes = g.src, g.dst, np.flatnonzero(isolated)
    src, dst, nodes = ([g.node_ids[k] for k in c.tolist()] for c in codes)
    arcs = _tsv_rows(("%s", "%s", "%r"), src, dst, g.weights.tolist())
    return f"#nodes={g.num_nodes} arcs={g.num_arcs}\n{arcs}" + _tsv_rows(("%s", "-", "-"), nodes)


# the checks of an arc line, in order; no source starts with "#", as that line is a comment
_GRAPH = (
    _Check("expected 'source target weight' or 'node - -'", lambda f: f.fields() != 3),
    _Check(_EMPTY_USER, lambda f: (f.size(0) == 0) | (f.size(1) == 0)),
    _Check(_HASH_ID, lambda f: f.starts(1, "#")),
    _Check("self-arc", _same_id(0, 1)),
    _Check(
        "could not convert string to float: {2!r}",
        _line_test(lambda f: np.isnan(f.floats(2)), _rejects_float, 2),
    ),
    _Check("weight outside (0, 1]: {2!r}", lambda f: ~((f.floats(2) > 0) & (f.floats(2) <= 1))),
)


def graph_from_tsv(stream: IO | str | bytes) -> InfluenceGraph:
    """Read :func:`graph_to_tsv` output. A malformed line, an arc listed
    twice, a second ``#nodes= arcs=`` header, or one that the file's arcs and
    nodes do not match raises :class:`UnparsableLine`. A repeat, quoted as
    it reads back, and a mismatched header are found once the file is read."""
    tokens = _Interner()
    arcs = _Columns("qqdq")  # source, target, weight, line
    header = None
    for f in _records(stream, headers=("#nodes=",)):
        if f.text[:1] == "#":  # the header: no record starts with "#"
            if header is not None:
                raise UnparsableLine(int(f.numbers[0]), f.text, "a second header")
            header = (int(f.numbers[0]), f.text)
            continue
        if "\t-\t-" in f.text:  # a node line ``i - -`` is no arc; others have no "\t-\t-"
            node = (f.fields() == 3) & (f.size(0) > 0) & (f.size(1) == 1) & (f.size(2) == 1)
            node &= f.starts(1, "-") & f.starts(2, "-")
            tokens.of(f, (0,), sel=np.flatnonzero(node))  # the node's id, for the table
            f.drop(node)
        _judge(f, _GRAPH, strict=True)
        arcs.append(tokens.of(f, (0, 1)), tokens.of(f, (0, 1), 1), f.floats(2), f.numbers[f.rows])
    ids, rank = tokens.table()
    src, dst, weights, line_nos = arcs.arrays()
    src, dst = rank[src], rank[dst]
    try:  # the ids come sorted and distinct, and each passed the line rules
        g = InfluenceGraph(_Ids(ids), src, dst, weights)
    except ValueError:  # so an arc is repeated
        key = src * len(ids) + dst
        order = np.argsort(key, kind="stable")  # a repeat sorts after the arc it repeats
        k = order[1:][key[order[1:]] == key[order[:-1]]].min()  # the first repeat in file order
        line = f"{ids[src[k]]}\t{ids[dst[k]]}\t{float(weights[k])!r}"
        raise UnparsableLine(int(line_nos[k]), line, "duplicate arc") from None
    if header is not None and header[1] != f"#nodes={g.num_nodes} arcs={g.num_arcs}":
        raise UnparsableLine(*header, f"file holds {g.num_nodes} nodes and {g.num_arcs} arcs")
    return g
