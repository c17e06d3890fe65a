"""Evaluation analytics: passivity evidence rates, attention-bound curves,
rank correlation, and top-k / rank-comparison reports.

Rates use the static follower snapshot for the entire trace. Every reception
is one event by a followed user; a reception counts as retweeted when the
receiver has a retweet crediting that (followee, url) pair, so both rates stay
within [0, 1] by construction.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .baselines import ScoreVector
from .errors import InsufficientOverlap, InvalidParams, NoData
from .ingest import (
    ActivityLog, FollowEdgeList, _Frozen, _Ids, _lookup, _picked, _positions, _run_starts, _set,
    _sorted_codes, _tsv_rows,
)

RATE_HIST_BINS = 10


class RateSummary(NamedTuple):
    mean: float
    median: float
    histogram: tuple[int, ...]


class RateReport(NamedTuple):
    """Per-user retweeting rates plus population summaries.

    Each rate is a :class:`ScoreVector` (labels ``user_rate`` and
    ``audience_rate``) over the users where it is defined: a user whose
    denominator is zero is absent from it and from its summary.
    """

    user_rates: ScoreVector
    audience_rates: ScoreVector
    user_summary: RateSummary
    audience_summary: RateSummary


class PercentileCurve(NamedTuple):
    """Per-bin high quantile of clicks against a user attribute, with a
    log10-log10 least-squares fit."""

    bins: tuple[tuple[float, float], ...]
    q: float
    slope: float
    intercept: float


class RankReport(_Frozen):
    """A ranking as columns: ``data`` holds the user ids, then one numpy
    array per further name in ``columns``, each aligned with the ids. A float
    column is written with 17 significant digits, an integer one as integers."""

    __slots__ = ("label", "columns", "data")

    def __init__(self, label: str, columns: tuple[str, ...], data: tuple[Sequence, ...]) -> None:
        _set(self, "label", label)
        _set(self, "columns", columns)
        _set(self, "data", data)


def _summarize(rates: ScoreVector) -> RateSummary:
    values = np.sort(rates.values)
    n = values.size
    if not n:
        return RateSummary(float("nan"), float("nan"), (0,) * RATE_HIST_BINS)
    median = (values[(n - 1) // 2] + values[n // 2]) / 2  # np.median's, without numpy.ma
    hist, _ = np.histogram(values, bins=RATE_HIST_BINS, range=(0.0, 1.0))
    return RateSummary(float(values.mean()), float(median), tuple(int(c) for c in hist))


def rate_report(log: ActivityLog, follows: FollowEdgeList) -> RateReport:
    """User and audience retweeting rates of every user with a defined rate.

    A user's rate is the share of the events of its followees that it
    retweeted, counting each (followee, url) once; undefined when the
    followees posted nothing. A user's audience rate is the share of
    (follower, own event) deliveries that came back as a distinct
    (follower, url) retweet; undefined without followers or events.
    """
    followee, follower, extra = log.follow_codes(follows)
    ids, rank = _sorted_codes(log.user_ids + extra)
    n = len(ids)
    events = np.bincount(log.user, minlength=n)
    followees = np.bincount(follower, minlength=n)
    followers = np.bincount(followee, minlength=n)
    received = np.bincount(follower, weights=events[followee], minlength=n).astype(np.int64)
    rt = log.retweets
    _, followed = _lookup(followee * n + follower, rt.source * n + rt.user)
    retweeted = np.bincount(rt.user[followed], minlength=n)
    echoed = np.bincount(rt.source[followed], minlength=n)

    ids = _Ids(ids)  # merged from two disjoint checked tables, the log's and ``extra``
    by_id = np.argsort(rank)  # the codes in id order

    def rates(label: str, defined: np.ndarray, num: np.ndarray, den: np.ndarray) -> ScoreVector:
        codes = by_id[defined[by_id]]
        return ScoreVector(_picked(ids, rank[codes]), num[codes] / den[codes], label)

    user = rates("user_rate", (followees > 0) & (received > 0), retweeted, received)
    audience = rates("audience_rate", (followers > 0) & (events > 0), echoed, events * followers)
    return RateReport(user, audience, _summarize(user), _summarize(audience))


def url_attribute_average(
    log: ActivityLog, scores: ScoreVector
) -> tuple[tuple[str, ...], np.ndarray]:
    """The ascending ids of the URLs that some scored user mentioned, and a
    float64 array of each one's mean score over those distinct users.

    Retweeting a URL counts as mentioning it; unscored users shrink the
    averaging set. Each URL's sum runs over its users in id order; an
    infinite score makes a mean infinite, or NaN where both signs meet.
    """
    code = _positions(log.user_ids, scores.node_ids)
    score = np.full(len(log.user_ids), np.nan)  # scores are never NaN, so NaN = unscored
    score[code[code >= 0]] = scores.values[code >= 0]
    posts = log.posts
    keep = ~np.isnan(score[posts.user])
    # posts are sorted by (user, url), so bincount adds each URL's scores in user order
    url, user = posts.url[keep], posts.user[keep]
    n_urls = len(log.url_ids)
    totals = np.bincount(url, weights=score[user], minlength=n_urls)
    counts = np.bincount(url, minlength=n_urls)
    urls = np.flatnonzero(counts)
    return _picked(log.url_ids, urls), totals[urls] / counts[urls]


def percentile_curve(
    x: Sequence[float], clicks: Sequence[float], q: float = 0.999, bin_count: int = 50
) -> PercentileCurve:
    """Bin the points (``x[i]``, ``clicks[i]``) on a log-spaced attribute
    axis and take the nearest-rank q-quantile of clicks per bin.

    An attribute that is not finite raises :class:`InvalidParams`, naming the
    first in array order: a URL's average is not finite when a poster of it
    scores infinite. Points with a non-positive attribute are excluded
    (log-log axes); empty bins are omitted. A bin's center is the geometric
    mean of its edges, finite and positive at any magnitude. The fit is
    ordinary least squares on (log10 bin center, log10 max(percentile, 1));
    with fewer than two distinct centers the slope is 0 and the intercept is
    the mean.
    """
    from decimal import Decimal  # with fractions, 2-4 ms to import, for the ranks alone
    from fractions import Fraction

    if bin_count < 1:
        raise InvalidParams(f"bin_count must be >= 1, got {bin_count}")
    if not 0.0 < q <= 1.0:
        raise InvalidParams(f"q must be in (0, 1], got {q}")
    x, clicks = np.asarray(x, dtype=np.float64), np.asarray(clicks, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise InvalidParams(f"attribute {float(x[bad[0]])!r} is not finite: a score is infinite")
    usable = x > 0.0
    if not usable.any():
        raise NoData("no points with positive attribute value")
    x, clicks = x[usable], clicks[usable]
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        edges = np.array([lo, hi])
        bin_count = 1
    else:
        edges = np.logspace(math.log10(lo), math.log10(hi), bin_count + 1)
    bin_of = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bin_count - 1)
    order = np.lexsort((clicks, bin_of))  # by bin, then clicks: each bin's clicks ascend
    bin_of, clicks = bin_of[order], clicks[order]
    starts = _run_starts(bin_of)
    # each bin's rank floor(q*n) + 1, capped at n, with q read exactly from its
    # decimal form: equals ceil(q*n) except at integer q*n, which resolves upward
    exact = Fraction(Decimal(str(q)))
    ranks = [min(n, int(exact * n) + 1) for n in np.diff(np.append(starts, x.size)).tolist()]
    picks = clicks[starts + np.array(ranks) - 1]
    left, right = edges[bin_of[starts]], edges[bin_of[starts] + 1]
    with np.errstate(over="ignore", under="ignore"):
        product = left * right
    # the geometric mean, from the roots where the product is not a finite normal
    normal = np.isfinite(product) & (product >= np.finfo(np.float64).tiny)
    centers = np.where(normal, np.sqrt(product), np.sqrt(left) * np.sqrt(right))
    bins = list(zip(centers.tolist(), picks.tolist()))
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


def _shared(a: ScoreVector, b: ScoreVector) -> tuple[np.ndarray, np.ndarray]:
    """Positions in ``a`` and in ``b`` of the ids both cover, in id order."""
    if a.node_ids == b.node_ids:  # the common case: two measures over one graph
        pos = np.arange(len(a.node_ids))
        return pos, pos
    pos_b = _positions(b.node_ids, a.node_ids)
    pos_a = np.flatnonzero(pos_b >= 0)
    return pos_a, pos_b[pos_a]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties receiving the mean of their rank range."""
    order = np.argsort(values)  # unstable: tied values get one rank, in any order
    starts = _run_starts(values[order])
    sizes = np.diff(np.append(starts, values.size))
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((2 * starts + sizes + 1) / 2.0, sizes)
    return ranks


def rank_correlation(a: ScoreVector, b: ScoreVector) -> float:
    """Spearman rank correlation over the users both vectors cover.

    Returns NaN when either vector is constant on the intersection.
    """
    pos_a, pos_b = _shared(a, b)
    if pos_a.size < 2:
        raise InsufficientOverlap(
            f"only {pos_a.size} users shared between {a.label!r} and {b.label!r}"
        )
    ra = _average_ranks(a.values[pos_a])
    rb = _average_ranks(b.values[pos_b])
    ca = ra - ra.mean()
    cb = rb - rb.mean()
    den = math.sqrt(float(ca @ ca) * float(cb @ cb))
    if den == 0.0:
        return float("nan")
    return float((ca @ cb) / den)


def _by_value(scores: ScoreVector) -> np.ndarray:
    """Node positions from the highest value down; position is id order, so
    the stable sort breaks ties by id."""
    return np.argsort(-scores.values, kind="stable")


def _ranks(scores: ScoreVector) -> np.ndarray:
    """Each position's 1-based place in :func:`_by_value`'s order."""
    ranks = np.empty(len(scores.node_ids), dtype=np.int64)
    ranks[_by_value(scores)] = np.arange(1, ranks.size + 1)
    return ranks


def top_k(scores: ScoreVector, k: int, eligible: Sequence[bool] | None = None) -> RankReport:
    """Best k users by value, ties by id; with a boolean ``eligible`` mask
    aligned with ``scores.node_ids``, only the users it marks are ranked."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    order = _by_value(scores)
    if eligible is not None:
        order = order[np.asarray(eligible, dtype=bool)[order]]
    order = order[:k]
    return RankReport(
        label=f"top{k}_{scores.label}",
        columns=("user", scores.label, "rank"),
        data=(
            [scores.node_ids[p] for p in order.tolist()],
            scores.values[order],
            np.arange(1, order.size + 1),
        ),
    )


def rank_join(a: ScoreVector, b: ScoreVector) -> RankReport:
    """Each shared user's rank under both measures, ranks over each full vector."""
    rank_a, rank_b = _ranks(a), _ranks(b)
    pos_a, pos_b = _shared(a, b)
    order = np.argsort(rank_a[pos_a])
    pos_a, pos_b = pos_a[order], pos_b[order]
    return RankReport(
        label=f"{a.label}_vs_{b.label}",
        columns=("user", f"rank_{a.label}", f"rank_{b.label}"),
        data=([a.node_ids[p] for p in pos_a.tolist()], rank_a[pos_a], rank_b[pos_b]),
    )


def report_to_tsv(report: RankReport) -> str:
    users, *values = report.data
    formats = ["%s", *("%.17g" if v.dtype.kind == "f" else "%d" for v in values)]
    head = f"#report={report.label}\n#" + "\t".join(report.columns) + "\n"
    return head + _tsv_rows(formats, users, *(v.tolist() for v in values))


def curve_to_tsv(curve: PercentileCurve) -> str:
    lines = [f"#q={curve.q!r}"]
    for center, pct in curve.bins:
        lines.append(f"{center!r}\t{pct!r}")
    lines.append(f"#fit slope={curve.slope!r} intercept={curve.intercept!r}")
    return "\n".join(lines) + "\n"


def _summary_line(tag: str, s: RateSummary) -> str:
    hist = ",".join(str(c) for c in s.histogram)
    return f"#{tag} mean={s.mean!r} median={s.median!r} hist={hist}"


def rates_to_tsv(report: RateReport) -> str:
    lines = [
        _summary_line("user_rate", report.user_summary),
        _summary_line("audience_rate", report.audience_summary),
        "#user\tuser_rate\taudience_rate\n",
    ]
    vectors = report.user_rates, report.audience_rates
    users = sorted({*vectors[0].node_ids, *vectors[1].node_ids})
    rates = [np.full(len(users), "-", dtype=object) for _ in vectors]  # "-": undefined
    for cells, vector in zip(rates, vectors):
        cells[_positions(users, vector.node_ids)] = ["%.17g" % v for v in vector.values.tolist()]
    return "\n".join(lines) + _tsv_rows(("%s", "%s", "%s"), users, *rates)
