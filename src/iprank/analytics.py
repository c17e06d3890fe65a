"""Evaluation analytics: passivity evidence rates, attention-bound curves,
rank correlation, and top-k / rank-comparison reports.

Rates use the static follower snapshot for the entire trace. Every reception
is one event by a followed user; a reception counts as retweeted when the
receiver has a retweet crediting that (followee, url) pair, so both rates stay
within [0, 1] by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

import numpy as np

from .baselines import ScoreVector
from .errors import InsufficientOverlap, InvalidParams, NoData
from .ingest import ActivityLog, FollowEdgeList, _lookup, _positions, _run_starts, _tsv_rows

RATE_HIST_BINS = 10


@dataclass(frozen=True, slots=True)
class RateSummary:
    mean: float
    median: float
    histogram: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class RateReport:
    """Per-user retweeting rates plus population summaries.

    Users whose rate is undefined (zero denominator) are absent from the
    per-user maps and excluded from the summaries.
    """

    user_rates: dict[str, float]
    audience_rates: dict[str, float]
    user_summary: RateSummary
    audience_summary: RateSummary


@dataclass(frozen=True, slots=True)
class PercentileCurve:
    """Per-bin high quantile of clicks against a user attribute, with a
    log10-log10 least-squares fit."""

    bins: tuple[tuple[float, float], ...]
    q: float
    slope: float
    intercept: float


@dataclass(frozen=True, slots=True)
class RankReport:
    """Rows of a ranking; each column holds one type of value, and a column
    of floats is written with 17 significant digits."""

    label: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


def _summarize(rates: dict[str, float]) -> RateSummary:
    if not rates:
        return RateSummary(float("nan"), float("nan"), (0,) * RATE_HIST_BINS)
    values = np.array(sorted(rates.values()))
    hist, _ = np.histogram(values, bins=RATE_HIST_BINS, range=(0.0, 1.0))
    return RateSummary(
        float(values.mean()), float(np.median(values)), tuple(int(c) for c in hist)
    )


def rate_report(log: ActivityLog, follows: FollowEdgeList) -> RateReport:
    """User and audience retweeting rates of every user with a defined rate.

    A user's rate is the share of the events of its followees that it
    retweeted, counting each (followee, url) once; undefined when the
    followees posted nothing. A user's audience rate is the share of
    (follower, own event) deliveries that came back as a distinct
    (follower, url) retweet; undefined without followers or events.
    """
    followee, follower, extra = log.follow_codes(follows)
    ids = log.user_ids + extra
    n = len(ids)
    events = np.bincount(log.user, minlength=n)
    followees = np.bincount(follower, minlength=n)
    followers = np.bincount(followee, minlength=n)
    received = np.bincount(follower, weights=events[followee], minlength=n).astype(np.int64)
    rt = log.retweets
    _, followed = _lookup(followee * n + follower, rt.source * n + rt.user)
    retweeted = np.bincount(rt.user[followed], minlength=n)
    echoed = np.bincount(rt.source[followed], minlength=n)

    def rates(defined: np.ndarray, num: np.ndarray, den: np.ndarray) -> dict[str, float]:
        codes = np.flatnonzero(defined)
        values = num[codes] / den[codes]
        return {ids[c]: v for c, v in zip(codes.tolist(), values.tolist())}

    user_rates = rates((followees > 0) & (received > 0), retweeted, received)
    audience_rates = rates((followers > 0) & (events > 0), echoed, events * followers)
    return RateReport(
        user_rates,
        audience_rates,
        _summarize(user_rates),
        _summarize(audience_rates),
    )


def url_attribute_average(
    log: ActivityLog, scores: ScoreVector
) -> dict[str, float]:
    """Mean score over the distinct users that mentioned each URL.

    Retweeting a URL counts as mentioning it. Unscored users shrink the
    averaging set; URLs with no scored mentioner are omitted. Each URL's sum
    runs over its users in id order.
    """
    code = _positions(log.user_index, scores.node_ids)
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
    averages = totals[urls] / counts[urls]
    return {log.url_ids[k]: v for k, v in zip(urls.tolist(), averages.tolist())}


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    # rank floor(q*n) + 1, capped at n, with q read exactly from its decimal
    # form: equals ceil(q*n) except at integer q*n, which resolves upward
    n = len(sorted_values)
    k = int(Fraction(Decimal(str(q))) * n) + 1
    return sorted_values[min(n, k) - 1]


def percentile_curve(
    points: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    q: float = 0.999,
    bin_count: int = 50,
) -> PercentileCurve:
    """Bin (attribute, clicks) points on a log-spaced attribute axis and take
    the nearest-rank q-quantile of clicks per bin.

    An attribute that is not finite raises :class:`InvalidParams`; a URL's
    average score is one when a poster of it scores infinite. Points with a
    non-positive attribute are excluded (log-log axes); empty bins are
    omitted. The fit is ordinary least squares on
    (log10 bin center, log10 max(percentile, 1)); with fewer than two distinct
    centers the slope is 0 and the intercept is the mean.
    """
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
        bins.append((center, _nearest_rank(sorted(buckets[idx]), q)))
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
    pos_b = _positions(dict(zip(b.node_ids, range(len(b.node_ids)))), a.node_ids)
    pos_a = np.flatnonzero(pos_b >= 0)
    return pos_a, pos_b[pos_a]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties receiving the mean of their rank range."""
    order = np.argsort(values, kind="stable")
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
    order = order[:k].tolist()
    ids, values = scores.node_ids, scores.values.tolist()
    rows = tuple((ids[p], values[p], rank) for rank, p in enumerate(order, start=1))
    return RankReport(
        label=f"top{k}_{scores.label}",
        columns=("user", scores.label, "rank"),
        rows=rows,
    )


def rank_join(a: ScoreVector, b: ScoreVector) -> RankReport:
    """Each shared user's rank under both measures, ranks over each full vector."""
    rank_a, rank_b = _ranks(a), _ranks(b)
    pos_a, pos_b = _shared(a, b)
    order = np.argsort(rank_a[pos_a])
    pos_a, pos_b = pos_a[order], pos_b[order]
    users = [a.node_ids[p] for p in pos_a.tolist()]
    rows = tuple(zip(users, rank_a[pos_a].tolist(), rank_b[pos_b].tolist()))
    return RankReport(
        label=f"{a.label}_vs_{b.label}",
        columns=("user", f"rank_{a.label}", f"rank_{b.label}"),
        rows=rows,
    )


def report_to_tsv(report: RankReport) -> str:
    head = f"#report={report.label}\n#" + "\t".join(report.columns) + "\n"
    if not report.rows:
        return head
    formats = ["%.17g" if isinstance(v, float) else "%s" for v in report.rows[0]]
    return head + _tsv_rows(formats, *zip(*report.rows))


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
    users = sorted(report.user_rates.keys() | report.audience_rates.keys())
    rates = [
        [format(r[u], ".17g") if u in r else "-" for u in users]
        for r in (report.user_rates, report.audience_rates)
    ]
    return "\n".join(lines) + _tsv_rows(("%s", "%s", "%s"), users, *rates)
