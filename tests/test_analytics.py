"""Rates, percentile curves, rank correlation, and report shaping."""

import math

import numpy as np
import pytest

from iprank.analytics import (
    curve_to_tsv,
    percentile_curve,
    rank_correlation,
    rank_join,
    rate_report,
    rates_to_tsv,
    report_to_tsv,
    top_k,
    url_attribute_average,
)
from iprank.errors import InsufficientOverlap, InvalidParams, NoData
from iprank.ingest import TweetEvent
from iprank.testkit import SynthParams, synth_trace
from oracles import (
    audience_retweeting_rate, by_id, followers_of, follows_of, log_of, point_columns, ranks_of,
    rows, user_retweeting_rate, vector_from_mapping,
)


def mention(t, user, url):
    return TweetEvent(time=t, user=user, url=url)


def retweet(t, user, url, source):
    return TweetEvent(time=t, user=user, url=url, source=source)


class TestUserRetweetingRate:
    def test_mean_rate_construction(self):
        # one followee posts 318 distinct URLs, the user retweets exactly one
        events = [mention(t, "feed", f"u{t:03d}") for t in range(318)]
        events.append(retweet(1000, "reader", "u000", "feed"))
        log = log_of(events)
        follows = follows_of([("feed", "reader")])
        assert user_retweeting_rate(log, follows, "reader") == pytest.approx(1 / 318)

    def test_zero_retweets(self):
        events = [mention(t, "feed", f"u{t}") for t in range(10)]
        log = log_of(events)
        follows = follows_of([("feed", "reader")])
        assert user_retweeting_rate(log, follows, "reader") == 0.0

    def test_follows_nobody_is_undefined(self):
        log = log_of([mention(1, "feed", "a")])
        follows = follows_of([("feed", "other")])
        assert user_retweeting_rate(log, follows, "loner") is None

    def test_silent_followees_undefined(self):
        log = log_of([mention(1, "x", "a")])
        follows = follows_of([("quiet", "reader")])
        assert user_retweeting_rate(log, follows, "reader") is None

    def test_rate_stays_within_unit_interval(self):
        # the same URL delivered twice but retweeted once still gives <= 1
        events = [
            mention(1, "feed", "a"),
            mention(2, "feed", "a"),
            retweet(3, "reader", "a", "feed"),
        ]
        log = log_of(events)
        follows = follows_of([("feed", "reader")])
        rate = user_retweeting_rate(log, follows, "reader")
        assert rate == pytest.approx(0.5)
        assert 0.0 <= rate <= 1.0


class TestAudienceRetweetingRate:
    def test_arithmetic(self):
        events = [
            mention(1, "star", "a"),
            mention(2, "star", "b"),
            mention(3, "star", "c"),
            retweet(4, "fan1", "a", "star"),
        ]
        log = log_of(events)
        follows = follows_of([("star", "fan1"), ("star", "fan2")])
        assert audience_retweeting_rate(log, follows, "star") == pytest.approx(1 / 6)

    def test_no_followers_undefined(self):
        log = log_of([mention(1, "star", "a")])
        follows = follows_of([("other", "fan")])
        assert audience_retweeting_rate(log, follows, "star") is None

    def test_matches_brute_force_event_join(self):
        log, follows = synth_trace(
            SynthParams(
                users=25,
                broadcasters=6,
                follow_prob=0.3,
                mention_rate=4.0,
                retweet_prob=0.5,
                url_pool=15,
                seed=20,
            )
        )
        for user in sorted(follows.user_ids):
            rate = audience_retweeting_rate(log, follows, user)
            followers = followers_of(follows, user)
            own = [ev for ev in log if ev.user == user]
            if not followers or not own:
                assert rate is None
                continue
            posted = {ev.url for ev in own}
            pairs = {
                (ev.user, ev.url)
                for ev in log
                if ev.source == user and ev.user in followers and ev.url in posted
            }
            expected = len(pairs) / (len(own) * len(followers))
            assert rate == pytest.approx(expected, abs=1e-15)

    def test_rates_in_unit_interval_when_defined(self):
        log, follows = synth_trace(
            SynthParams(
                users=30,
                broadcasters=8,
                follow_prob=0.25,
                mention_rate=3.0,
                retweet_prob=0.6,
                url_pool=10,
                seed=21,
            )
        )
        report = rate_report(log, follows)
        for value in [*report.user_rates.values.tolist(), *report.audience_rates.values.tolist()]:
            assert 0.0 <= value <= 1.0


def averages(log, scores):
    """``url_attribute_average`` as a URL -> mean dict."""
    urls, means = url_attribute_average(log, scores)
    return dict(zip(urls, means.tolist()))


class TestUrlAttributeAverage:
    def test_mean_over_mentioners(self):
        log = log_of([mention(1, "a", "x"), mention(2, "b", "x")])
        scores = vector_from_mapping({"a": 0.1, "b": 0.3}, "m")
        assert averages(log, scores) == {"x": pytest.approx(0.2)}

    def test_distinct_users_only(self):
        log = log_of([mention(1, "a", "x"), mention(2, "a", "x")])
        scores = vector_from_mapping({"a": 0.4}, "m")
        assert averages(log, scores) == {"x": pytest.approx(0.4)}

    def test_unscored_users_shrink_the_set(self):
        log = log_of([mention(1, "a", "x"), mention(2, "ghost", "x")])
        scores = vector_from_mapping({"a": 0.4}, "m")
        assert averages(log, scores)["x"] == pytest.approx(0.4)

    def test_url_with_no_scored_mentioner_omitted(self):
        log = log_of([mention(1, "ghost", "x")])
        assert averages(log, vector_from_mapping({}, "m")) == {}

    def test_retweeters_count_as_mentioners(self):
        log = log_of([mention(1, "a", "x"), retweet(2, "b", "x", "a")])
        scores = vector_from_mapping({"a": 0.0, "b": 1.0}, "m")
        assert averages(log, scores)["x"] == pytest.approx(0.5)

    def test_sums_scores_in_user_id_order(self):
        # (1 + 1e16) - 1e16 == 0 in doubles, while (-1e16 + 1e16) + 1 == 1
        log = log_of([mention(1, "c", "x"), mention(2, "b", "x"), mention(3, "a", "x")])
        scores = vector_from_mapping({"a": 1.0, "b": 1e16, "c": -1e16}, "m")
        assert averages(log, scores) == {"x": 0.0}

    def test_matches_naive_join(self):
        rng = np.random.default_rng(22)
        events = []
        for t in range(250):
            events.append(mention(t, f"u{int(rng.integers(0, 15))}", f"l{int(rng.integers(0, 30))}"))
        log = log_of(events)
        values = {f"u{i}": float(rng.random()) for i in range(12)}
        scores = vector_from_mapping(values, "m")
        result = averages(log, scores)
        naive = {}
        for url in {ev.url for ev in log}:
            users = {ev.user for ev in log if ev.url == url}
            vals = [values[u] for u in sorted(users) if u in values]
            if vals:
                naive[url] = sum(vals) / len(vals)
        assert result.keys() == naive.keys()
        for url in naive:
            assert result[url] == pytest.approx(naive[url], abs=1e-15)


def sort_based_percentile(values, q):
    from decimal import Decimal
    from fractions import Fraction

    ordered = sorted(values)
    k = int(Fraction(Decimal(str(q))) * len(ordered)) + 1
    return ordered[min(len(ordered), k) - 1]


class TestPercentileCurve:
    def test_single_bin_999(self):
        points = [(1.0, float(c)) for c in range(1, 1001)]
        curve = percentile_curve(*point_columns(points), q=0.999, bin_count=1)
        assert len(curve.bins) == 1
        assert curve.bins[0][1] == 1000.0

    def test_constant_clicks_flat_fit(self):
        points = [(float(x), 7.0) for x in range(1, 200)]
        curve = percentile_curve(*point_columns(points), q=0.999, bin_count=10)
        assert all(p == 7.0 for _, p in curve.bins)
        assert curve.slope == 0.0

    def test_matches_sort_oracle_two_bins(self):
        low = [(1.0, float(c)) for c in (5, 1, 9, 3, 7)]
        high = [(100.0, float(c)) for c in (50, 10, 90, 30)]
        curve = percentile_curve(*point_columns(low + high), q=0.5, bin_count=2)
        assert curve.bins[0][1] == sort_based_percentile([c for _, c in low], 0.5)
        assert curve.bins[1][1] == sort_based_percentile([c for _, c in high], 0.5)

    def test_matches_sort_oracle_random(self):
        rng = np.random.default_rng(23)
        points = [
            (float(10 ** rng.uniform(0, 4)), float(rng.integers(0, 10_000)))
            for _ in range(2000)
        ]
        for q in (0.5, 0.9, 0.999):
            curve = percentile_curve(*point_columns(points), q=q, bin_count=8)
            # recompute with an independent binning pass
            xs = [x for x, _ in points]
            lo, hi = min(xs), max(xs)
            edges = np.logspace(math.log10(lo), math.log10(hi), 9)
            groups = {}
            for x, c in points:
                idx = min(max(int(np.searchsorted(edges, x, side="right")) - 1, 0), 7)
                groups.setdefault(idx, []).append(c)
            expected = {
                idx: sort_based_percentile(vals, q) for idx, vals in groups.items()
            }
            got = {k: p for k, (_, p) in zip(sorted(groups), curve.bins)}
            assert got == expected

    def test_scaling_invariance_exact(self):
        rng = np.random.default_rng(24)
        points = [
            (float(10 ** rng.uniform(0, 3)), float(rng.integers(1, 1000)))
            for _ in range(500)
        ]
        base = percentile_curve(*point_columns(points), q=0.9, bin_count=6)
        xs, clicks = point_columns(points)
        scaled = percentile_curve(xs, [c * 3.0 for c in clicks], q=0.9, bin_count=6)
        for (c1, p1), (c2, p2) in zip(base.bins, scaled.bins):
            assert c1 == c2
            assert p2 == p1 * 3.0

    def test_nonpositive_x_excluded(self):
        curve = percentile_curve([0.0, 2.0], [5.0, 9.0], q=0.5, bin_count=3)
        assert len(curve.bins) == 1

    def test_no_data(self):
        with pytest.raises(NoData):
            percentile_curve([0.0], [5.0])

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_an_attribute_that_is_not_finite_is_an_error(self, x):
        with pytest.raises(InvalidParams, match="is not finite"):
            percentile_curve([1.0, x, 2.0], [5.0, 9.0, 3.0])

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            percentile_curve([1.0], [1.0], q=0.0)
        with pytest.raises(InvalidParams):
            percentile_curve([1.0], [1.0], bin_count=0)

    def test_more_bins_than_numpy_can_allocate_is_invalid(self):
        # numpy refuses 10**30 + 1 edges before allocating any: a count it
        # would try to allocate (3e9 edges, about 24 GB) is not run here
        with pytest.raises(InvalidParams, match="bin_count 10+ is too large to allocate"):
            percentile_curve([1.0, 10.0], [2.0, 20.0], bin_count=10**30)
        # one distinct attribute spaces no edges: one bin at any count
        one = percentile_curve([3.0, 3.0], [1.0, 2.0], bin_count=1)
        assert percentile_curve([3.0, 3.0], [1.0, 2.0], bin_count=10**30) == one

    def test_fit_on_powerlaw(self):
        # one point per bin; log-centers are evenly spaced at 0.75 apart while
        # log-y steps by 2, so the collinear OLS slope is exactly 2 / 0.75
        points = [(float(x), float(x) ** 2) for x in (1, 10, 100, 1000)]
        curve = percentile_curve(*point_columns(points), q=1.0, bin_count=4)
        assert curve.slope == pytest.approx(8.0 / 3.0, abs=1e-9)

    def test_tsv_has_fit_trailer(self):
        curve = percentile_curve([1.0, 10.0], [2.0, 20.0], q=1.0, bin_count=2)
        text = curve_to_tsv(curve)
        assert text.splitlines()[-1].startswith("#fit slope=")


class TestRankCorrelation:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(25)
        values = {f"u{i}": float(rng.random()) for i in range(40)}
        a = vector_from_mapping(values, "a")
        b = vector_from_mapping(dict(values), "b")
        assert rank_correlation(a, b) == 1.0

    def test_reversal_is_exactly_minus_one(self):
        users = [f"u{i}" for i in range(25)]
        a = vector_from_mapping({u: float(i) for i, u in enumerate(users)}, "a")
        b = vector_from_mapping({u: float(-i) for i, u in enumerate(users)}, "b")
        assert rank_correlation(a, b) == -1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(26)
        values = {f"u{i}": float(rng.random()) for i in range(30)}
        a = vector_from_mapping(values, "a")
        b = vector_from_mapping({u: v * 2 for u, v in values.items()}, "b")
        transformed = vector_from_mapping({u: math.exp(3 * v) for u, v in values.items()}, "t")
        assert rank_correlation(a, b) == rank_correlation(transformed, b)

    def test_matches_rank_then_pearson_oracle(self):
        rng = np.random.default_rng(27)
        users = [f"u{i}" for i in range(50)]
        a = vector_from_mapping({u: float(rng.integers(0, 10)) for u in users}, "a")
        b = vector_from_mapping({u: float(rng.integers(0, 10)) for u in users}, "b")

        def naive_ranks(vec):
            values = dict(zip(vec.node_ids, vec.values.tolist()))
            ordered = sorted(users, key=lambda u: values[u])
            ranks = {}
            i = 0
            while i < len(ordered):
                j = i
                while (
                    j + 1 < len(ordered)
                    and values[ordered[j + 1]] == values[ordered[i]]
                ):
                    j += 1
                for k in range(i, j + 1):
                    ranks[ordered[k]] = (i + j + 2) / 2
                i = j + 1
            return ranks

        ra, rb = naive_ranks(a), naive_ranks(b)
        xs = [ra[u] for u in users]
        ys = [rb[u] for u in users]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = math.sqrt(
            sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)
        )
        assert rank_correlation(a, b) == pytest.approx(num / den, abs=1e-12)

    def test_insufficient_overlap(self):
        a = vector_from_mapping({"x": 1.0}, "a")
        b = vector_from_mapping({"x": 1.0, "y": 2.0}, "b")
        with pytest.raises(InsufficientOverlap):
            rank_correlation(a, b)

    def test_constant_vector_gives_nan(self):
        a = vector_from_mapping({"x": 1.0, "y": 1.0}, "a")
        b = vector_from_mapping({"x": 1.0, "y": 2.0}, "b")
        assert math.isnan(rank_correlation(a, b))


class TestRankReports:
    def test_top_k_basic(self):
        scores = vector_from_mapping({"a": 3.0, "b": 1.0, "c": 2.0}, "m")
        report = top_k(scores, 2)
        assert [(r[0], r[2]) for r in rows(report)] == [("a", 1), ("c", 2)]

    def test_tie_broken_by_user_id(self):
        scores = vector_from_mapping({"b": 1.0, "a": 1.0}, "m")
        report = top_k(scores, 2)
        assert [r[0] for r in rows(report)] == ["a", "b"]

    def test_predicate_filters_before_ranking(self):
        scores = vector_from_mapping({"a": 3.0, "b": 2.0, "c": 1.0}, "m")
        report = top_k(scores, 2, eligible=np.array([u != "a" for u in scores.node_ids]))
        assert [r[0] for r in rows(report)] == ["b", "c"]
        assert [r[2] for r in rows(report)] == [1, 2]

    def test_top_k_is_prefix_of_full_ranking(self):
        rng = np.random.default_rng(28)
        scores = vector_from_mapping({f"u{i}": float(rng.random()) for i in range(30)}, "m")
        full = top_k(scores, 30)
        head = top_k(scores, 7)
        assert rows(head) == rows(full)[:7]

    def test_k_validation(self):
        with pytest.raises(InvalidParams):
            top_k(vector_from_mapping({"a": 1.0}, "m"), 0)

    def test_rank_join_matches_naive_double_sort(self):
        rng = np.random.default_rng(29)
        users = [f"u{i}" for i in range(20)]
        values_a = {u: float(rng.random()) for u in users}
        values_b = {u: float(rng.random()) for u in users[5:]}
        a = vector_from_mapping(values_a, "alpha")
        b = vector_from_mapping(values_b, "beta")
        report = rank_join(a, b)
        order_a = sorted(users, key=lambda u: (-values_a[u], u))
        naive_a = {u: k + 1 for k, u in enumerate(order_a)}
        order_b = sorted(users[5:], key=lambda u: (-values_b[u], u))
        naive_b = {u: k + 1 for k, u in enumerate(order_b)}
        assert set(r[0] for r in rows(report)) == set(users[5:])
        for user, rank_a, rank_b in rows(report):
            assert rank_a == naive_a[user]
            assert rank_b == naive_b[user]

    def test_rank_join_ranks_are_permutations(self):
        rng = np.random.default_rng(30)
        users = [f"u{i}" for i in range(15)]
        a = vector_from_mapping({u: float(rng.random()) for u in users}, "a")
        b = vector_from_mapping({u: float(rng.random()) for u in users}, "b")
        report = rank_join(a, b)
        assert sorted(r[1] for r in rows(report)) == list(range(1, 16))
        assert sorted(r[2] for r in rows(report)) == list(range(1, 16))

    def test_ranks_of_full_vector(self):
        scores = vector_from_mapping({"a": 1.0, "b": 5.0, "c": 3.0}, "m")
        assert ranks_of(scores) == {"b": 1, "c": 2, "a": 3}

    def test_report_tsv_shape(self):
        scores = vector_from_mapping({"a": 0.5, "b": 0.25}, "m")
        text = report_to_tsv(top_k(scores, 2))
        lines = text.strip().split("\n")
        assert lines[0] == "#report=top2_m"
        assert lines[1] == "#user\tm\trank"
        assert lines[2] == "a\t0.5\t1"


class TestRateReport:
    def test_report_and_tsv(self):
        log, follows = synth_trace(
            SynthParams(
                users=15,
                broadcasters=4,
                follow_prob=0.4,
                mention_rate=3.0,
                retweet_prob=0.5,
                url_pool=10,
                seed=31,
            )
        )
        report = rate_report(log, follows)
        assert by_id(report.user_rates)
        assert by_id(report.audience_rates)
        assert (report.user_rates.label, report.audience_rates.label) == (
            "user_rate", "audience_rate",
        )
        assert 0.0 <= report.user_summary.mean <= 1.0
        assert sum(report.user_summary.histogram) == len(report.user_rates.node_ids)
        text = rates_to_tsv(report)
        assert text.startswith("#user_rate mean=")
        assert "#user\tuser_rate\taudience_rate" in text
