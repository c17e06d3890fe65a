"""Graph construction against the weight formulas and naive counting oracles."""

import numpy as np
import pytest

from iprank.errors import InvalidParams, UnparsableLine
from iprank.graphs import (
    InfluenceGraph,
    build_comention,
    build_retweet,
    build_retweet_follower,
    graph_from_tsv,
    graph_stats,
    graph_to_tsv,
)
from iprank.ingest import ActivityLog, FollowEdgeList, TweetEvent
from iprank.testkit import PairwiseCounts, SynthParams, pairwise_counts, synth_trace


def mention(t, user, url):
    return TweetEvent(time=t, user=user, url=url)


def retweet(t, user, url, source):
    return TweetEvent(time=t, user=user, url=url, source=source)


class TestInfluenceGraphType:
    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            InfluenceGraph.from_arcs([("a", "b", 0.0)])
        with pytest.raises(ValueError):
            InfluenceGraph.from_arcs([("a", "b", 1.0 + 1e-9)])
        g = InfluenceGraph.from_arcs([("a", "b", 1.0)])
        assert g.weight("a", "b") == 1.0

    def test_no_self_arcs(self):
        with pytest.raises(ValueError):
            InfluenceGraph.from_arcs([("a", "a", 0.5)])

    def test_duplicate_arcs_rejected(self):
        with pytest.raises(ValueError):
            InfluenceGraph.from_arcs([("a", "b", 0.5), ("a", "b", 0.6)])

    def test_isolated_nodes_kept(self):
        g = InfluenceGraph.from_arcs([("a", "b", 0.5)], nodes=["z"])
        assert g.num_nodes == 3 and "z" in g

    def test_nodes_sorted(self):
        g = InfluenceGraph.from_arcs([("b", "a", 0.5), ("a", "c", 0.5)])
        assert g.node_ids == ("a", "b", "c")


class TestComention:
    def test_weight_formula(self):
        # i mentions {a,b,c}; j later mentions a (of i's) and d (new)
        log = ActivityLog(
            [
                mention(1, "i", "a"),
                mention(2, "i", "b"),
                mention(3, "i", "c"),
                mention(5, "j", "a"),
                mention(6, "j", "d"),
            ]
        )
        follows = FollowEdgeList([("i", "j")])
        g = build_comention(log, follows, min_urls=1)
        assert g.weight("i", "j") == pytest.approx(1.0 / 3.0)
        assert g.num_arcs == 1

    def test_no_follow_no_arc(self):
        log = ActivityLog(
            [mention(1, "i", "a"), mention(5, "j", "a"), mention(6, "j", "d")]
        )
        follows = FollowEdgeList([("j", "i")])  # wrong direction
        g = build_comention(log, follows, min_urls=1)
        assert g.num_arcs == 0

    def test_prior_mention_does_not_count(self):
        # j mentioned a before i's first mention and never again
        log = ActivityLog(
            [mention(0, "j", "a"), mention(1, "i", "a"), mention(2, "i", "b")]
        )
        follows = FollowEdgeList([("i", "j")])
        g = build_comention(log, follows, min_urls=1)
        # brute-force temporal scan confirms S = 0
        i_first_a = min(ev.time for ev in log if ev.user == "i" and ev.url == "a")
        s = len(
            {
                ev.url
                for ev in log
                if ev.user == "j" and ev.time > i_first_a and ev.url == "a"
            }
        )
        assert s == 0
        assert g.num_arcs == 0

    def test_equal_timestamp_does_not_count(self):
        log = ActivityLog([mention(5, "i", "a"), mention(5, "j", "a")])
        g = build_comention(log, FollowEdgeList([("i", "j")]), min_urls=1)
        assert g.num_arcs == 0

    def test_later_mention_restores_arc(self):
        log = ActivityLog(
            [mention(0, "j", "a"), mention(1, "i", "a"), mention(9, "j", "a")]
        )
        g = build_comention(log, FollowEdgeList([("i", "j")]), min_urls=1)
        assert g.weight("i", "j") == 1.0

    def test_min_urls_filters_both_endpoints(self):
        log = ActivityLog(
            [
                mention(1, "i", "a"),
                mention(2, "i", "b"),
                mention(3, "i", "c"),
                mention(5, "j", "a"),
                mention(6, "j", "d"),
            ]
        )
        follows = FollowEdgeList([("i", "j")])
        assert build_comention(log, follows, min_urls=2).num_arcs == 1
        assert build_comention(log, follows, min_urls=3).num_arcs == 0  # j has 2

    def test_min_urls_validation(self):
        log = ActivityLog([mention(1, "i", "a")])
        with pytest.raises(InvalidParams):
            build_comention(log, FollowEdgeList([("i", "j")]), min_urls=0)

    def test_pairwise_counts_worked_example(self):
        log = ActivityLog(
            [
                mention(1, "i", "a"),
                mention(2, "i", "b"),
                mention(3, "i", "c"),
                mention(5, "j", "a"),
                mention(6, "j", "d"),
            ]
        )
        counts = pairwise_counts(log, "i", "j")
        assert counts == PairwiseCounts(s=1, f=2, p=3)

    def test_pairwise_counts_invariants_on_synth(self):
        log, _ = synth_trace(
            SynthParams(
                users=20,
                broadcasters=6,
                follow_prob=0.4,
                mention_rate=4.0,
                retweet_prob=0.4,
                url_pool=12,
                seed=9,
            )
        )
        users = sorted(log.users)
        for i in users[:6]:
            for j in users[:6]:
                if i == j:
                    continue
                c = pairwise_counts(log, i, j)
                assert 0 <= c.s <= c.p
                assert 0 <= c.f <= c.p

    def test_pairwise_counts_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PairwiseCounts(s=4, f=0, p=3)


class TestRetweetBuilders:
    def trace(self):
        return ActivityLog(
            [
                mention(1, "i", "a"),
                mention(2, "i", "b"),
                mention(3, "i", "c"),
                retweet(5, "j", "a", "i"),
                mention(6, "j", "x"),
                mention(7, "j", "y"),
            ]
        )

    def test_weight_is_s_over_p(self):
        g = build_retweet(self.trace(), min_urls=3)
        assert g.weight("i", "j") == pytest.approx(1.0 / 3.0)

    def test_no_retweet_no_arc(self):
        log = ActivityLog([mention(1, "i", "a"), mention(2, "j", "b")])
        assert build_retweet(log, min_urls=1).num_arcs == 0

    def test_all_urls_retweeted_gives_weight_one(self):
        log = ActivityLog(
            [
                mention(1, "i", "a"),
                mention(2, "i", "b"),
                mention(3, "i", "c"),
                retweet(4, "j", "a", "i"),
                retweet(5, "j", "b", "i"),
                retweet(6, "j", "c", "i"),
            ]
        )
        g = build_retweet(log, min_urls=3)
        assert g.weight("i", "j") == 1.0

    def test_follower_variant_requires_follow(self):
        log = self.trace()
        with_follow = build_retweet_follower(log, FollowEdgeList([("i", "j")]), 3)
        without = build_retweet_follower(log, FollowEdgeList([("j", "i")]), 3)
        assert with_follow.num_arcs == 1
        assert with_follow.weight("i", "j") == build_retweet(log, 3).weight("i", "j")
        assert without.num_arcs == 0

    def test_follow_without_retweet_gives_no_arc(self):
        log = ActivityLog([mention(1, "i", "a"), mention(2, "j", "b")])
        g = build_retweet_follower(log, FollowEdgeList([("i", "j")]), min_urls=1)
        assert g.num_arcs == 0


class TestBuilderProperties:
    def synth(self, seed):
        return synth_trace(
            SynthParams(
                users=40,
                broadcasters=8,
                follow_prob=0.2,
                mention_rate=5.0,
                retweet_prob=0.4,
                url_pool=25,
                seed=seed,
            )
        )

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_output_invariants(self, seed):
        log, follows = self.synth(seed)
        for g in (
            build_comention(log, follows, 2),
            build_retweet(log, 2),
            build_retweet_follower(log, follows, 2),
        ):
            assert np.all(g.weights > 0.0) and np.all(g.weights <= 1.0)
            assert np.all(g.src != g.dst)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_follower_arcs_subset_of_retweet_arcs(self, seed):
        log, follows = self.synth(seed)
        rt = build_retweet(log, 2)
        rtf = build_retweet_follower(log, follows, 2)
        rt_arcs = {(i, j): w for i, j, w in rt.arcs()}
        for i, j, w in rtf.arcs():
            assert rt_arcs[(i, j)] == w

    def test_raising_min_urls_is_monotone(self):
        log, follows = self.synth(6)
        for build in (
            lambda k: build_comention(log, follows, k),
            lambda k: build_retweet(log, k),
            lambda k: build_retweet_follower(log, follows, k),
        ):
            prev_nodes, prev_arcs = None, None
            for k in (1, 2, 3, 5):
                g = build(k)
                nodes = set(g.node_ids)
                arcs = set((i, j) for i, j, _ in g.arcs())
                if prev_nodes is not None:
                    assert nodes <= prev_nodes
                    assert arcs <= prev_arcs
                prev_nodes, prev_arcs = nodes, arcs

    def test_retweet_weight_lower_bound(self):
        from iprank.ingest import url_counts

        log, _ = self.synth(7)
        g = build_retweet(log, 2)
        p = url_counts(log)
        assert g.num_arcs > 0
        for i, j, w in g.arcs():
            assert w >= 1.0 / p[i] - 1e-15

    @staticmethod
    def naive_s(log, i, j):
        """Distinct URLs j mentioned strictly after i's first mention of them."""
        first_i = {}
        for ev in log:
            if ev.user == i and ev.url not in first_i:
                first_i[ev.url] = ev.time
        return len(
            {
                ev.url
                for ev in log
                if ev.user == j and ev.url in first_i and ev.time > first_i[ev.url]
            }
        )

    def test_deleting_early_follower_events_never_decreases_s(self):
        log, follows = self.synth(8)
        g1 = build_comention(log, follows, 1)
        assert g1.num_arcs > 0
        for i, j, _ in list(g1.arcs())[:8]:
            first_i = {}
            for ev in log:
                if ev.user == i and ev.url not in first_i:
                    first_i[ev.url] = ev.time
            kept = [
                ev
                for ev in log
                if not (
                    ev.user == j
                    and ev.url in first_i
                    and ev.time <= first_i[ev.url]
                )
            ]
            before = self.naive_s(log, i, j)
            after = self.naive_s(ActivityLog(kept), i, j)
            assert after >= before


class TestGraphStats:
    def test_mean(self):
        g = InfluenceGraph.from_arcs([("a", "b", 0.2), ("b", "c", 0.6)])
        s = graph_stats(g)
        assert s.mean_weight == pytest.approx(0.4)
        assert s.nodes == 3 and s.arcs == 2

    def test_empty(self):
        s = graph_stats(InfluenceGraph.from_arcs([]))
        assert (s.nodes, s.arcs, s.mean_weight) == (0, 0, 0.0)
        assert all(c == 0 for c in s.weight_histogram)

    def test_matches_naive_recount_on_random_graph(self):
        from iprank.testkit import random_graph

        g = random_graph(50, 180, seed=17)
        s = graph_stats(g)
        arcs = list(g.arcs())
        assert s.arcs == len(arcs)
        assert s.nodes == 50
        assert s.mean_weight == pytest.approx(sum(w for _, _, w in arcs) / len(arcs))
        naive_hist = [0] * 10
        for _, _, w in arcs:
            naive_hist[min(int(w * 10), 9)] += 1
        assert list(s.weight_histogram) == naive_hist


class TestSerialization:
    def test_round_trip_with_isolated_nodes(self):
        g = InfluenceGraph.from_arcs(
            [("a", "b", 1.0 / 3.0), ("b", "c", 0.125)], nodes=["lonely"]
        )
        text = graph_to_tsv(g)
        assert text.startswith("#nodes=4 arcs=2\n")
        assert "lonely\t-\t-" in text
        assert graph_from_tsv(text) == g

    def test_weights_survive_exactly(self):
        w = 0.12345678901234567
        g = InfluenceGraph.from_arcs([("a", "b", w)])
        assert graph_from_tsv(graph_to_tsv(g)).weight("a", "b") == w

    def test_empty_graph(self):
        g = InfluenceGraph.from_arcs([])
        assert graph_from_tsv(graph_to_tsv(g)) == g

    def test_truncated_file_fails_its_header(self):
        g = InfluenceGraph.from_arcs([("a", "b", 0.5), ("b", "c", 0.25), ("c", "d", 0.75)])
        text = graph_to_tsv(g)
        assert text.startswith("#nodes=4 arcs=3\n")
        cut = "".join(text.splitlines(keepends=True)[:2])
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(cut)
        assert info.value.line_no == 1

    @pytest.mark.parametrize(
        "line",
        [
            "a\tb\tzero", "a\tb", "a\tb\t0.5\textra", "a\tb\tnan", "a\tb\t0", "a\tb\t1.5",
            "a\ta\t0.5",
        ],
    )
    def test_malformed_line_reports_its_number(self, line):
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(f"c\td\t0.5\n{line}\n")
        assert info.value.line_no == 2

    @pytest.mark.parametrize("header", ["#nodes=x arcs=1", "#nodes=2", "#nodes=2 arcs=2"])
    def test_bad_or_wrong_header_rejected(self, header):
        with pytest.raises(UnparsableLine):
            graph_from_tsv(f"{header}\na\tb\t0.5\n")

    def test_nan_weight_rejected_by_graph(self):
        with pytest.raises(ValueError):
            InfluenceGraph.from_arcs([("a", "b", float("nan"))])
