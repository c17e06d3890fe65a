"""Graph construction against the weight formulas and naive counting oracles."""

import io
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from iprank import graphs, ingest
from iprank.baselines import ScoreVector
from iprank.errors import InvalidParams, UnparsableLine
from iprank.graphs import (
    build_comention,
    build_retweet,
    build_retweet_follower,
    graph_from_tsv,
    graph_stats,
    graph_to_tsv,
)
from iprank.ingest import TweetEvent
from iprank.ipcore import ScorePair
from iprank.testkit import SynthParams, synth_trace
from oracles import (
    PairwiseCounts, arc_weights, arcs_of, distinct_urls, edges, follows_of, graph_from_arcs,
    log_of, pairwise_counts, posters,
)

LONG = "0123456789abcdef"  # 16 bytes: longer than the graph reader's key prefix


def mention(t, user, url):
    return TweetEvent(time=t, user=user, url=url)


def retweet(t, user, url, source):
    return TweetEvent(time=t, user=user, url=url, source=source)


class TestInfluenceGraphType:
    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            graph_from_arcs([("a", "b", 0.0)])
        with pytest.raises(ValueError):
            graph_from_arcs([("a", "b", 1.0 + 1e-9)])
        g = graph_from_arcs([("a", "b", 1.0)])
        assert arc_weights(g)[("a", "b")] == 1.0

    def test_no_self_arcs(self):
        with pytest.raises(ValueError):
            graph_from_arcs([("a", "a", 0.5)])

    def test_duplicate_arcs_rejected(self):
        with pytest.raises(ValueError):
            graph_from_arcs([("a", "b", 0.5), ("a", "b", 0.6)])

    def test_isolated_nodes_kept(self):
        g = graph_from_arcs([("a", "b", 0.5)], nodes=["z"])
        assert g.num_nodes == 3 and "z" in g.node_ids

    def test_nodes_sorted(self):
        g = graph_from_arcs([("b", "a", 0.5), ("a", "c", 0.5)])
        assert g.node_ids == ("a", "b", "c")


class TestComention:
    def test_weight_formula(self):
        # i mentions {a,b,c}; j later mentions a (of i's) and d (new)
        log = log_of(
            [
                mention(1, "i", "a"),
                mention(2, "i", "b"),
                mention(3, "i", "c"),
                mention(5, "j", "a"),
                mention(6, "j", "d"),
            ]
        )
        follows = follows_of([("i", "j")])
        g = build_comention(log, follows, min_urls=1)
        assert arc_weights(g)[("i", "j")] == pytest.approx(1.0 / 3.0)
        assert g.num_arcs == 1

    def test_no_follow_no_arc(self):
        log = log_of(
            [mention(1, "i", "a"), mention(5, "j", "a"), mention(6, "j", "d")]
        )
        follows = follows_of([("j", "i")])  # wrong direction
        g = build_comention(log, follows, min_urls=1)
        assert g.num_arcs == 0

    def test_prior_mention_does_not_count(self):
        # j mentioned a before i's first mention and never again
        log = log_of(
            [mention(0, "j", "a"), mention(1, "i", "a"), mention(2, "i", "b")]
        )
        follows = follows_of([("i", "j")])
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
        log = log_of([mention(5, "i", "a"), mention(5, "j", "a")])
        g = build_comention(log, follows_of([("i", "j")]), min_urls=1)
        assert g.num_arcs == 0

    def test_later_mention_restores_arc(self):
        log = log_of(
            [mention(0, "j", "a"), mention(1, "i", "a"), mention(9, "j", "a")]
        )
        g = build_comention(log, follows_of([("i", "j")]), min_urls=1)
        assert arc_weights(g)[("i", "j")] == 1.0

    def test_min_urls_filters_both_endpoints(self):
        log = log_of(
            [
                mention(1, "i", "a"),
                mention(2, "i", "b"),
                mention(3, "i", "c"),
                mention(5, "j", "a"),
                mention(6, "j", "d"),
            ]
        )
        follows = follows_of([("i", "j")])
        assert build_comention(log, follows, min_urls=2).num_arcs == 1
        assert build_comention(log, follows, min_urls=3).num_arcs == 0  # j has 2

    def test_min_urls_validation(self):
        log = log_of([mention(1, "i", "a")])
        with pytest.raises(InvalidParams):
            build_comention(log, follows_of([("i", "j")]), min_urls=0)

    def test_working_memory_is_bounded_by_the_run_size(self, monkeypatch):
        # one (edge, URL) row per kept follow edge and URL its followee posted
        log, follows = synth_trace(
            SynthParams(
                users=300,
                broadcasters=30,
                follow_prob=0.2,
                mention_rate=6.0,
                retweet_prob=0.2,
                url_pool=300,
                seed=5,
            )
        )
        posted = distinct_urls(log)
        rows = sum(posted[i] for i, j in edges(follows) if i in posted and j in posted)
        log.posts  # built once and kept by the log, so neither build counts it

        def peak(run_rows):
            monkeypatch.setattr(graphs, "_RUN_ROWS", run_rows)
            tracemalloc.start()
            try:
                g = build_comention(log, follows, min_urls=1)
                return tracemalloc.get_traced_memory()[1], g
            finally:
                tracemalloc.stop()

        assert rows // 8 >= 1000  # eight runs, each of many edges
        runs, runs_graph = peak(rows // 8)
        whole, whole_graph = peak(rows)
        assert runs_graph == whole_graph
        assert runs < whole / 2, (runs, whole)

    def test_pairwise_counts_worked_example(self):
        log = log_of(
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
        users = sorted(posters(log))
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
        return log_of(
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
        assert arc_weights(g)[("i", "j")] == pytest.approx(1.0 / 3.0)

    def test_no_retweet_no_arc(self):
        log = log_of([mention(1, "i", "a"), mention(2, "j", "b")])
        assert build_retweet(log, min_urls=1).num_arcs == 0

    def test_all_urls_retweeted_gives_weight_one(self):
        log = log_of(
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
        assert arc_weights(g)[("i", "j")] == 1.0

    def test_follower_variant_requires_follow(self):
        log = self.trace()
        with_follow = build_retweet_follower(log, follows_of([("i", "j")]), 3)
        without = build_retweet_follower(log, follows_of([("j", "i")]), 3)
        assert with_follow.num_arcs == 1
        expected = arc_weights(build_retweet(log, 3))[("i", "j")]
        assert arc_weights(with_follow)[("i", "j")] == expected
        assert without.num_arcs == 0

    def test_follow_without_retweet_gives_no_arc(self):
        log = log_of([mention(1, "i", "a"), mention(2, "j", "b")])
        g = build_retweet_follower(log, follows_of([("i", "j")]), min_urls=1)
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
        rt_arcs = {(i, j): w for i, j, w in arcs_of(rt)}
        for i, j, w in arcs_of(rtf):
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
                arcs = set((i, j) for i, j, _ in arcs_of(g))
                if prev_nodes is not None:
                    assert nodes <= prev_nodes
                    assert arcs <= prev_arcs
                prev_nodes, prev_arcs = nodes, arcs

    def test_retweet_weight_lower_bound(self):
        log, _ = self.synth(7)
        g = build_retweet(log, 2)
        p = distinct_urls(log)
        assert g.num_arcs > 0
        for i, j, w in arcs_of(g):
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
        for i, j, _ in list(arcs_of(g1))[:8]:
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
            after = self.naive_s(log_of(kept), i, j)
            assert after >= before


class TestGraphStats:
    def test_mean(self):
        g = graph_from_arcs([("a", "b", 0.2), ("b", "c", 0.6)])
        s = graph_stats(g)
        assert s.mean_weight == pytest.approx(0.4)
        assert s.nodes == 3 and s.arcs == 2

    def test_empty(self):
        s = graph_stats(graph_from_arcs([]))
        assert (s.nodes, s.arcs, s.mean_weight) == (0, 0, 0.0)
        assert all(c == 0 for c in s.weight_histogram)

    def test_matches_naive_recount_on_random_graph(self):
        from iprank.testkit import random_graph

        g = random_graph(50, 180, seed=17)
        s = graph_stats(g)
        arcs = list(arcs_of(g))
        assert s.arcs == len(arcs)
        assert s.nodes == 50
        assert s.mean_weight == pytest.approx(sum(w for _, _, w in arcs) / len(arcs))
        naive_hist = [0] * 10
        for _, _, w in arcs:
            naive_hist[min(int(w * 10), 9)] += 1
        assert list(s.weight_histogram) == naive_hist


class TestSerialization:
    def test_round_trip_with_isolated_nodes(self):
        g = graph_from_arcs(
            [("a", "b", 1.0 / 3.0), ("b", "c", 0.125)], nodes=["lonely"]
        )
        text = graph_to_tsv(g)
        assert text.startswith("#nodes=4 arcs=2\n")
        assert "lonely\t-\t-" in text
        assert graph_from_tsv(text) == g

    def test_weights_survive_exactly(self):
        w = 0.12345678901234567
        g = graph_from_arcs([("a", "b", w)])
        assert arc_weights(graph_from_tsv(graph_to_tsv(g)))[("a", "b")] == w

    def test_empty_graph(self):
        g = graph_from_arcs([])
        assert graph_from_tsv(graph_to_tsv(g)) == g

    def test_truncated_file_fails_its_header(self):
        g = graph_from_arcs([("a", "b", 0.5), ("b", "c", 0.25), ("c", "d", 0.75)])
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

    @pytest.mark.parametrize("line", ["\tb\t0.5", "a\t\t0.5", "\t\t0.5", "\t-\t-", "\t-\tx"])
    def test_empty_id_reports_its_line(self, line):
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(f"c\td\t0.5\n{line}\ne\t-\t-\n")
        assert (info.value.line_no, info.value.line) == (2, line)
        assert info.value.reason == "empty user id"

    def test_repeated_arc_reports_its_first_repeat(self):
        text = "#nodes=3 arcs=3\nb\tc\t0.25\na\tb\t0.5\n\nb\tc\t0.75\na\tb\t0.50\n"
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(text)
        assert info.value.line_no == 5
        assert info.value.reason == "duplicate arc"
        assert info.value.line == "b\tc\t0.75"

    def test_reverse_arc_is_not_a_repeat(self):
        g = graph_from_tsv("a\tb\t0.5\nb\ta\t0.25\nc\t-\t-\n")
        assert arc_weights(g) == {("a", "b"): 0.5, ("b", "a"): 0.25}
        assert g.node_ids == ("a", "b", "c")

    @pytest.mark.parametrize("header", ["#nodes=x arcs=1", "#nodes=2", "#nodes=2 arcs=2"])
    def test_bad_or_wrong_header_rejected(self, header):
        with pytest.raises(UnparsableLine):
            graph_from_tsv(f"{header}\na\tb\t0.5\n")

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("#nodes=9 arcs=9\n#nodes=2 arcs=1\na\tb\t0.5\n", 2),
            ("#nodes=2 arcs=1\na\tb\t0.5\n#c\n#nodes=2 arcs=1\n", 4),
        ],
    )
    def test_second_header_rejected(self, text, line_no):
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(text)
        assert (info.value.line_no, info.value.reason) == (line_no, "a second header")
        assert info.value.line == text.split("\n")[line_no - 1]

    def test_one_header_may_come_anywhere(self):
        g = graph_from_tsv("a\tb\t0.5\n#nodes=3 arcs=1\nc\t-\t-\n")
        assert (g.num_nodes, g.num_arcs) == (3, 1)

    def test_nan_weight_rejected_by_graph(self):
        with pytest.raises(ValueError):
            graph_from_arcs([("a", "b", float("nan"))])

    @pytest.mark.parametrize(
        "text,line_no,line,reason",
        [
            ("a\tb\t0.5\nb\t#c\t0.5\n", 2, "b\t#c\t0.5", "id starts with '#'"),
            # a CR ends a line, so the piece before it is a line of the wrong shape
            ("a\tb\t0.5\n\nc\rd\t-\t-\n", 3, "c", "expected 'source target weight' or 'node - -'"),
            ("a\tb\t0.5\nb\tc\rd\t0.25\n", 2, "b\tc", "expected 'source target weight' or 'node - -'"),
            # a rejected id ahead of a repeated arc is the fault reported
            ("a\t#b\t0.5\na\t#b\t0.5\n", 1, "a\t#b\t0.5", "id starts with '#'"),
        ],
    )
    def test_id_the_graph_rejects_reports_its_line(self, text, line_no, line, reason):
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(io.StringIO(text, newline="\n"))  # a stream that keeps each CR
        assert (info.value.line_no, info.value.line, info.value.reason) == (line_no, line, reason)

    # a "#"-led target is a line rule: it is reported where its line is read,
    # ahead of a repeat found only once the whole file is read, and ahead of
    # a later malformed line
    @pytest.mark.parametrize(
        "text,line_no,line",
        [
            ("a\tb\t0.5\na\tb\t0.5\nc\t#d\t0.5\n", 3, "c\t#d\t0.5"),
            ("a\t#b\t0.5\nc\td\tzero\n", 1, "a\t#b\t0.5"),
        ],
    )
    def test_a_hash_target_is_reported_where_its_line_is_read(self, text, line_no, line):
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(text)
        assert (info.value.line_no, info.value.line) == (line_no, line)
        assert info.value.reason == "id starts with '#'"

    # ids longer than the reader's key prefix, told apart by their text: the
    # expected lines and reasons are those the string-interning reader gave
    @pytest.mark.parametrize(
        "text,line_no,line,reason",
        [
            (f"c\td\t0.5\n{LONG}x\t{LONG}x\t0.5\n", 2, f"{LONG}x\t{LONG}x\t0.5", "self-arc"),
            # ends that first differ after byte 16 are no self-arc; line 3 is one
            (
                f"c\td\t0.5\n{LONG}x\t{LONG}y\t0.5\n{LONG}y\t{LONG}y\t0.5\n",
                3, f"{LONG}y\t{LONG}y\t0.5", "self-arc",
            ),
            (
                f"{LONG}x\t{LONG}y\t0.5\n{LONG}y\t{LONG}x\t0.5\n{LONG}x\t{LONG}y\t0.25\n",
                3, f"{LONG}x\t{LONG}y\t0.25", "duplicate arc",
            ),
            (f"a\tb\t0.5\nb\t#{LONG}\t0.5\n", 2, f"b\t#{LONG}\t0.5", "id starts with '#'"),
        ],
    )
    def test_long_ids_report_the_line_they_did_before(self, text, line_no, line, reason):
        with pytest.raises(UnparsableLine) as info:
            graph_from_tsv(text)
        assert (info.value.line_no, info.value.line, info.value.reason) == (line_no, line, reason)

    def test_an_id_reads_the_same_in_blocks_of_any_key_width(self):
        # one line a block: "a" is read with 8-byte keys, then with 16-byte keys
        text = f"a\tb\t0.5\nb\t{LONG[:9]}\t0.5\n{LONG[:9]}\ta\t0.5\n"
        with patch.object(ingest, "_BLOCK", 1):
            g = graph_from_tsv(text)
        assert g == graph_from_tsv(text)
        assert g.node_ids == (LONG[:9], "a", "b")

    def test_a_trailing_nul_makes_another_id(self):
        g = graph_from_tsv("a\tb\t0.5\na\x00\tb\t0.5\n")
        assert g.node_ids == ("a", "a\x00", "b")
        assert g.num_arcs == 2


@pytest.mark.parametrize("bad", ["#x", "a\tb", "a\rb", "a\nb", "b\n#c", ""])
def test_constructors_reject_ids_that_would_not_read_back(bad):
    for make in (
        lambda ids: graph_from_arcs([], nodes=ids),
        lambda ids: ScoreVector(sorted(ids), np.zeros(len(ids)), "m"),
        lambda ids: ScorePair(sorted(ids), np.zeros(len(ids)), np.zeros(len(ids)), 1),
    ):
        with pytest.raises(ValueError):
            make(["a", bad])
        assert make(["a", "b#c", "d e"]).node_ids == ("a", "b#c", "d e")


@pytest.mark.parametrize("ids", [("b", "a"), ("a", "a"), ("#x", "a"), ("a", "a\tb"), ("", "a")])
def test_a_plain_tuple_is_checked_in_full(ids):
    with pytest.raises(ValueError):
        ScoreVector(ids, np.zeros(2), "m")
    with pytest.raises(ValueError):
        ScorePair(ids, np.zeros(2), np.zeros(2), 1)


def test_a_checked_id_table_is_shared_not_checked_again():
    g = graph_from_tsv("a\tb\t0.5\nc\t-\t-\n")
    pair = ScorePair(g.node_ids, np.ones(3), np.ones(3), 1)
    vector = ScoreVector(pair.node_ids, pair.influence, "m")
    assert pair.node_ids is g.node_ids and vector.node_ids is g.node_ids
    assert g.node_ids == ("a", "b", "c")
