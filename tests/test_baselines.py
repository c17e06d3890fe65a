"""Inverted-graph PageRank, the H-index analog, and count baselines."""

import numpy as np
import pytest

from iprank.baselines import (
    PageRankParams,
    ScoreVector,
    follower_count,
    h_from_counts,
    h_index_scores,
    invert_graph,
    retweet_count,
    vector_to_tsv,
    weighted_pagerank,
)
from iprank.cli import read_score_columns
from iprank.errors import EmptyNodeSet, InvalidParams
from iprank.graphs import InfluenceGraph
from iprank.ingest import ActivityLog, FollowEdgeList, TweetEvent, url_counts
from iprank.testkit import by_id, dense_pagerank_oracle, h_index, random_graph


def vector_from_tsv(text, tmp_path):
    """The one vector in score-file text, read back through the CLI's reader."""
    path = tmp_path / "scores.tsv"
    path.write_text(text, encoding="utf-8")
    label, columns = read_score_columns(str(path))
    return columns[label]


class TestInvertGraph:
    def test_single_arc(self):
        g = InfluenceGraph.from_arcs([("a", "b", 0.3)])
        inv = invert_graph(g)
        assert inv.weight("b", "a") == 0.3
        assert not inv.has_arc("a", "b")

    def test_involution(self):
        g = random_graph(20, 60, seed=2)
        assert invert_graph(invert_graph(g)) == g

    def test_matches_naive_reversal(self):
        g = random_graph(50, 200, seed=4)
        inv = invert_graph(g)
        naive = sorted((j, i, w) for i, j, w in g.arcs())
        assert sorted(inv.arcs()) == naive


class TestWeightedPagerank:
    def test_symmetric_pair_uniform(self):
        g = InfluenceGraph.from_arcs([("a", "b", 0.4), ("b", "a", 0.4)])
        pr = weighted_pagerank(g)
        assert by_id(pr)["a"] == pytest.approx(0.5, abs=1e-12)
        assert by_id(pr)["b"] == pytest.approx(0.5, abs=1e-12)

    def test_single_isolated_node(self):
        g = InfluenceGraph.from_arcs([], nodes=["solo"])
        pr = weighted_pagerank(g)
        assert by_id(pr) == {"solo": 1.0}

    def test_empty_node_set(self):
        with pytest.raises(EmptyNodeSet):
            weighted_pagerank(InfluenceGraph.from_arcs([]))

    def test_dangling_fixture_matches_dense_oracle(self):
        g = InfluenceGraph.from_arcs([("a", "b", 0.5), ("a", "c", 0.25)])
        # b and c are dangling
        pr = weighted_pagerank(g)
        oracle = dense_pagerank_oracle(g)
        for node in g.node_ids:
            assert abs(by_id(pr)[node] - by_id(oracle)[node]) <= 1e-10

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_random_graphs_match_dense_oracle(self, seed):
        g = random_graph(30, 100, seed=seed)
        pr = weighted_pagerank(g)
        oracle = dense_pagerank_oracle(g)
        for node in g.node_ids:
            assert abs(by_id(pr)[node] - by_id(oracle)[node]) <= 1e-10

    def test_sum_and_floor_invariants(self):
        g = random_graph(200, 800, seed=8)
        params = PageRankParams()
        pr = weighted_pagerank(g, params)
        total = sum(by_id(pr).values())
        assert abs(total - 1.0) <= 1e-12
        floor = (1.0 - params.damping) / g.num_nodes - 1e-15
        assert all(v >= floor for v in by_id(pr).values())

    def test_symmetric_ring_uniform(self):
        n = 12
        arcs = []
        for k in range(n):
            arcs.append((f"n{k:02d}", f"n{(k + 1) % n:02d}", 0.5))
            arcs.append((f"n{(k + 1) % n:02d}", f"n{k:02d}", 0.5))
        pr = weighted_pagerank(InfluenceGraph.from_arcs(arcs))
        for v in by_id(pr).values():
            assert v == pytest.approx(1.0 / n, abs=1e-12)

    def test_params_validation(self):
        with pytest.raises(InvalidParams):
            PageRankParams(damping=1.0)
        with pytest.raises(InvalidParams):
            PageRankParams(damping=0.0)
        with pytest.raises(InvalidParams):
            PageRankParams(max_iterations=0)


def brute_force_h(counts):
    best = 0
    values = list(counts)
    for h in range(len(values) + 1):
        if sum(1 for c in values if c >= h) >= h:
            best = max(best, h)
    return best


class TestHIndex:
    @pytest.mark.parametrize(
        "counts,expected",
        [([5, 3, 3, 1], 3), ([], 0), ([1, 1, 1], 1), ([10], 1), ([0, 0], 0)],
    )
    def test_known_values(self, counts, expected):
        assert h_from_counts(counts) == expected
        assert brute_force_h(counts) == expected

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            size = int(rng.integers(0, 40))
            counts = [int(c) for c in rng.integers(0, 30, size=size)]
            assert h_from_counts(counts) == brute_force_h(counts)

    def trace(self):
        events = [
            TweetEvent(1, "w", "a"),
            TweetEvent(2, "w", "b"),
            TweetEvent(3, "w", "c"),
        ]
        t = 10
        for url, times in (("a", 5), ("b", 3), ("c", 1)):
            for k in range(times):
                events.append(TweetEvent(t, f"r{t}", url, source="w"))
                t += 1
        return ActivityLog(events)

    def test_h_index_from_log(self):
        # per-URL retweet event counts are [5, 3, 1] -> h = 2
        assert h_index(self.trace(), "w") == 2

    def test_h_index_bounded_by_distinct_posts(self):
        log = self.trace()
        assert h_index(log, "w") <= url_counts(log)["w"]

    def test_repeat_retweets_count_as_events(self):
        # each URL retweeted twice by one retweeter: counts [2, 2] -> h = 2
        events = [TweetEvent(1, "w", "a"), TweetEvent(2, "w", "b")]
        for t, (user, url) in enumerate([("r1", "a"), ("r1", "a"), ("r2", "b"), ("r2", "b")]):
            events.append(TweetEvent(10 + t, user, url, source="w"))
        log = ActivityLog(events)
        assert h_index(log, "w") == 2
        assert by_id(h_index_scores(log)) == {"w": 2.0, "r1": 0.0, "r2": 0.0}

    def test_unretweeted_user(self):
        assert h_index(self.trace(), "r10") == 0

    def test_scores_cover_all_log_users(self):
        scores = h_index_scores(self.trace())
        assert scores.label == "hindex"
        assert by_id(scores)["w"] == 2.0
        assert set(by_id(scores)) == set(self.trace().by_user)


class TestCounts:
    def test_follower_count(self):
        follows = FollowEdgeList([("a", "b"), ("a", "c"), ("a", "d"), ("b", "a")])
        fc = follower_count(follows)
        assert by_id(fc)["a"] == 3.0
        assert by_id(fc)["b"] == 1.0
        assert by_id(fc)["c"] == 0.0  # appears only as a follower

    def test_retweet_count(self):
        log = ActivityLog(
            [
                TweetEvent(1, "x", "a"),
                TweetEvent(2, "y", "a", source="x"),
                TweetEvent(3, "z", "a", source="x"),
                TweetEvent(4, "y", "b"),
            ]
        )
        rc = retweet_count(log)
        assert by_id(rc)["x"] == 2.0
        assert by_id(rc)["y"] == 0.0

    def test_counts_match_naive_recount(self):
        rng = np.random.default_rng(11)
        events = []
        users = [f"u{i}" for i in range(12)]
        for t in range(300):
            author = users[int(rng.integers(0, 12))]
            url = f"l{int(rng.integers(0, 20))}"
            events.append(TweetEvent(t, author, url))
        log = ActivityLog(events)
        # add retweets of existing posts
        extra = []
        for t, ev in enumerate(log.events[:100], start=1000):
            retweeter = users[int(rng.integers(0, 12))]
            if retweeter != ev.user:
                extra.append(TweetEvent(t, retweeter, ev.url, source=ev.user))
        full = ActivityLog(list(log.events) + extra)
        rc = retweet_count(full)
        naive = {}
        for ev in full:
            if ev.source is not None:
                naive[ev.source] = naive.get(ev.source, 0) + 1
        for user, count in naive.items():
            assert by_id(rc)[user] == float(count)


class TestVectorSerialization:
    def test_round_trip(self, tmp_path):
        fc = follower_count(FollowEdgeList([("a", "b"), ("c", "b")]))
        text = vector_to_tsv(fc)
        assert text.startswith("#measure=followers\n")
        back = vector_from_tsv(text, tmp_path)
        assert back.label == "followers"
        assert by_id(back) == by_id(fc)

    def test_float_precision_survives(self, tmp_path):
        v = ScoreVector.from_mapping({"a": 1.0 / 3.0, "b": 0.07}, label="x")
        back = vector_from_tsv(vector_to_tsv(v), tmp_path)
        assert by_id(back) == by_id(v)


class TestScoreVector:
    def test_from_mapping_sorts_ids(self):
        v = ScoreVector.from_mapping({"b": 2.0, "a": 1.0, "c": -0.0}, "m")
        assert v.node_ids == ("a", "b", "c")
        assert v.values.tolist() == [1.0, 2.0, -0.0]
        assert v == ScoreVector(["a", "b", "c"], np.array([1.0, 2.0, 0.0]), "m")
        assert v != ScoreVector(["a", "b", "c"], [1.0, 2.0, 0.0], "other")

    @pytest.mark.parametrize("ids", [("b", "a"), ("a", "a")])
    def test_ids_must_be_strictly_ascending(self, ids):
        with pytest.raises(ValueError):
            ScoreVector(ids, [1.0, 2.0], "m")

    def test_rejects_nan_and_misaligned_values(self):
        with pytest.raises(ValueError):
            ScoreVector.from_mapping({"a": float("nan")}, "m")
        with pytest.raises(ValueError):
            ScoreVector(("a", "b"), [1.0], "m")
        assert ScoreVector(("a",), [float("inf")], "m").values[0] == float("inf")
