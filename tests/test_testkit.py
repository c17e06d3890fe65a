"""Trace generator determinism and oracle sanity."""

import numpy as np
import pytest

from iprank.analytics import rate_report
from iprank.baselines import h_index_scores
from iprank.errors import EmptyGraph, InvalidParams, TooLarge
from iprank.graphs import InfluenceGraph, build_retweet
from iprank.ingest import events_to_tsv, follows_to_tsv
from iprank.ipcore import run_ip
from iprank.testkit import (
    PLANTED_A,
    PLANTED_B,
    SynthParams,
    audience_retweeting_rate,
    by_id,
    dense_ip_oracle,
    dense_pagerank_oracle,
    h_index,
    planted_contrast_trace,
    random_graph,
    synth_trace,
    user_retweeting_rate,
)

PARAMS = SynthParams(
    users=30,
    broadcasters=6,
    follow_prob=0.3,
    mention_rate=4.0,
    retweet_prob=0.4,
    url_pool=20,
    seed=1,
)


class TestSynthTrace:
    def test_same_seed_identical(self):
        log1, follows1 = synth_trace(PARAMS)
        log2, follows2 = synth_trace(PARAMS)
        assert log1 == log2 and follows1 == follows2
        assert events_to_tsv(log1) == events_to_tsv(log2)
        assert follows_to_tsv(follows1) == follows_to_tsv(follows2)

    def test_different_seed_differs(self):
        other = SynthParams(
            users=30,
            broadcasters=6,
            follow_prob=0.3,
            mention_rate=4.0,
            retweet_prob=0.4,
            url_pool=20,
            seed=2,
        )
        assert synth_trace(PARAMS)[0] != synth_trace(other)[0]

    def test_zero_retweet_probability(self):
        p = SynthParams(
            users=20,
            broadcasters=5,
            follow_prob=0.5,
            mention_rate=3.0,
            retweet_prob=0.0,
            url_pool=10,
            seed=3,
        )
        log, _ = synth_trace(p)
        assert all(not ev.is_retweet for ev in log)

    def test_outputs_satisfy_ingest_invariants(self):
        log, follows = synth_trace(PARAMS)
        times = [ev.time for ev in log]
        assert times == sorted(times)
        assert all(ev.source != ev.user for ev in log)
        assert all(a != b for a, b in follows.edges)
        # retweets always credit a URL the source actually posted, later in time
        posted_at = {}
        for ev in log:
            if not ev.is_retweet:
                posted_at.setdefault((ev.user, ev.url), ev.time)
        for ev in log:
            if ev.is_retweet:
                assert posted_at[(ev.source, ev.url)] < ev.time

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            SynthParams(0, 0, 0.5, 1.0, 0.5, 5, 1)
        with pytest.raises(InvalidParams):
            SynthParams(5, 9, 0.5, 1.0, 0.5, 5, 1)
        with pytest.raises(InvalidParams):
            SynthParams(5, 2, 1.5, 1.0, 0.5, 5, 1)


class TestPlantedContrast:
    def test_dedicated_audience_wins(self):
        log, follows = planted_contrast_trace(audience_size=4)
        g = build_retweet(log, min_urls=3)
        a, b = g.index_of(PLANTED_A), g.index_of(PLANTED_B)
        oracle = dense_ip_oracle(g, 30)
        assert oracle.influence[a] > oracle.influence[b]
        pair, _ = run_ip(g)
        assert pair.influence[a] > pair.influence[b]

    def test_audiences_have_equal_size(self):
        _, follows = planted_contrast_trace(audience_size=6)
        assert len(follows.followers_of(PLANTED_A)) == len(
            follows.followers_of(PLANTED_B)
        )


class TestRandomGraph:
    def test_deterministic_and_valid(self):
        g1 = random_graph(40, 150, seed=5)
        g2 = random_graph(40, 150, seed=5)
        assert g1 == g2
        assert g1.num_nodes == 40 and g1.num_arcs == 150
        assert np.all(g1.weights > 0) and np.all(g1.weights < 1)
        assert np.all(g1.src != g1.dst)

    def test_param_validation(self):
        with pytest.raises(InvalidParams):
            random_graph(1, 1, seed=0)
        with pytest.raises(InvalidParams):
            random_graph(3, 7, seed=0)  # more arcs than 3*2


class TestDenseOracles:
    def test_ip_oracle_single_arc(self):
        g = InfluenceGraph.from_arcs([("A", "B", 0.5)])
        pair = dense_ip_oracle(g, 5)
        assert pair.node_ids == ("A", "B")
        assert pair.influence.tolist() == [1.0, 0.0]
        assert pair.passivity.tolist() == [0.0, 1.0]

    def test_ip_oracle_symmetric_pair(self):
        g = InfluenceGraph.from_arcs([("A", "B", 0.5), ("B", "A", 0.5)])
        pair = dense_ip_oracle(g, 10)
        assert pair.node_ids == ("A", "B")
        assert pair.influence[0] == pytest.approx(0.5, abs=1e-12)
        assert pair.passivity[1] == pytest.approx(0.5, abs=1e-12)

    def test_ip_oracle_limits(self):
        with pytest.raises(TooLarge):
            dense_ip_oracle(random_graph(201, 300, seed=1), 3)
        with pytest.raises(EmptyGraph):
            dense_ip_oracle(InfluenceGraph.from_arcs([], nodes=["a", "b"]), 3)

    def test_pagerank_oracle_symmetric_pair(self):
        g = InfluenceGraph.from_arcs([("A", "B", 0.3), ("B", "A", 0.3)])
        pr = dense_pagerank_oracle(g)
        assert by_id(pr)["A"] == pytest.approx(0.5, abs=1e-12)

    def test_pagerank_oracle_single_node(self):
        g = InfluenceGraph.from_arcs([], nodes=["only"])
        assert by_id(dense_pagerank_oracle(g)) == {"only": 1.0}


class TestEventOracles:
    def test_rates_and_h_index_match_oracles_exactly(self):
        for seed in (1, 2, 3):
            log, follows = synth_trace(
                SynthParams(
                    users=300,
                    broadcasters=15,
                    follow_prob=0.2,
                    mention_rate=5.0,
                    retweet_prob=0.2,
                    url_pool=200,
                    seed=seed,
                )
            )
            report = rate_report(log, follows)
            expected_user = {}
            expected_audience = {}
            for user in sorted(log.users | follows.users()):
                rate = user_retweeting_rate(log, follows, user)
                if rate is not None:
                    expected_user[user] = rate
                rate = audience_retweeting_rate(log, follows, user)
                if rate is not None:
                    expected_audience[user] = rate
            assert expected_user and expected_audience
            assert report.user_rates == expected_user
            assert report.audience_rates == expected_audience
            scores = h_index_scores(log)
            assert by_id(scores) == {u: float(h_index(log, u)) for u in log.users}
            assert max(by_id(scores).values()) >= 2.0
