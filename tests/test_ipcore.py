"""Rate definitions, the score iteration, and the convergence trace."""

import numpy as np
import pytest

from iprank.errors import DegenerateGraph, EmptyGraph, InvalidParams
from iprank.graphs import InfluenceGraph
from iprank.ipcore import (
    IpParams,
    ScorePair,
    _rate_arrays,
    run_ip,
    scores_to_tsv,
    trace_to_tsv,
)
from iprank.testkit import dense_ip_oracle, random_graph


class Rates:
    """The rates of :func:`_rate_arrays`, keyed by arc (source, target)."""

    def __init__(self, g):
        arcs = [(i, j) for i, j, _ in g.arcs()]
        u, v = _rate_arrays(g)
        self.acceptance = dict(zip(arcs, u.tolist()))
        self.rejection = dict(zip(arcs, v.tolist()))


def sides(pair):
    """Influence and passivity of a score pair as id -> value dicts."""
    return (
        dict(zip(pair.node_ids, pair.influence.tolist())),
        dict(zip(pair.node_ids, pair.passivity.tolist())),
    )


class TestComputeRates:
    def test_acceptance_normalizes_in_weights(self):
        g = InfluenceGraph.from_arcs([("i", "j", 0.2), ("k", "j", 0.6)])
        rates = Rates(g)
        assert rates.acceptance[("i", "j")] == pytest.approx(0.25)
        assert rates.acceptance[("k", "j")] == pytest.approx(0.75)

    def test_rejection_normalizes_out_rejections(self):
        g = InfluenceGraph.from_arcs([("j", "i", 0.2), ("j", "k", 0.6)])
        rates = Rates(g)
        assert rates.rejection[("j", "i")] == pytest.approx(0.8 / 1.2)
        assert rates.rejection[("j", "k")] == pytest.approx(0.4 / 1.2)

    def test_zero_rejection_denominator(self):
        g = InfluenceGraph.from_arcs([("j", "i", 1.0)])
        rates = Rates(g)
        assert rates.rejection[("j", "i")] == 0.0
        assert rates.acceptance[("j", "i")] == 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rate_invariants_on_random_graphs(self, seed):
        g = random_graph(25, 90, seed=seed)
        rates = Rates(g)
        in_sums = {}
        for (i, j), u in rates.acceptance.items():
            assert 0.0 <= u <= 1.0
            in_sums[j] = in_sums.get(j, 0.0) + u
        assert all(abs(s - 1.0) <= 1e-12 for s in in_sums.values())
        out_sums = {}
        for (i, j), v in rates.rejection.items():
            assert 0.0 <= v <= 1.0
            out_sums[i] = out_sums.get(i, 0.0) + v
        for s in out_sums.values():
            assert abs(s - 1.0) <= 1e-12 or s == 0.0


class TestRunIp:
    def test_single_arc_fixture(self):
        g = InfluenceGraph.from_arcs([("A", "B", 0.5)])
        pair, trace = run_ip(g)
        influence, passivity = sides(pair)
        assert influence == {"A": 1.0, "B": 0.0}
        assert passivity == {"A": 0.0, "B": 1.0}
        # fixed point reached at iteration 1; the loop needs one more to see it
        assert pair.iterations_run == 2
        assert trace.deltas[-1] == 0.0

    def test_symmetric_pair_uniform(self):
        g = InfluenceGraph.from_arcs([("A", "B", 0.5), ("B", "A", 0.5)])
        pair, _ = run_ip(g)
        for side in sides(pair):
            assert side["A"] == pytest.approx(0.5, abs=1e-12)
            assert side["B"] == pytest.approx(0.5, abs=1e-12)

    def test_three_cycle_uniform(self):
        g = InfluenceGraph.from_arcs(
            [("a", "b", 0.4), ("b", "c", 0.4), ("c", "a", 0.4)]
        )
        pair, _ = run_ip(g)
        for side in sides(pair):
            for node in "abc":
                assert side[node] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_graph(self):
        with pytest.raises(EmptyGraph):
            run_ip(InfluenceGraph.from_arcs([], nodes=["a", "b"]))

    def test_degenerate_all_unit_weights(self):
        g = InfluenceGraph.from_arcs([("a", "b", 1.0), ("a", "c", 1.0)])
        with pytest.raises(DegenerateGraph):
            run_ip(g)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_normalization_every_iteration(self, seed):
        g = random_graph(60, 240, seed=seed)
        _, trace = run_ip(g)
        assert all(abs(s - 1.0) <= 1e-12 for s in trace.influence_sums)
        assert all(abs(s - 1.0) <= 1e-12 for s in trace.passivity_sums)

    def test_sources_and_sinks_forced_to_zero(self):
        g = random_graph(40, 80, seed=9)
        influence, passivity = sides(run_ip(g)[0])
        out_nodes = {g.node_ids[s] for s in g.src}
        in_nodes = {g.node_ids[d] for d in g.dst}
        for node in g.node_ids:
            if node not in out_nodes:
                assert influence[node] == 0.0
            if node not in in_nodes:
                assert passivity[node] == 0.0

    def test_bit_identical_reruns(self):
        g = random_graph(80, 400, seed=12)
        p1, t1 = run_ip(g)
        p2, t2 = run_ip(g)
        assert p1 == p2 and t1 == t2

    def test_equivariance_under_relabeling(self):
        g = random_graph(20, 70, seed=14)
        # reverse the lexicographic order of the ids entirely
        mapping = {uid: f"z{99 - int(uid[1:]):02d}" for uid in g.node_ids}
        relabeled = InfluenceGraph.from_arcs(
            [(mapping[i], mapping[j], w) for i, j, w in g.arcs()],
            nodes=[mapping[u] for u in g.node_ids],
        )
        influence, passivity = sides(run_ip(g)[0])
        influence2, passivity2 = sides(run_ip(relabeled)[0])
        for u in g.node_ids:
            assert influence2[mapping[u]] == pytest.approx(influence[u], abs=1e-12)
            assert passivity2[mapping[u]] == pytest.approx(passivity[u], abs=1e-12)

    def test_matches_dense_oracle(self):
        for seed in (21, 22):
            g = random_graph(30, 140, seed=seed)
            for iterations in (1, 3, 10):
                pair, _ = run_ip(g, IpParams(max_iterations=iterations, epsilon=0.0))
                oracle = dense_ip_oracle(g, iterations)
                assert pair.node_ids == oracle.node_ids == g.node_ids
                for k in range(g.num_nodes):
                    assert abs(pair.influence[k] - oracle.influence[k]) <= 1e-12
                    assert abs(pair.passivity[k] - oracle.passivity[k]) <= 1e-12

    def test_nonconvergence_is_reported_not_raised(self):
        g = random_graph(50, 200, seed=33)
        pair, trace = run_ip(g, IpParams(max_iterations=2, epsilon=1e-30))
        assert pair.iterations_run == 2
        assert not trace.converged(1e-30)

    def test_params_validation(self):
        with pytest.raises(InvalidParams):
            IpParams(max_iterations=0)
        with pytest.raises(InvalidParams):
            IpParams(epsilon=-1.0)


class TestScorePair:
    def test_arrays_aligned_with_sorted_ids(self):
        pair = ScorePair(["a", "b"], [0.25, 0.75], (1, 0), 3)
        assert pair.node_ids == ("a", "b")
        assert pair.influence.dtype == np.float64 and pair.passivity.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("ids", [("b", "a"), ("a", "a")])
    def test_ids_must_be_strictly_ascending(self, ids):
        with pytest.raises(ValueError):
            ScorePair(ids, [0.5, 0.5], [0.5, 0.5], 1)

    def test_rejects_nan_and_misaligned_scores(self):
        with pytest.raises(ValueError):
            ScorePair(("a", "b"), [0.5, float("nan")], [0.5, 0.5], 1)
        with pytest.raises(ValueError):
            ScorePair(("a", "b"), [1.0], [0.5, 0.5], 1)

    def test_equality_compares_values(self):
        pair = ScorePair(("a", "b"), [0.5, 0.5], [1.0, 0.0], 1)
        assert pair == ScorePair(("a", "b"), np.array([0.5, 0.5]), [1.0, 0.0], 1)
        assert pair != ScorePair(("a", "b"), [0.5, 0.5], [0.0, 1.0], 1)
        assert pair != ScorePair(("a", "b"), [0.5, 0.5], [1.0, 0.0], 2)


class TestSerialization:
    def test_scores_format(self):
        pair = ScorePair(("a", "b"), [1.0 / 3.0, 2.0 / 3.0], [1.0, 0.0], 4)
        text = scores_to_tsv(pair)
        lines = text.strip().split("\n")
        assert lines[0] == "a\t0.33333333333333331\t1"
        assert lines[1].startswith("b\t0.66666666666666663\t0")

    def test_trace_format(self):
        g = InfluenceGraph.from_arcs([("A", "B", 0.5)])
        _, trace = run_ip(g)
        lines = trace_to_tsv(trace).strip().split("\n")
        assert lines[0].startswith("1\t")
        assert len(lines) == len(trace.deltas)
