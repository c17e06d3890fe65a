"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Independent brute-force oracles live in this file and share no code
with the implementations they check.
"""

import contextlib
import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np

from iprank import graphs
from iprank.analytics import percentile_curve, rank_correlation
from iprank.baselines import weighted_pagerank
from iprank.cli import main
from iprank.graphs import (
    build_comention,
    build_retweet,
    build_retweet_follower,
)
from iprank.ingest import (
    ClickTable, TweetEvent, clicks_to_tsv, events_to_tsv, follows_to_tsv,
)
from iprank.ipcore import IpParams, run_ip
from iprank.testkit import SynthParams, random_graph, synth_trace
from oracles import (
    PLANTED_A, PLANTED_B, arc_weights, arcs_of, dense_ip_oracle, dense_pagerank_oracle, edges,
    follows_of, graph_from_arcs, h_from_counts, log_of, planted_contrast_trace, point_columns,
    vector_from_mapping,
)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def test_criterion_01_normalization_invariant():
    with criterion(1, "normalization invariant"):
        start = time.perf_counter()
        sizes = np.linspace(5, 1000, 100).astype(int)
        for k, n in enumerate(sizes):
            arcs = min(4 * int(n), int(n) * (int(n) - 1))
            g = random_graph(int(n), arcs, seed=1000 + k)
            pair, _ = run_ip(g)
            assert abs(pair.influence.sum() - 1.0) <= 1e-12
            assert abs(pair.passivity.sum() - 1.0) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_oracle_equivalence():
    with criterion(2, "oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for k in range(100):
            n = int(rng.integers(5, 51))
            max_arcs = n * (n - 1)
            arcs = int(max(1, min(max_arcs, round(0.2 * max_arcs))))
            g = random_graph(n, arcs, seed=2000 + k)
            for iterations in range(1, 21):
                pair, _ = run_ip(g, IpParams(max_iterations=iterations, epsilon=0.0))
                oracle = dense_ip_oracle(g, iterations)
                for u in range(g.num_nodes):
                    assert abs(pair.influence[u] - oracle.influence[u]) <= 1e-12
                    assert abs(pair.passivity[u] - oracle.passivity[u]) <= 1e-12
            sparse_pr, _ = weighted_pagerank(g)
            # the oracle walks arcs forward; PageRank walks them toward influencers
            reversed_g = graph_from_arcs(
                ((j, i, w) for i, j, w in arcs_of(g)), nodes=g.node_ids
            )
            dense_pr = dense_pagerank_oracle(reversed_g)
            for u in range(g.num_nodes):
                assert abs(sparse_pr.values[u] - dense_pr.values[u]) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_exact_fixtures():
    with criterion(3, "exact fixtures"):
        pair, _ = run_ip(graph_from_arcs([("A", "B", 0.5)]))
        at = pair.node_ids.index
        assert abs(pair.influence[at("A")] - 1.0) <= 1e-12
        assert abs(pair.influence[at("B")]) <= 1e-12
        assert abs(pair.passivity[at("A")]) <= 1e-12
        assert abs(pair.passivity[at("B")] - 1.0) <= 1e-12

        pair, _ = run_ip(
            graph_from_arcs([("A", "B", 0.5), ("B", "A", 0.5)])
        )
        at = pair.node_ids.index
        for node in "AB":
            assert abs(pair.influence[at(node)] - 0.5) <= 1e-12
            assert abs(pair.passivity[at(node)] - 0.5) <= 1e-12

        pair, _ = run_ip(
            graph_from_arcs(
                [("a", "b", 0.7), ("b", "c", 0.7), ("c", "a", 0.7)]
            )
        )
        at = pair.node_ids.index
        for node in "abc":
            assert abs(pair.influence[at(node)] - 1.0 / 3.0) <= 1e-12
            assert abs(pair.passivity[at(node)] - 1.0 / 3.0) <= 1e-12


def test_criterion_04_convergence():
    with criterion(4, "convergence within 100 iterations"):
        start = time.perf_counter()
        g = random_graph(1000, 4000, seed=1)
        _, trace = run_ip(g, IpParams(max_iterations=100, epsilon=1e-9))
        deltas = trace.deltas
        assert deltas[-1] < 1e-9, f"last delta {deltas[-1]:.3g}"
        assert len(deltas) <= 100
        assert all(deltas[i] < deltas[i - 1] for i in range(3, len(deltas)))
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


# --- criterion 5: brute-force pair-counting oracles -------------------------


def _posted(log):
    posted = {}
    for ev in log:
        posted.setdefault(ev.user, set()).add(ev.url)
    return posted


def brute_force_retweet(log, min_urls):
    posted = _posted(log)
    eligible = {u for u, urls in posted.items() if len(urls) >= min_urls}
    by_user = {}
    for ev in log:
        by_user.setdefault(ev.user, []).append(ev)
    arcs = {}
    for i in eligible:
        for j in eligible:
            if i == j:
                continue
            s_urls = {
                ev.url
                for ev in by_user.get(j, [])
                if ev.source == i and ev.url in posted[i]
            }
            if s_urls:
                arcs[(i, j)] = len(s_urls) / len(posted[i])
    return arcs, eligible


def brute_force_comention(log, follows, min_urls):
    posted = _posted(log)
    eligible = {u for u, urls in posted.items() if len(urls) >= min_urls}
    by_user = {}
    for ev in log:
        by_user.setdefault(ev.user, []).append(ev)
    arcs = {}
    for i, j in edges(follows):
        if i not in eligible or j not in eligible:
            continue
        s = 0
        f = 0
        for url in posted[i]:
            first_i = min(ev.time for ev in by_user[i] if ev.url == url)
            j_times = [ev.time for ev in by_user.get(j, []) if ev.url == url]
            if not j_times:
                f += 1
            elif any(t > first_i for t in j_times):
                s += 1
        if s >= 1:
            arcs[(i, j)] = s / (f + s)
    return arcs, eligible


CRITERION_05_TRACES = (
    SynthParams(
        users=60, broadcasters=12, follow_prob=0.15, mention_rate=6.0,
        retweet_prob=0.3, url_pool=40, seed=71,
    ),
    SynthParams(
        users=200, broadcasters=20, follow_prob=0.05, mention_rate=4.0,
        retweet_prob=0.25, url_pool=120, seed=72,
    ),
)


def test_criterion_05_graph_builders_match_brute_force():
    with criterion(5, "graph builders match brute-force oracles"):
        for params in CRITERION_05_TRACES:
            log, follows = synth_trace(params)
            for min_urls in (1, 3):
                rt = build_retweet(log, min_urls)
                rt_arcs = {(i, j): w for i, j, w in arcs_of(rt)}
                oracle_arcs, eligible = brute_force_retweet(log, min_urls)
                assert rt_arcs == oracle_arcs
                assert set(rt.node_ids) == eligible

                cm = build_comention(log, follows, min_urls)
                cm_arcs = {(i, j): w for i, j, w in arcs_of(cm)}
                oracle_cm, _ = brute_force_comention(log, follows, min_urls)
                assert cm_arcs == oracle_cm

                rtf = build_retweet_follower(log, follows, min_urls)
                rtf_arcs = {(i, j): w for i, j, w in arcs_of(rtf)}
                follow_pairs = edges(follows)
                expected = {
                    arc: w for arc, w in oracle_arcs.items() if arc in follow_pairs
                }
                assert rtf_arcs == expected
                assert set(rtf_arcs) <= set(rt_arcs)


def test_comention_graph_does_not_depend_on_its_run_size(monkeypatch):
    """The co-mention builder works through follow edges in runs of whole
    edges; runs of one edge, of a few edges and of the default size build one
    graph, that of the oracle. "big" posts more URLs than a run of 3 rows
    holds; in "idle" no follow edge joins two posters."""
    default = graphs._RUN_ROWS
    big = [TweetEvent(time=t, user="big", url=f"l-{t}") for t in range(1, 6)]
    big += [
        TweetEvent(time=0, user="fan", url="l-1"),
        TweetEvent(time=7, user="fan", url="l-2"),
        TweetEvent(time=8, user="fan", url="l-4"),
        TweetEvent(time=9, user="other", url="l-5"),
        TweetEvent(time=9, user="other", url="l-9"),
    ]
    big_follows = follows_of([("big", "fan"), ("big", "other"), ("fan", "big")])
    idle = [TweetEvent(time=t, user=u, url="l-1") for t, u in enumerate(("a", "b", "c"))]
    idle_follows = follows_of([("a", "ghost"), ("ghost", "b"), ("c", "c2")])
    logs = [synth_trace(params) for params in CRITERION_05_TRACES]
    logs += [(log_of(big), big_follows), (log_of(idle), idle_follows)]
    for log, follows in logs:
        for min_urls in (1, 3):
            built = []
            for run_rows in (1, 3, default):
                monkeypatch.setattr(graphs, "_RUN_ROWS", run_rows)
                built.append(build_comention(log, follows, min_urls))
            assert built[0] == built[1] == built[2]
            oracle, _ = brute_force_comention(log, follows, min_urls)
            assert {(i, j): w for i, j, w in arcs_of(built[0])} == oracle
    expected = {("big", "fan"): 2 / 4, ("big", "other"): 1 / 5, ("fan", "big"): 1.0}
    assert arc_weights(build_comention(*logs[2], 1)) == expected
    assert build_comention(*logs[3], 1).num_arcs == 0


def test_criterion_06_planted_contrast():
    with criterion(6, "planted contrast ordering"):
        log, _ = planted_contrast_trace(audience_size=5)
        g = build_retweet(log, min_urls=3)
        a, b = g.node_ids.index(PLANTED_A), g.node_ids.index(PLANTED_B)
        oracle = dense_ip_oracle(g, 50)
        assert oracle.influence[a] > oracle.influence[b]
        pair, _ = run_ip(g)
        assert pair.influence[a] > pair.influence[b]


def test_criterion_07_h_index_brute_force():
    with criterion(7, "h-index matches brute force"):
        rng = np.random.default_rng(88)
        for _ in range(1000):
            size = int(rng.integers(0, 60))
            counts = [int(c) for c in rng.integers(0, 50, size=size)]
            best = 0
            for h in range(len(counts) + 1):
                if sum(1 for c in counts if c >= h) >= h:
                    best = max(best, h)
            assert h_from_counts(counts) == best


def test_criterion_08_analytics_exactness():
    with criterion(8, "analytics exactness"):
        rng = np.random.default_rng(99)
        # nearest-rank percentile vs sort-based oracle, exact
        points = [
            (float(10 ** rng.uniform(0, 3)), float(rng.integers(0, 5000)))
            for _ in range(1500)
        ]
        for q in (0.25, 0.5, 0.9, 0.999, 1.0):
            curve = percentile_curve(*point_columns(points), q=q, bin_count=7)
            xs = [x for x, _ in points]
            edges = np.logspace(math.log10(min(xs)), math.log10(max(xs)), 8)
            groups = {}
            for x, c in points:
                idx = min(max(int(np.searchsorted(edges, x, side="right")) - 1, 0), 6)
                groups.setdefault(idx, []).append(c)
            for (center, pct), idx in zip(curve.bins, sorted(groups)):
                ordered = sorted(groups[idx])
                k = int(Fraction(Decimal(str(q))) * len(ordered)) + 1
                assert pct == ordered[min(len(ordered), k) - 1]

        # spearman self-correlation and reversal, exact
        values = {f"u{i}": float(rng.random()) for i in range(60)}
        vec = vector_from_mapping(values, "a")
        assert rank_correlation(vec, vector_from_mapping(dict(values), "b")) == 1.0
        reverse = vector_from_mapping({u: -v for u, v in values.items()}, "r")
        assert rank_correlation(vec, reverse) == -1.0

        # scaling invariance, exact
        xs, clicks = point_columns(points)
        base = percentile_curve(xs, clicks, q=0.9, bin_count=7)
        scaled = percentile_curve(xs, [c * 5.0 for c in clicks], q=0.9, bin_count=7)
        for (c1, p1), (c2, p2) in zip(base.bins, scaled.bins):
            assert c1 == c2 and p2 == p1 * 5.0


def _run_pipeline(input_dir, out_dir, threads):
    base = [
        "--events", str(input_dir / "events.tsv"),
        "--follows", str(input_dir / "follows.tsv"),
        "--graph-type", "rt", "--min-urls", "1",
        "--threads", str(threads), "--out-dir", str(out_dir),
    ]
    assert main(["build", *base]) == 0
    assert main(["ip", *base]) == 0
    assert main(["pagerank", *base]) == 0
    assert main(["hindex", *base]) == 0
    assert main(["rates", *base]) == 0
    assert main([
        "curve", *base, "--clicks", str(input_dir / "clicks.tsv"),
        "--scores", str(out_dir / "ip_scores.tsv"), "--column", "influence",
        "--bin-count", "6",
    ]) == 0
    assert main([
        "rank", *base, "--scores", str(out_dir / "ip_scores.tsv"),
        "--column", "influence", "--top-k", "10", "--min-posted", "1",
    ]) == 0
    assert main([
        "compare", *base,
        "--scores-a", str(out_dir / "ip_scores.tsv"), "--column-a", "influence",
        "--scores-b", str(out_dir / "pagerank.tsv"),
    ]) == 0
    return sorted(p.name for p in out_dir.iterdir())


def test_criterion_09_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end determinism"):
        log, follows = synth_trace(
            SynthParams(
                users=40, broadcasters=8, follow_prob=0.3, mention_rate=5.0,
                retweet_prob=0.4, url_pool=25, seed=1,
            )
        )
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "events.tsv").write_text(events_to_tsv(log), encoding="utf-8")
        (inputs / "follows.tsv").write_text(follows_to_tsv(follows), encoding="utf-8")
        clicks = ClickTable({f"url{i:03d}": (i * 37) % 991 + 1 for i in range(25)})
        (inputs / "clicks.tsv").write_text(clicks_to_tsv(clicks), encoding="utf-8")

        runs = {}
        for name, threads in (("one", 1), ("two", 1), ("four", 4)):
            out = tmp_path / name
            files = _run_pipeline(inputs, out, threads)
            runs[name] = {f: (out / f).read_bytes() for f in files}
        assert runs["one"].keys() == runs["two"].keys() == runs["four"].keys()
        for f in runs["one"]:
            assert runs["one"][f] == runs["two"][f], f"{f} differs between runs"
            assert runs["one"][f] == runs["four"][f], f"{f} differs across threads"


def test_criterion_10_scale_smoke():
    with criterion(10, "scale smoke test (500k nodes / 1M arcs)"):
        g = random_graph(500_000, 1_000_000, seed=9)
        start = time.perf_counter()
        pair, trace = run_ip(g, IpParams(max_iterations=50, epsilon=0.0))
        elapsed = time.perf_counter() - start
        assert len(trace.deltas) == 50
        assert abs(pair.influence.sum() - 1.0) <= 1e-12
        assert abs(pair.passivity.sum() - 1.0) <= 1e-12
        assert elapsed < 60.0, f"50 iterations took {elapsed:.1f}s"
