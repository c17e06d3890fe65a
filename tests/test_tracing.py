"""The benchmark's tracer still sees every layer of the score, graph and trace commands.

``perfbench/tracing.py`` finds its layers by wrapping, by name, the
functions ``iprank.cli`` imports; a layer whose function is renamed or
reshaped would silently read 0 in the per-layer metrics.
"""

import importlib
from pathlib import Path

from iprank import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_rank_and_compare_enter_every_layer_they_use(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    scores, out = tmp_path / "ip_scores.tsv", tmp_path / "out"
    scores.write_text("#measure=ip\na\t0.5\t0.25\nb\t0.25\t0.5\nc\t0.25\t0.25\n", encoding="utf-8")
    commands = {
        "rank": ["--scores", scores],
        "compare": ["--scores-a", scores, "--scores-b", scores, "--column-b", "passivity"],
    }
    tracer = tracing.Tracer()
    with tracing.instrumented(cli, tracer):
        for name, flags in commands.items():
            with tracer.span(f"cli.{name}"):
                assert cli.main([name, *map(str, flags), "--out-dir", str(out)]) == 0
    metrics = tracing.layer_metrics(tracer)
    for name in (
        "analytics.rank_correlation_s", "analytics.rank_join_s", "analytics.report_to_tsv_s",
        "analytics.top_k_s", "cli.read_score_columns_s", "cli.rank_s", "cli.compare_s",
    ):
        assert metrics[name] > 0, name


def test_graph_commands_enter_every_layer_they_use(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    graph, out = tmp_path / "graph.tsv", tmp_path / "out"
    text = "#nodes=4 arcs=3\na\tb\t0.5\nb\tc\t0.25\nc\ta\t1.0\nd\t-\t-\n"
    graph.write_text(text, encoding="utf-8")
    tracer = tracing.Tracer()
    with tracing.instrumented(cli, tracer):
        for name in ("ip", "pagerank"):
            with tracer.span(f"cli.{name}"):
                assert cli.main([name, "--graph", str(graph), "--out-dir", str(out)]) == 0
    metrics = tracing.layer_metrics(tracer)
    for name in (
        "graphs.graph_from_tsv_s", "ipcore.run_ip_s", "ipcore.scores_to_tsv_s",
        "baselines.weighted_pagerank_s", "baselines.vector_to_tsv_s", "cli.ip_s", "cli.pagerank_s",
    ):
        assert metrics[name] > 0, name
    assert (metrics["graphs.nodes"], metrics["graphs.arcs"]) == (2 * 4, 2 * 3)


def test_trace_commands_enter_every_reader_and_count_what_it_read(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    files = {  # 7 events by 3 posting users, 4 follow edges, 3 urls with clicks
        "events": "1\ta\tx\tM\n2\tb\tx\tRT\ta\n3\tc\ty\tM\n4\ta\ty\tRT\tc\n"
        "5\tb\tz\tM\n6\tc\tz\tRT\tb\n7\ta\tz\tRT\tb\n",
        "follows": "a\tb\na\tc\nc\tb\nb\ta\n",
        "clicks": "x\t5\ny\t2\nz\t9\n",
    }
    flags = {}
    for role, text in files.items():
        (tmp_path / f"{role}.tsv").write_text(text, encoding="utf-8")
        flags[role] = [f"--{role}", str(tmp_path / f"{role}.tsv")]
    trace = [*flags["events"], *flags["follows"]]
    commands = {  # each reads the events and the follows once; curve also reads the clicks
        "build": [*trace, "--graph-type", "rt-follower", "--min-urls", "1"],
        "rates": trace,
        "curve": [
            *trace, *flags["clicks"], "--measure", "ip-influence", "--graph-type", "comention",
            "--min-urls", "1",
        ],
    }
    tracer = tracing.Tracer()
    with tracing.instrumented(cli, tracer):
        for name, argv in commands.items():
            with tracer.span(f"cli.{name}"):
                assert cli.main([name, *argv, "--out-dir", str(tmp_path / "out")]) == 0
    metrics = tracing.layer_metrics(tracer)
    for name in ("ingest.parse_events_s", "ingest.parse_follows_s", "ingest.parse_clicks_s"):
        assert metrics[name] > 0, name
    counts = metrics["ingest.events"], metrics["ingest.users"], metrics["ingest.follow_edges"]
    assert counts == (3 * 7, 3 * 3, 3 * 4)
