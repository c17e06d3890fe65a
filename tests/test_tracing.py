"""The benchmark's tracer still sees every layer of the score, graph and trace commands.

``perfbench/tracing.py`` finds its layers by wrapping, by name, the
functions ``iprank.cli`` imports; a layer whose function is renamed or
reshaped would silently read 0 in the per-layer metrics.
"""

import importlib
from pathlib import Path

import pytest

from iprank import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """``perfbench/tracing.py``, with ``cli``'s layer names bound, as the
    benchmark's untimed first pass binds them before it wraps any."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    cli._bind_layers()
    return importlib.import_module("tracing")


def test_rank_and_compare_enter_every_layer_they_use(tmp_path, tracing):
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


def test_graph_commands_enter_every_layer_they_use(tmp_path, tracing):
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


def test_trace_commands_enter_every_reader_and_count_what_it_read(tmp_path, tracing):
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


WRAPPED = {  # every function the tracer replaces in cli, as <module>.<name>
    *(f"analytics.{name}" for name in (
        "curve_to_tsv", "percentile_curve", "rank_correlation", "rank_join", "rate_report",
        "rates_to_tsv", "report_to_tsv", "top_k", "url_attribute_average",
    )),
    *(f"baselines.{name}" for name in (
        "follower_count", "h_index_scores", "retweet_count", "vector_to_tsv", "weighted_pagerank",
    )),
    *(f"graphs.{name}" for name in (
        "build_comention", "build_retweet", "build_retweet_follower", "graph_from_tsv",
        "graph_stats", "graph_to_tsv", "stats_to_tsv",
    )),
    "ingest.parse_clicks", "ingest.parse_events", "ingest.parse_follows",
    "ipcore.run_ip", "ipcore.scores_to_tsv", "ipcore.trace_to_tsv",
    "cli._sha256", "cli.read_score_columns", "cli.write_artifact",
}


def test_after_one_command_the_tracer_wraps_every_layer_function(tmp_path, monkeypatch):
    # cli binds its layer names on a command's first run, which the benchmark
    # makes before it wraps them; a name bound later would escape the tracer
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    scores = tmp_path / "scores.tsv"
    scores.write_text("a\t0.5\nb\t0.25\n", encoding="utf-8")
    assert cli.main(["rank", "--scores", str(scores), "--out-dir", str(tmp_path / "out")]) == 0
    before = dict(vars(cli))
    with tracing.instrumented(cli, tracing.Tracer()):
        wrapped = {
            f"{before[name].__module__.removeprefix('iprank.')}.{name}"
            for name, obj in vars(cli).items() if obj is not before[name]
        }
    assert wrapped == WRAPPED
    assert all(vars(cli)[name] is obj for name, obj in before.items())
