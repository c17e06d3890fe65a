"""Outside-in tracing of the CLI, for the per-layer numbers.

Spans are recorded from the benchmark's side of each layer boundary: every
public function that ``iprank.cli`` imported from another module is replaced,
in the ``cli`` namespace only, by a wrapper that records a span named
``<module>.<function>``. Two of the CLI's own helpers are wrapped the same
way. Counts are taken at the same boundaries from arguments and results.
The wrappers are removed when the traced run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median

from workloads import ARTIFACTS

CLI_OWN = ("read_score_columns", "write_artifact")
FOLLOWER_BUILDERS = ("build_retweet_follower", "build_comention")

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
LAYER_METRICS = (
    *((f"ingest.{n}", "s") for n in ("parse_events_s", "parse_follows_s", "parse_clicks_s")),
    *((f"ingest.{n}", "count") for n in ("events", "users", "follow_edges", "lines_skipped")),
    *(
        (f"graphs.{n}_s", "s")
        for n in (
            "build_retweet", "build_retweet_follower", "build_comention",
            "graph_from_tsv", "graph_to_tsv",
        )
    ),
    ("graphs.nodes", "count"),
    ("graphs.arcs", "count"),
    ("graphs.arc_yield", "ratio"),
    ("ipcore.run_ip_s", "s"),
    ("ipcore.scores_to_tsv_s", "s"),
    ("ipcore.iterations", "count"),
    ("ipcore.converged", "flag"),
    ("ipcore.spmv_flops", "flop"),
    ("ipcore.s_per_iteration", "s"),
    *(
        (f"baselines.{n}_s", "s")
        for n in ("weighted_pagerank", "invert_graph", "h_index_scores", "vector_to_tsv")
    ),
    *(
        (f"analytics.{n}_s", "s")
        for n in (
            "rate_report", "url_attribute_average", "percentile_curve",
            "rank_correlation", "rank_join", "top_k", "report_to_tsv",
        )
    ),
    ("cli.read_score_columns_s", "s"),
    ("cli.write_artifact_s", "s"),
    ("cli.bytes_hashed", "B"),
    *((f"cli.{c}_s", "s") for c in ARTIFACTS),
    *((f"cli.{c}_self_s", "s") for c in ARTIFACTS),
    ("trace.pipeline_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(frozen=True)
class Span:
    run_id: str
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(self.run_id, span_id, parent, name, start, end))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def _count(tracer: Tracer, name: str, args: tuple, result: object) -> None:
    """Record the counters a layer boundary exposes."""
    if name == "parse_events":
        tracer.count("ingest.events", len(result))
        tracer.count("ingest.users", len(result.by_user))
    elif name == "parse_follows":
        tracer.count("ingest.follow_edges", len(result))
    elif name in ("build_retweet", "graph_from_tsv", *FOLLOWER_BUILDERS):
        tracer.count("graphs.nodes", result.num_nodes)
        tracer.count("graphs.arcs", result.num_arcs)
        if name in FOLLOWER_BUILDERS:
            tracer.count("graphs.follower_arcs", result.num_arcs)
            tracer.count("graphs.follow_edges_examined", len(args[1]))
    elif name == "run_ip":
        pair, trace = result
        epsilon = args[1].epsilon
        tracer.count("ipcore.iterations", pair.iterations_run)
        tracer.count("ipcore.runs", 1)
        tracer.count("ipcore.converged_runs", int(trace.converged(epsilon)))
        tracer.count("ipcore.spmv_flops", 4 * args[0].num_arcs * pair.iterations_run)
    if name.startswith("parse_"):
        tracer.count("ingest.lines_skipped", result.skipped)


def _wrap(tracer: Tracer, span_name: str, func):
    short = span_name.split(".", 1)[1]

    def traced(*args, **kwargs):
        with tracer.span(span_name):
            result = func(*args, **kwargs)
        _count(tracer, short, args, result)
        return result

    return traced


@contextmanager
def instrumented(cli, tracer: Tracer):
    """Route the layer calls ``cli`` makes through span-recording wrappers."""
    originals = {}
    for name, obj in vars(cli).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        module = obj.__module__
        if module == cli.__name__:
            if name not in CLI_OWN:
                continue
            layer = "cli"
        elif module.startswith("iprank."):
            layer = module.split(".", 1)[1]
        else:
            continue
        originals[name] = (obj, f"{layer}.{name}")
    sha256 = cli._sha256

    def hashing(path):
        tracer.count("cli.bytes_hashed", os.path.getsize(path))
        return sha256(path)

    try:
        for name, (func, span_name) in originals.items():
            setattr(cli, name, _wrap(tracer, span_name, func))
        cli._sha256 = hashing
        yield
    finally:
        for name, (func, _) in originals.items():
            setattr(cli, name, func)
        cli._sha256 = sha256


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    result = {s.span_id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            result[s.parent] -= s.seconds
    return result


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; layers it never entered read 0."""
    values = {name: 0.0 for name, _ in LAYER_METRICS}
    own = self_seconds(tracer.spans)
    for s in tracer.spans:
        key = f"{s.name}_s"
        if key in values:
            values[key] += s.seconds
        if s.parent is None:
            values[f"{s.name}_self_s"] += own[s.span_id]
    counts = tracer.counts
    for name in values:
        if name in counts:
            values[name] = float(counts[name])
    examined = counts.get("graphs.follow_edges_examined", 0)
    if examined:
        values["graphs.arc_yield"] = counts["graphs.follower_arcs"] / examined
    runs = counts.get("ipcore.runs", 0)
    if runs:
        values["ipcore.converged"] = float(counts["ipcore.converged_runs"] == runs)
        values["ipcore.s_per_iteration"] = values["ipcore.run_ip_s"] / counts["ipcore.iterations"]
    return values


def summarize(
    passes: list[dict[str, float]], traced_totals: list[float], untraced_totals: list[float]
) -> dict[str, float]:
    """Median of each per-layer metric over the traced passes, plus the
    pipeline time with tracing on and its excess over tracing off."""
    values = {name: median(p[name] for p in passes) for name, _ in LAYER_METRICS}
    values["trace.pipeline_s"] = median(traced_totals)
    values["trace.overhead_s"] = median(traced_totals) - median(untraced_totals)
    return values


def layer_breakdown(tracer: Tracer) -> list[str]:
    """One line per command: its wall time split into layer spans and self time."""
    own = self_seconds(tracer.spans)
    lines = []
    for top in (s for s in tracer.spans if s.parent is None):
        layers: dict[str, float] = {}
        for s in tracer.spans:
            if s.parent == top.span_id:
                layer = s.name.split(".", 1)[0]
                layers[layer] = layers.get(layer, 0.0) + s.seconds
        parts = " + ".join(f"{k} {v:.4f}" for k, v in sorted(layers.items()))
        lines.append(
            f"trace {top.name}: {top.seconds:.4f} s = {parts} + self {own[top.span_id]:.4f}"
        )
    return lines


def write_spans(tracers: list[Tracer], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for s in sorted(tracer.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")
