"""Benchmark workloads: seeded input generation and the CLI commands each runs.

Each workload is chosen so that one layer dominates it and another is nearly
absent (see ``WHY``). Inputs come only from ``iprank.testkit`` and the seed;
the program under test sees nothing but the generated files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# Trace shape from the ROADMAP baseline; only the user count varies by scale.
TRACE_SHAPE = {
    "follow_prob": 0.05,
    "mention_rate": 10.0,
    "retweet_prob": 0.1,
    "url_pool": 5000,
}
# Pareto shape of the per-URL click counts: heavy-tailed, one count per URL.
CLICK_TAIL = 1.2

# Generator size per workload and scale. "full" is what a benchmark run
# times; "smoke" exists so the harness can be exercised in a few seconds.
SIZES = {
    "trace-rt": {"full": {"users": 4000}, "smoke": {"users": 200}},
    "trace-follow": {"full": {"users": 4000}, "smoke": {"users": 200}},
    "graph-scale": {
        "full": {"nodes": 100_000, "arcs": 200_000},
        "smoke": {"nodes": 2_000, "arcs": 4_000},
    },
}

WHY = {
    "trace-rt": "events parse plus the retweet builder dominate; the IP and PageRank kernels are under 5% of it",
    "trace-follow": "follower-based builders, follows parse and rates/curve analytics dominate; no graph file is read",
    "graph-scale": "a prebuilt graph is read, scored and compared; no trace is parsed, so kernels and serialization show",
}

# Files each command writes into the output directory.
ARTIFACTS = {
    "build": ("graph.tsv", "graph_stats.tsv"),
    "ip": ("ip_scores.tsv", "ip_trace.tsv"),
    "pagerank": ("pagerank.tsv",),
    "hindex": ("hindex.tsv",),
    "rates": ("rates.tsv",),
    "curve": ("measure_ip-influence.tsv", "curve.tsv"),
    "rank": ("rank.tsv",),
    "compare": ("compare.tsv",),
}

_E = ("--events", "{events}")
_F = ("--follows", "{follows}")

# argv templates; placeholders name an input role or the output directory.
COMMANDS = {
    "trace-rt": (
        ("build", *_E, "--graph-type", "rt"),
        ("ip", *_E, "--graph-type", "rt"),
        ("pagerank", *_E, "--graph-type", "rt"),
        ("hindex", *_E),
        ("rank", "--scores", "{out}/ip_scores.tsv"),
        ("compare", "--scores-a", "{out}/ip_scores.tsv", "--scores-b", "{out}/pagerank.tsv"),
    ),
    "trace-follow": (
        ("build", *_E, *_F, "--graph-type", "rt-follower"),
        ("rates", *_E, *_F),
        (
            "curve", *_E, *_F, "--clicks", "{clicks}",
            "--measure", "ip-influence", "--graph-type", "comention",
        ),
    ),
    "graph-scale": (
        ("ip", "--graph", "{graph}"),
        ("pagerank", "--graph", "{graph}"),
        ("rank", "--scores", "{out}/ip_scores.tsv"),
        ("compare", "--scores-a", "{out}/ip_scores.tsv", "--scores-b", "{out}/pagerank.tsv"),
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Generated input files, by role, with the record count of each."""

    paths: dict[str, str]
    records: dict[str, int]


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    records: int  # input records named on the command line


def generator_params(workload: str, scale: str, seed: int) -> dict[str, object]:
    size = SIZES[workload][scale]
    if workload == "graph-scale":
        return {**size, "seed": seed}
    params = {**size, "broadcasters": size["users"] // 20, **TRACE_SHAPE, "seed": seed}
    if workload == "trace-follow":
        params["click_tail"] = CLICK_TAIL
    return params


def generate(workload: str, scale: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``directory``.

    Imports iprank here, after the caller has put the checkout's sources on
    the path, so the harness never measures an installed copy.
    """
    from iprank.graphs import graph_to_tsv
    from iprank.ingest import ClickTable, clicks_to_tsv, events_to_tsv, follows_to_tsv
    from iprank.testkit import SynthParams, random_graph, synth_trace

    params = generator_params(workload, scale, seed)
    paths: dict[str, str] = {}
    records: dict[str, int] = {}

    def write(role: str, text: str, count: int) -> None:
        path = directory / f"{role}.tsv"
        path.write_text(text, encoding="utf-8")
        paths[role] = str(path)
        records[role] = count

    if workload == "graph-scale":
        g = random_graph(params["nodes"], params["arcs"], seed)
        write("graph", graph_to_tsv(g), g.num_arcs)
        return Inputs(paths, records)

    log, follows = synth_trace(
        SynthParams(
            users=params["users"],
            broadcasters=params["broadcasters"],
            follow_prob=params["follow_prob"],
            mention_rate=params["mention_rate"],
            retweet_prob=params["retweet_prob"],
            url_pool=params["url_pool"],
            seed=seed,
        )
    )
    write("events", events_to_tsv(log), len(log))
    if workload == "trace-follow":
        write("follows", follows_to_tsv(follows), len(follows))
        urls = sorted({ev.url for ev in log})
        draws = np.random.default_rng(seed).pareto(CLICK_TAIL, len(urls))
        counts = (1 + np.floor(10.0 * draws)).astype(np.int64)
        clicks = ClickTable(dict(zip(urls, counts.tolist())))
        write("clicks", clicks_to_tsv(clicks), len(urls))
    return Inputs(paths, records)


def commands(workload: str, inputs: Inputs, out_dir: Path, threads: int) -> list[Command]:
    """The workload's CLI invocations, in the order a user would run them."""
    fill = {**inputs.paths, "out": str(out_dir)}
    result = []
    for template in COMMANDS[workload]:
        argv = tuple(part.format(**fill) for part in template)
        argv += ("--threads", str(threads), "--out-dir", str(out_dir))
        read = sum(
            count
            for role, count in inputs.records.items()
            if f"{{{role}}}" in template
        )
        result.append(Command(template[0], argv, read))
    return result
