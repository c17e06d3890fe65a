"""Command-line pipeline: ingest traces, build graphs, score, and report.

Every output artifact starts with ``#manifest`` header lines recording the
tool version, the command, the SHA-256 of each input file, and the resolved
parameters, so identical inputs and configuration always produce byte-identical
files. Nothing in the pipeline is randomized or time-dependent.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, TypeVar

from . import __version__
from .analytics import (
    curve_to_tsv,
    percentile_curve,
    rank_correlation,
    rank_join,
    rate_report,
    rates_to_tsv,
    report_to_tsv,
    top_k,
    url_attribute_average,
)
from .baselines import (
    PageRankParams,
    ScoreVector,
    follower_count,
    h_index_scores,
    invert_graph,
    retweet_count,
    vector_to_tsv,
    weighted_pagerank,
)
from .errors import ConfigInvalid, IpRankError, MissingInput
from .graphs import (
    InfluenceGraph,
    build_comention,
    build_retweet,
    build_retweet_follower,
    graph_from_tsv,
    graph_stats,
    graph_to_tsv,
    stats_to_tsv,
)
from .ingest import _records, parse_clicks, parse_events, parse_follows, url_counts
from .ipcore import IpParams, IterationTrace, ScorePair, run_ip, scores_to_tsv, trace_to_tsv

GRAPH_TYPES = ("comention", "rt", "rt-follower")
MEASURES = ("ip-influence", "ip-passivity", "pagerank", "hindex", "followers", "retweets")
T = TypeVar("T")


@dataclass
class RunConfig:
    """Resolved run settings; flags override the config file, which overrides
    these defaults."""

    events: str | None = None
    follows: str | None = None
    clicks: str | None = None
    graph: str | None = None
    out_dir: str = "out"
    graph_type: str = "rt"
    min_urls: int = 3
    iterations: int = 100
    epsilon: float = 1e-9
    damping: float = 0.85
    pagerank_iterations: int = 200
    pagerank_epsilon: float = 1e-12
    q: float = 0.999
    bin_count: int = 50
    top_k: int = 10
    min_posted: int = 0
    threads: int = 0
    strict: bool = True


# a config value is read as the type of its field's default; paths default to None
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _parse_bool(word: str) -> bool:
    lowered = word.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ConfigInvalid(f"not a boolean: {word!r}")


def load_config(path: str) -> dict[str, object]:
    """Read a flat ``key=value`` config file."""
    out: dict[str, object] = {}
    with open(_require(path, "config"), "r", encoding="utf-8") as fh:
        for line_no, parts in _records(fh):
            line = "\t".join(parts).strip()
            if "=" not in line:
                raise ConfigInvalid(f"config line {line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if key not in _DEFAULTS:
                raise ConfigInvalid(f"config line {line_no}: unknown key {key!r}")
            convert = str if _DEFAULTS[key] is None else type(_DEFAULTS[key])
            try:
                out[key] = _parse_bool(value) if convert is bool else convert(value)
            except ValueError:
                raise ConfigInvalid(
                    f"config line {line_no}: bad value for {key!r}: {value!r}"
                ) from None
    return out


def validate_config(cfg: RunConfig) -> None:
    if cfg.graph_type not in GRAPH_TYPES:
        raise ConfigInvalid(f"graph_type must be one of {GRAPH_TYPES}, got {cfg.graph_type!r}")
    if cfg.min_urls < 1:
        raise ConfigInvalid(f"min_urls must be >= 1, got {cfg.min_urls}")
    if cfg.iterations < 1 or cfg.pagerank_iterations < 1:
        raise ConfigInvalid("iteration caps must be >= 1")
    if cfg.epsilon < 0 or cfg.pagerank_epsilon < 0:
        raise ConfigInvalid("epsilon values must be >= 0")
    if not 0.0 < cfg.damping < 1.0:
        raise ConfigInvalid(f"damping must be in (0, 1), got {cfg.damping}")
    if not 0.0 < cfg.q <= 1.0:
        raise ConfigInvalid(f"q must be in (0, 1], got {cfg.q}")
    if cfg.bin_count < 1:
        raise ConfigInvalid(f"bin_count must be >= 1, got {cfg.bin_count}")
    if cfg.top_k < 1:
        raise ConfigInvalid(f"top_k must be >= 1, got {cfg.top_k}")
    if cfg.min_posted < 0:
        raise ConfigInvalid(f"min_posted must be >= 0, got {cfg.min_posted}")
    if cfg.threads < 0:
        raise ConfigInvalid(f"threads must be >= 0, got {cfg.threads}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            values[f.name] = flag_value
    for key, value in values.items():
        setattr(cfg, key, value)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Artifact output
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt_param(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def manifest_lines(command: str, digests: dict[str, str], params: dict[str, object]) -> list[str]:
    lines = [
        f"#manifest tool=iprank/{__version__}",
        f"#manifest command={command}",
    ]
    for role, digest in sorted(digests.items()):
        lines.append(f"#manifest input.{role}=sha256:{digest}")
    for key, value in sorted(params.items()):
        lines.append(f"#manifest param.{key}={_fmt_param(value)}")
    return lines


def read_manifest(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for _, parts in _records(fh, headers=("#manifest ",)):
            if parts[0][:1] == "#":  # the header: no record starts with "#"
                key, value = parts[0][len("#manifest ") :].split("=", 1)
                entries[key] = value
    return entries


def write_artifact(
    out_dir: str,
    name: str,
    command: str,
    digests: dict[str, str],
    params: dict[str, object],
    body: str,
) -> Path:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    text = "\n".join(manifest_lines(command, digests, params)) + "\n" + body
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _require(path: str | None, role: str) -> str:
    if path is None:
        raise MissingInput(f"--{role} is required for this command")
    if not Path(path).exists():
        raise MissingInput(f"{role} file not found: {path}")
    return path


class _Inputs:
    """The input files of one command: each is parsed at most once and hashed
    at most once. ``read`` maps each role read through this holder to its
    path, for the manifests. A holder made with ``shared`` reuses the other's
    parses and digests but lists only its own roles, as each side of
    ``compare`` does."""

    def __init__(self, cfg: RunConfig, shared: _Inputs | None = None) -> None:
        self.cfg = cfg
        self.read: dict[str, str] = {}
        # parses by (role, path), digests by ("sha256", path), the graph and the IP run
        self._done: dict[object, object] = {} if shared is None else shared._done

    def once(self, key: object, make: Callable[[], T]) -> T:
        """``make()``, called only the first time ``key`` is asked for."""
        if key not in self._done:
            self._done[key] = make()
        return self._done[key]  # type: ignore[return-value]

    def path(self, role: str, path: str | None = None) -> str:
        """Record ``role`` as read from ``path``, by default its configured file."""
        self.read[role] = _require(getattr(self.cfg, role) if path is None else path, role)
        return self.read[role]

    def load(self, role: str, parse: Callable[..., T]) -> T:
        """The ``role`` file through ``parse(stream, strict=...)``, warning of
        the lines lenient mode skipped."""
        path = self.path(role)

        def parsed() -> T:
            with open(path, "r", encoding="utf-8") as fh:
                data = parse(fh, strict=self.cfg.strict)
            skipped = getattr(data, "skipped", 0)  # a graph file is always read strictly
            if skipped:
                warning = f"warning: skipped {skipped} malformed {role} line(s) in {path}"
                print(warning, file=sys.stderr)
            return data

        return self.once((role, path), parsed)

    def graph(self) -> InfluenceGraph:
        cfg = self.cfg
        if cfg.graph is not None:
            return self.load("graph", lambda fh, strict: graph_from_tsv(fh))
        log = self.load("events", parse_events)
        if cfg.graph_type == "rt":
            return self.once("built graph", lambda: build_retweet(log, cfg.min_urls))
        follows = self.load("follows", parse_follows)
        build = build_comention if cfg.graph_type == "comention" else build_retweet_follower
        return self.once("built graph", lambda: build(log, follows, cfg.min_urls))

    def digests(self, prefix: str = "") -> dict[str, str]:
        """``{prefix + role: SHA-256}`` of each input read through this holder."""
        return {
            prefix + role: self.once(("sha256", path), lambda: _sha256(path))
            for role, path in self.read.items()
        }

    def write(self, name: str, command: str, params: dict[str, object], body: str) -> None:
        """Write artifact ``name``, its manifest listing this holder's inputs."""
        write_artifact(self.cfg.out_dir, name, command, self.digests(), params, body)


# settings that shape a graph, recorded by every artifact computed from one
_GRAPH_KEYS = ("graph_type", "min_urls", "strict")


def _params(cfg: RunConfig, *keys: str) -> dict[str, object]:
    return {key: getattr(cfg, key) for key in keys}


# ---------------------------------------------------------------------------
# Measures and score sources
# ---------------------------------------------------------------------------


def _ip(inputs: _Inputs) -> tuple[ScorePair, IterationTrace, dict[str, object]]:
    """IP on the command's graph, run at most once per command with its
    convergence reported on stdout, and the settings its artifacts record."""
    cfg, g = inputs.cfg, inputs.graph()  # records the graph's inputs even when IP has run

    def run() -> tuple[ScorePair, IterationTrace]:
        pair, trace = run_ip(g, IpParams(cfg.iterations, cfg.epsilon))
        last = trace.deltas[-1] if trace.deltas else float("nan")
        converged = trace.converged(cfg.epsilon)
        print(f"ip: {pair.iterations_run} iterations, converged={converged}, last delta {last:.3g}")
        return pair, trace

    return (*inputs.once("ip run", run), _params(cfg, *_GRAPH_KEYS, "iterations", "epsilon"))


def _measure(inputs: _Inputs, name: str) -> tuple[ScoreVector, dict[str, object]]:
    """The ``name`` measure over the command's inputs, and the settings its
    artifact records."""
    cfg = inputs.cfg
    if name in ("ip-influence", "ip-passivity"):
        pair, _, params = _ip(inputs)
        values = pair.influence if name == "ip-influence" else pair.passivity
        return ScoreVector(pair.node_ids, values, label=name), params
    if name == "pagerank":
        params = _params(cfg, *_GRAPH_KEYS, "damping", "pagerank_epsilon", "pagerank_iterations")
        settings = PageRankParams(cfg.damping, cfg.pagerank_epsilon, cfg.pagerank_iterations)
        return weighted_pagerank(invert_graph(inputs.graph()), settings), params
    if name in ("hindex", "retweets"):
        score = h_index_scores if name == "hindex" else retweet_count
        return score(inputs.load("events", parse_events)), _params(cfg, "strict")
    if name == "followers":
        return follower_count(inputs.load("follows", parse_follows)), _params(cfg, "strict")
    raise ConfigInvalid(f"unknown measure {name!r}; choose from {MEASURES}")


def read_score_columns(path: str) -> tuple[str, dict[str, ScoreVector]]:
    """Read a score file: either ``#measure=`` two-column vectors or the
    three-column influence/passivity output. Returns the file's label and one
    vector per column, keyed by column name. A score that is not a number, or
    an id listed twice in one column, is :class:`ConfigInvalid`."""
    label = "scores"
    columns: dict[str, dict[str, float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, parts in _records(fh, headers=("#measure=",)):
            try:
                if len(parts) == 2:
                    value = float(parts[1])
                    if math.isnan(value):
                        raise ValueError
                    column = columns.setdefault(label, {})
                elif len(parts) == 3:
                    value, passivity = float(parts[1]), float(parts[2])
                    if math.isnan(value) or math.isnan(passivity):
                        raise ValueError
                    column = columns.setdefault("influence", {})
                    columns.setdefault("passivity", {})[parts[0]] = passivity
                elif parts[0][:1] == "#":  # the header: no record starts with "#"
                    label = parts[0].split("=", 1)[1]
                    continue
                else:
                    raise ValueError
            except ValueError:
                line = "\t".join(parts)
                reason = "score is not a number" if len(parts) in (2, 3) else "unrecognized line"
                raise ConfigInvalid(f"line {line_no} of {path}: {reason}: {line!r}") from None
            if parts[0] in column:
                raise ConfigInvalid(f"line {line_no} of {path}: {parts[0]!r} is listed twice")
            column[parts[0]] = value
    if not columns:
        raise MissingInput(f"no score rows found in {path}")
    return label, {name: ScoreVector.from_mapping(m, name) for name, m in columns.items()}


def _resolve_vector(
    inputs: _Inputs, scores: str | None, column: str | None, measure: str | None, side: str = ""
) -> ScoreVector:
    suffix = f"-{side}" if side else ""
    if scores is not None and measure is not None:
        raise ConfigInvalid(f"give either --scores{suffix} or --measure{suffix}, not both")
    if scores is not None:
        path = inputs.path("scores", scores)
        _, columns = read_score_columns(path)  # not kept: it holds columns left unused
        if column is None:
            column = "influence" if "influence" in columns else min(columns)
        if column not in columns:
            raise ConfigInvalid(f"column {column!r} not present in {path}; has {sorted(columns)}")
        return columns[column]
    if measure is not None:
        vector, params = _measure(inputs, measure)
        label = vector.label
        inputs.write(f"measure_{label}.tsv", f"measure:{label}", params, vector_to_tsv(vector))
        return vector
    raise ConfigInvalid(f"a score source is required: --scores{suffix} or --measure{suffix}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> None:
    inputs = _Inputs(cfg)
    g = inputs.graph()
    params = _params(cfg, *_GRAPH_KEYS)
    inputs.write("graph.tsv", "build", params, graph_to_tsv(g))
    stats = graph_stats(g)
    inputs.write("graph_stats.tsv", "build", params, stats_to_tsv(stats))
    print(f"graph: {stats.nodes} nodes, {stats.arcs} arcs, mean weight {stats.mean_weight:.6g}")


def cmd_ip(cfg: RunConfig, args: argparse.Namespace) -> None:
    inputs = _Inputs(cfg)
    pair, trace, params = _ip(inputs)
    inputs.write("ip_scores.tsv", "ip", params, "#measure=ip\n" + scores_to_tsv(pair))
    inputs.write("ip_trace.tsv", "ip", params, trace_to_tsv(trace))


def cmd_score(cfg: RunConfig, args: argparse.Namespace) -> None:
    """``pagerank`` and ``hindex``: the measure the command names, in ``<command>.tsv``."""
    inputs = _Inputs(cfg)
    vector, params = _measure(inputs, args.command)
    inputs.write(f"{args.command}.tsv", args.command, params, vector_to_tsv(vector))
    scored = "nodes" if args.command == "pagerank" else "users"
    print(f"{args.command}: {len(vector.node_ids)} {scored} scored")


def cmd_rates(cfg: RunConfig, args: argparse.Namespace) -> None:
    inputs = _Inputs(cfg)
    log = inputs.load("events", parse_events)
    report = rate_report(log, inputs.load("follows", parse_follows))
    inputs.write("rates.tsv", "rates", _params(cfg, "strict"), rates_to_tsv(report))
    users, audiences = len(report.user_rates), len(report.audience_rates)
    print(f"rates: {users} user rates, {audiences} audience rates")


def cmd_curve(cfg: RunConfig, args: argparse.Namespace) -> None:
    inputs = _Inputs(cfg)
    vector = _resolve_vector(inputs, args.scores, args.column, args.measure)
    log = inputs.load("events", parse_events)
    clicks = inputs.load("clicks", parse_clicks).clicks
    averages = url_attribute_average(log, vector)
    points = [(averages[url], float(clicks[url])) for url in sorted(averages) if url in clicks]
    curve = percentile_curve(points, q=cfg.q, bin_count=cfg.bin_count)
    params = {**_params(cfg, "q", "bin_count"), "measure": vector.label}
    inputs.write("curve.tsv", "curve", params, curve_to_tsv(curve))
    print(f"curve: {len(curve.bins)} bins, fit slope {curve.slope:.6g}")


def cmd_rank(cfg: RunConfig, args: argparse.Namespace) -> None:
    inputs = _Inputs(cfg)
    vector = _resolve_vector(inputs, args.scores, args.column, args.measure)
    eligible = None
    params: dict[str, object] = {"top_k": cfg.top_k, "measure": vector.label}
    if cfg.min_posted > 0:
        counts = url_counts(inputs.load("events", parse_events))
        eligible = [counts.get(user, 0) >= cfg.min_posted for user in vector.node_ids]
        params["min_posted"] = cfg.min_posted
    report = top_k(vector, cfg.top_k, eligible)
    inputs.write("rank.tsv", "rank", params, report_to_tsv(report))
    print(f"rank: {len(report.rows)} rows for {vector.label}")


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> None:
    side_a = _Inputs(cfg)
    side_b = _Inputs(cfg, shared=side_a)
    vec_a = _resolve_vector(side_a, args.scores_a, args.column_a, args.measure_a, "a")
    vec_b = _resolve_vector(side_b, args.scores_b, args.column_b, args.measure_b, "b")
    correlation = rank_correlation(vec_a, vec_b)
    joined = rank_join(vec_a, vec_b)
    body = f"#spearman={correlation!r}\n" + report_to_tsv(joined)
    params = {"measure_a": vec_a.label, "measure_b": vec_b.label}
    digests = {**side_a.digests("a."), **side_b.digests("b.")}
    write_artifact(cfg.out_dir, "compare.tsv", "compare", digests, params, body)
    print(f"compare: spearman {correlation:.6g} over {len(joined.rows)} shared users")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--events", help="events file (time,user,url,kind)")
    sub.add_argument("--follows", help="follow edges file (followee,follower)")
    sub.add_argument("--clicks", help="click counts file (url,count)")
    sub.add_argument("--graph", help="prebuilt graph file to load instead of building")
    sub.add_argument("--graph-type", dest="graph_type", choices=GRAPH_TYPES)
    sub.add_argument("--min-urls", dest="min_urls", type=int)
    sub.add_argument("--iterations", type=int)
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--damping", type=float)
    sub.add_argument("--top-k", dest="top_k", type=int)
    sub.add_argument("--min-posted", dest="min_posted", type=int)
    sub.add_argument("--q", type=float)
    sub.add_argument("--bin-count", dest="bin_count", type=int)
    sub.add_argument(
        "--threads",
        type=int,
        help="upper bound on internal parallelism (results are identical for any value)",
    )
    sub.add_argument("--out-dir", dest="out_dir")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=None)
    mode.add_argument("--lenient", dest="strict", action="store_false", default=None)


def _add_score_source(sub: argparse.ArgumentParser, suffix: str) -> None:
    sub.add_argument(f"--scores{suffix}", help="score file produced by a previous command")
    sub.add_argument(f"--column{suffix}", help="column to read from a multi-column score file")
    sub.add_argument(f"--measure{suffix}", choices=MEASURES, help="recompute a measure from inputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iprank",
        description="Build influence graphs from activity traces and rank users.",
    )
    parser.add_argument("--version", action="version", version=f"iprank {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)

    specs = [
        ("build", cmd_build, "build an influence graph and its stats"),
        ("ip", cmd_ip, "run the influence-passivity iteration"),
        ("pagerank", cmd_score, "weighted PageRank on the inverted graph"),
        ("hindex", cmd_score, "post/retweet H-index per user"),
        ("rates", cmd_rates, "user and audience retweeting rates"),
        ("curve", cmd_curve, "percentile-bound click curve for a measure"),
        ("rank", cmd_rank, "top-k report for a measure"),
        ("compare", cmd_compare, "rank join and correlation of two measures"),
    ]
    for name, func, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        _add_common_flags(sub)
        for suffix in {"curve": ("",), "rank": ("",), "compare": ("-a", "-b")}.get(name, ()):
            _add_score_source(sub, suffix)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        args.func(cfg, args)
    except (ConfigInvalid, MissingInput) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except IpRankError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
