"""Command-line pipeline: ingest traces, build graphs, score, and report.

Every output artifact starts with ``#manifest`` header lines recording the
tool version, the command, the SHA-256 of each input file, and the resolved
parameters, so identical inputs and configuration always produce byte-identical
files. Nothing in the pipeline is randomized or time-dependent.
"""

from __future__ import annotations

import argparse
import gc
import operator
import sys
from pathlib import Path
from typing import IO, Callable, Iterable, TypeVar

from . import __version__
from .errors import ConfigInvalid, IpRankError, MissingInput

GRAPH_TYPES = ("comention", "rt", "rt-follower")
MEASURES = ("ip-influence", "ip-passivity", "pagerank", "hindex", "followers", "retweets")
T = TypeVar("T")


def _bind_layers() -> None:
    """Bind numpy and the layer names the commands use into this module, on
    the first call. :func:`main` calls it once the arguments parse, so a run
    that ends in the parser (``--version``, ``--help``, a usage error) loads
    neither numpy nor any layer; the readers callable without a command call
    it first. A later call binds nothing again: the
    benchmark's tracer replaces these names in this module and relies on
    them staying replaced."""
    if "np" in globals():
        return
    import numpy as np

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
        retweet_count,
        vector_to_tsv,
        weighted_pagerank,
    )
    from .graphs import (
        InfluenceGraph,
        _eligible,
        build_comention,
        build_retweet,
        build_retweet_follower,
        graph_from_tsv,
        graph_stats,
        graph_to_tsv,
        stats_to_tsv,
    )
    from .ingest import (
        _EMPTY_USER, _Check, _Fields, _Ids, _in_parts, _judge, _positions, _records,
        parse_clicks, parse_events, parse_follows,
    )
    from .ipcore import IpParams, IterationTrace, ScorePair, run_ip, scores_to_tsv, trace_to_tsv

    globals().update(locals())


# The run settings and their defaults. A run resolves them into a RunConfig
# with one attribute per key: flags override the config file, which overrides
# these. A config value is read as the type of its default; paths default to None.
_DEFAULTS: dict[str, object] = {
    "events": None,
    "follows": None,
    "clicks": None,
    "graph": None,
    "out_dir": "out",
    "graph_type": "rt",
    "min_urls": 3,
    "iterations": 100,
    "epsilon": 1e-9,
    "damping": 0.85,
    "pagerank_iterations": 200,
    "pagerank_epsilon": 1e-12,
    "q": 0.999,
    "bin_count": 50,
    "top_k": 10,
    "min_posted": 0,
    "threads": 0,
    "strict": True,
}
RunConfig = argparse.Namespace

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
    _bind_layers()
    out: dict[str, object] = {}
    with open(_require(path, "config"), "rb") as fh:
        lines = [
            (line_no, line)
            for f in _records(fh, fault=_line_fault(path))
            for line_no, line in zip(f.numbers.tolist(), f.text.split("\n"))
        ]
    for line_no, line in lines:
        line = line.strip()
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
    if not (cfg.epsilon >= 0 and cfg.pagerank_epsilon >= 0):  # NaN too
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
    out = Path(cfg.out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigInvalid(f"out_dir {cfg.out_dir}: {existing} is not a directory")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = dict(_DEFAULTS)
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    for key in _DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Artifact output
# ---------------------------------------------------------------------------


def _sha256(path: str) -> str:
    import hashlib  # 4-5 ms to import (OpenSSL), which --version and --help need not pay

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_lines(command: str, digests: dict[str, str], params: dict[str, object]) -> list[str]:
    """The manifest of an artifact; a float param is written as its shortest
    round-trip decimal, since ``str`` of a float is its ``repr``."""
    return [
        f"#manifest tool=iprank/{__version__}",
        f"#manifest command={command}",
        *(f"#manifest input.{role}=sha256:{digest}" for role, digest in sorted(digests.items())),
        *(f"#manifest param.{key}={value}" for key, value in sorted(params.items())),
    ]


def write_artifact(
    out_dir: str,
    name: str,
    command: str,
    digests: dict[str, str],
    params: dict[str, object],
    *body: str,
) -> Path:
    """Write the manifest lines, then the parts of ``body`` in order."""
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line}\n" for line in manifest_lines(command, digests, params))
        fh.writelines(body)
    return path


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _require(path: str | None, role: str) -> str:
    if path is None:
        raise MissingInput(f"--{role} is required for this command")
    if not Path(path).exists():
        raise MissingInput(f"{role} file not found: {path}")
    if not Path(path).is_file():
        raise MissingInput(f"{role} is not a regular file: {path}")
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
        # parses by (role, path), digests by ("sha256", path), the graph and the measure runs
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
            with open(path, "rb") as fh:
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

    def write(self, name: str, command: str, params: dict[str, object], *body: str) -> None:
        """Write artifact ``name``, its manifest listing this holder's inputs."""
        write_artifact(self.cfg.out_dir, name, command, self.digests(), params, *body)


# settings that shape a graph, recorded by every artifact computed from one
_GRAPH_KEYS = ("graph_type", "min_urls", "strict")


def _params(cfg: RunConfig, *keys: str) -> dict[str, object]:
    return {key: getattr(cfg, key) for key in keys}


# ---------------------------------------------------------------------------
# Measures and score sources
# ---------------------------------------------------------------------------


def _iterate(
    inputs: _Inputs, name: str, run: Callable[..., tuple[T, IterationTrace]],
    params: IpParams | PageRankParams,
) -> tuple[T, IterationTrace]:
    """``run(graph, params)`` on the command's graph, at most once per
    command, with the convergence of the ``name`` measure reported on stdout."""
    g = inputs.graph()  # records the graph's inputs even when the measure has run

    def report() -> tuple[T, IterationTrace]:
        scores, trace = run(g, params)
        last = trace.deltas[-1] if trace.deltas else float("nan")
        converged, count = trace.converged(params.epsilon), len(trace.deltas)
        print(f"{name}: {count} iterations, converged={converged}, last delta {last:.3g}")
        return scores, trace

    return inputs.once(f"{name} run", report)


def _ip(inputs: _Inputs) -> tuple[ScorePair, IterationTrace, dict[str, object]]:
    """IP on the command's graph, and the settings its artifacts record."""
    cfg = inputs.cfg
    pair, trace = _iterate(inputs, "ip", run_ip, IpParams(cfg.iterations, cfg.epsilon))
    return pair, trace, _params(cfg, *_GRAPH_KEYS, "iterations", "epsilon")


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
        return _iterate(inputs, "pagerank", weighted_pagerank, settings)[0], params
    if name in ("hindex", "retweets"):
        score = h_index_scores if name == "hindex" else retweet_count
        return score(inputs.load("events", parse_events)), _params(cfg, "strict")
    if name == "followers":
        return follower_count(inputs.load("follows", parse_follows)), _params(cfg, "strict")
    raise ConfigInvalid(f"unknown measure {name!r}; choose from {MEASURES}")


def _line_fault(path: str) -> Callable[[int, str, str], ConfigInvalid]:
    """The error of a faulty line of the score or config file ``path``."""
    return lambda line_no, line, reason: ConfigInvalid(
        f"line {line_no} of {path}: {reason}: {line!r}"
    )


_MEASURE = ("#measure=",)  # the header of a score file


def _score_checks(path: str, first: int, width: int) -> tuple[_Check, ...]:
    """The checks of the rows of score file ``path``, in order, its first
    row being line ``first`` with ``width`` columns."""
    error = _line_fault(path)

    def unlike(parts: list[str]) -> str:
        return f"{len(parts)} columns, unlike the {width} of line {first}"

    return (
        _Check("unrecognized line", lambda f: (f.fields() < 2) | (f.fields() > 3), error),
        _Check(_EMPTY_USER, lambda f: f.size(0) == 0, error),
        _Check(unlike, lambda f: f.fields() != width, error),
        _Check(
            "score is not a number",
            lambda f: np.isnan([f.floats(k) for k in range(1, width)]).any(axis=0),
            error,
        ),
    )


class _ScorePart:
    """What one part of score file ``path`` holds: the width of the file's
    first row, and each row's id, line number and scores (a list per
    block). Its rows are checked against the file's first row, found in
    ``before`` unless the part holds it."""

    def __init__(self, path: str, before: IO | None) -> None:
        self.path, self.before, self.checks, self.width = path, before, (), 0
        self.ids: list[str] = []
        self.line_nos: list[np.ndarray] = []
        self.blocks: list[list[np.ndarray]] = []  # each block's scores, column by column

    def take(self, f: _Fields) -> None:
        if not self.checks:
            records = _records(self.before, _MEASURE, _line_fault(self.path)) if self.before else ()
            first = next((g for g in records if g.text[:1] != "#"), f)
            self.width = int(first.tabs[0]) + 1
            self.checks = _score_checks(self.path, int(first.numbers[0]), self.width)
        self.ids += f.take(0)  # splits the block: the checks read the scores from that split
        _judge(f, self.checks, strict=True)
        self.line_nos.append(f.numbers)
        self.blocks.append([f.floats(k) for k in range(1, self.width)])

    def __reduce__(self) -> tuple:
        # the ids cross a pipe as one string: 50,000 ids pickled one by one
        # took 6-8 ms each way, joined 1 ms and split 3-5 ms
        return _unjoined, (self.width, "\n".join(self.ids), self.line_nos, self.blocks)


def _unjoined(width: int, ids: str, line_nos: list, blocks: list) -> _ScorePart:
    part = _ScorePart("", None)
    part.width, part.line_nos, part.blocks = width, line_nos, blocks
    part.ids = ids.split("\n") if ids else []
    return part


def read_score_columns(path: str) -> tuple[str, dict[str, ScoreVector]]:
    """Read a score file: either ``#measure=`` two-column vectors or the
    three-column influence/passivity output, a large file in parts
    (``ingest._in_parts``). Returns the file's label and one vector per
    column, keyed by column name. A score that is not a number, a row whose
    column count is not that of the first row, an id listed twice, or a
    ``#measure=`` header that is not the only one or follows a row is
    :class:`ConfigInvalid`."""
    _bind_layers()
    with open(path, "rb") as fh:
        header, parts = _in_parts(
            fh, lambda before: _ScorePart(path, before), _MEASURE,
            lambda line_no, _: ConfigInvalid(f"line {line_no} of {path}: a second or late header"),
            late=True, fault=_line_fault(path),
        )
    ids: list[str] = []
    for part in parts:
        ids += part.ids
    if not ids:
        raise MissingInput(f"no score rows found in {path}")
    label = "scores" if header is None else header[1].split("=", 1)[1]
    width = max(part.width for part in parts)
    values = [np.concatenate(column) for column in zip(*(b for p in parts for b in p.blocks))]
    if not all(map(operator.lt, ids, ids[1:])):  # not written in id order
        order = sorted(range(len(ids)), key=ids.__getitem__)  # stable: repeats follow in file order
        repeats = [k for j, k in zip(order, order[1:]) if ids[j] == ids[k]]
        if repeats:
            k = min(repeats)  # the first row whose id an earlier row listed
            line_no = np.concatenate([n for part in parts for n in part.line_nos])[k]
            raise ConfigInvalid(f"line {line_no} of {path}: {ids[k]!r} is listed twice")
        ids = [ids[k] for k in order]
        values = [column[order] for column in values]
    names = (label,) if width == 2 else ("influence", "passivity")
    node_ids = _Ids(ids)  # ascending, and each a clean record's id: shared, not checked again
    return label, {name: ScoreVector(node_ids, v, name) for name, v in zip(names, values)}


def _reads(cfg: RunConfig, measure: str) -> tuple[str, ...]:
    """The input roles the ``measure`` reads; any but a baseline reads the graph."""
    if measure in ("hindex", "retweets"):
        return ("events",)
    if measure == "followers":
        return ("follows",)
    if cfg.graph is not None:
        return ("graph",)
    return ("events",) if cfg.graph_type == "rt" else ("events", "follows")


def _source(args: argparse.Namespace, side: str) -> list[str | None]:
    key = f"_{side}" if side else ""  # no side: the command's one score source
    return [getattr(args, name + key) for name in ("scores", "column", "measure")]


def _check(
    cfg: RunConfig, args: argparse.Namespace, roles: Iterable[str], sides: Iterable[str] = ()
) -> None:
    """Raise the usage error the command would meet, before it does any
    work: first a bad score-source flag of any of ``sides``, then a missing
    input file. ``roles`` are the inputs it reads besides its score sources."""
    paths = [(getattr(cfg, role), role) for role in roles]
    for side in sides:
        scores, column, measure = _source(args, side)
        suffix = f"-{side}" if side else ""
        if column is not None and scores is None:
            raise ConfigInvalid(f"--column{suffix} reads a score file: give --scores{suffix}")
        if scores is not None and measure is not None:
            raise ConfigInvalid(f"give either --scores{suffix} or --measure{suffix}, not both")
        if scores is None and measure is None:
            raise ConfigInvalid(f"a score source is required: --scores{suffix} or --measure{suffix}")
        if scores is not None:
            paths.append((scores, "scores"))
        else:
            paths += [(getattr(cfg, role), role) for role in _reads(cfg, measure)]
    for path, role in paths:
        _require(path, role)


def _resolve_vector(inputs: _Inputs, args: argparse.Namespace, side: str = "") -> ScoreVector:
    """The score vector of the source ``side`` names, its flags checked by :func:`_check`."""
    scores, column, measure = _source(args, side)
    if scores is None:
        vector, params = _measure(inputs, measure)
        label = vector.label
        inputs.write(f"measure_{label}.tsv", f"measure:{label}", params, vector_to_tsv(vector))
        return vector
    path = inputs.path("scores", scores)
    _, columns = inputs.once(("scores", path), lambda: read_score_columns(path))
    if column is None:
        column = "influence" if "influence" in columns else min(columns)
    if column not in columns:
        raise ConfigInvalid(f"column {column!r} not present in {path}; has {sorted(columns)}")
    return columns[column]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(cfg: RunConfig, args: argparse.Namespace) -> None:
    _check(cfg, args, _reads(cfg, "graph"))
    inputs = _Inputs(cfg)
    g = inputs.graph()
    params = _params(cfg, *_GRAPH_KEYS)
    inputs.write("graph.tsv", "build", params, graph_to_tsv(g))
    stats = graph_stats(g)
    inputs.write("graph_stats.tsv", "build", params, stats_to_tsv(stats))
    print(f"graph: {stats.nodes} nodes, {stats.arcs} arcs, mean weight {stats.mean_weight:.6g}")


def cmd_ip(cfg: RunConfig, args: argparse.Namespace) -> None:
    _check(cfg, args, _reads(cfg, "graph"))
    inputs = _Inputs(cfg)
    pair, trace, params = _ip(inputs)
    inputs.write("ip_scores.tsv", "ip", params, "#measure=ip\n", scores_to_tsv(pair))
    inputs.write("ip_trace.tsv", "ip", params, trace_to_tsv(trace))


def cmd_score(cfg: RunConfig, args: argparse.Namespace) -> None:
    """``pagerank`` and ``hindex``: the measure the command names, in ``<command>.tsv``."""
    _check(cfg, args, _reads(cfg, args.command))
    inputs = _Inputs(cfg)
    vector, params = _measure(inputs, args.command)
    inputs.write(f"{args.command}.tsv", args.command, params, vector_to_tsv(vector))
    scored = "nodes" if args.command == "pagerank" else "users"
    print(f"{args.command}: {len(vector.node_ids)} {scored} scored")


def cmd_rates(cfg: RunConfig, args: argparse.Namespace) -> None:
    _check(cfg, args, ("events", "follows"))
    inputs = _Inputs(cfg)
    log = inputs.load("events", parse_events)
    report = rate_report(log, inputs.load("follows", parse_follows))
    inputs.write("rates.tsv", "rates", _params(cfg, "strict"), rates_to_tsv(report))
    users, audiences = len(report.user_rates.node_ids), len(report.audience_rates.node_ids)
    print(f"rates: {users} user rates, {audiences} audience rates")


def cmd_curve(cfg: RunConfig, args: argparse.Namespace) -> None:
    _check(cfg, args, ("events", "clicks"), [""])
    inputs = _Inputs(cfg)
    vector = _resolve_vector(inputs, args)
    log = inputs.load("events", parse_events)
    clicks = inputs.load("clicks", parse_clicks).clicks
    urls, averages = url_attribute_average(log, vector)
    row = _positions(tuple(clicks), urls)  # each averaged URL's clicks row, -1 if it has none
    counts = np.fromiter(clicks.values(), dtype=np.float64, count=len(clicks))[row[row >= 0]]
    curve = percentile_curve(averages[row >= 0], counts, q=cfg.q, bin_count=cfg.bin_count)
    params = {**_params(cfg, "q", "bin_count"), "measure": vector.label}
    inputs.write("curve.tsv", "curve", params, curve_to_tsv(curve))
    print(f"curve: {len(curve.bins)} bins, fit slope {curve.slope:.6g}")


def cmd_rank(cfg: RunConfig, args: argparse.Namespace) -> None:
    _check(cfg, args, ("events",) if cfg.min_posted > 0 else (), [""])
    inputs = _Inputs(cfg)
    vector = _resolve_vector(inputs, args)
    eligible = None
    params: dict[str, object] = {"top_k": cfg.top_k, "measure": vector.label}
    if cfg.min_posted > 0:
        log = inputs.load("events", parse_events)
        posted = np.append(_eligible(log, cfg.min_posted)[0], False)  # the last: not in the log
        eligible = posted[_positions(log.user_ids, vector.node_ids)]
        params["min_posted"] = cfg.min_posted
    report = top_k(vector, cfg.top_k, eligible)
    inputs.write("rank.tsv", "rank", params, report_to_tsv(report))
    print(f"rank: {len(report.data[0])} rows for {vector.label}")


def cmd_compare(cfg: RunConfig, args: argparse.Namespace) -> None:
    _check(cfg, args, (), ["a", "b"])
    sides = {"a": _Inputs(cfg)}
    sides["b"] = _Inputs(cfg, shared=sides["a"])
    # score-file sides first: reading one may still fail, and a measure side writes an artifact
    order = sorted(sides, key=lambda side: _source(args, side)[0] is None)
    vectors = {side: _resolve_vector(sides[side], args, side) for side in order}
    vec_a, vec_b = vectors["a"], vectors["b"]
    correlation = rank_correlation(vec_a, vec_b)
    joined = rank_join(vec_a, vec_b)
    params = {"measure_a": vec_a.label, "measure_b": vec_b.label}
    digests = {**sides["a"].digests("a."), **sides["b"].digests("b.")}
    body = f"#spearman={correlation!r}\n", report_to_tsv(joined)
    write_artifact(cfg.out_dir, "compare.tsv", "compare", digests, params, *body)
    print(f"compare: spearman {correlation:.6g} over {len(joined.data[0])} shared users")


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
        help="parsed and range-checked only: it changes no result",
    )
    sub.add_argument("--out-dir", dest="out_dir")
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--strict", dest="strict", action="store_true", default=None)
    mode.add_argument("--lenient", dest="strict", action="store_false", default=None)


def _add_score_source(sub: argparse.ArgumentParser, suffix: str) -> None:
    sub.add_argument(f"--scores{suffix}", help="score file produced by a previous command")
    sub.add_argument(f"--column{suffix}", help="column to read from a multi-column score file")
    sub.add_argument(f"--measure{suffix}", choices=MEASURES, help="recompute a measure from inputs")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command. Given ``command``, only that subcommand
    gets its flags: a run parses one command, so what it prints and how it
    exits stay the same, and the others' flags cost nothing."""
    parser = argparse.ArgumentParser(
        prog="iprank",
        description="Build influence graphs from activity traces and rank users.",
    )
    parser.add_argument("--version", action="version", version=f"iprank {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)

    specs = [
        ("build", cmd_build, "build an influence graph and its stats"),
        ("ip", cmd_ip, "run the influence-passivity iteration"),
        ("pagerank", cmd_score, "weighted PageRank from the influenced to their influencers"),
        ("hindex", cmd_score, "post/retweet H-index per user"),
        ("rates", cmd_rates, "user and audience retweeting rates"),
        ("curve", cmd_curve, "percentile-bound click curve for a measure"),
        ("rank", cmd_rank, "top-k report for a measure"),
        ("compare", cmd_compare, "rank join and correlation of two measures"),
    ]
    for name, func, help_text in specs:
        sub = subs.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        if command not in (None, name):
            continue
        _add_common_flags(sub)
        for suffix in {"curve": ("",), "rank": ("",), "compare": ("-a", "-b")}.get(name, ()):
            _add_score_source(sub, suffix)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` names, by default the program's arguments."""
    program = argv is None
    if program:
        # A program run: every object made so far lives until exit. Frozen,
        # the collections while the command runs and at exit never walk them.
        gc.freeze()
        argv = sys.argv[1:]
    # the parser's own options take no value, so the first other word is the command
    parser = build_parser(next((word for word in argv if word[:1] != "-"), ""))
    args = parser.parse_args(argv)
    _bind_layers()
    if program:
        gc.freeze()  # numpy's and the layers' objects, loaded just now, live until exit too
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
