"""Seeded benchmark of the iprank CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload trace-rt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload once, tiny inputs
    python3 perfbench/run.py --record-digests   # rewrite digests.json

``--trace 0`` drives the CLI as a user would: one fresh subprocess per
command, started one after another (a closed loop with one client), and
reports the end-to-end metrics. ``--trace 1`` calls ``iprank.cli.main``
in-process instead, alternating untraced and traced passes, and reports the
per-layer metrics and the tracing overhead. Either way every artifact is
checked, and the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
import traceback
from importlib.metadata import version
from pathlib import Path
from statistics import median

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_out"
# The console script's entry point, run against the checkout's sources.
ENTRY = "import sys; from iprank.cli import main; sys.exit(main())"
# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_ref", "ref"),
    ("records_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)
SETUP_RUNS = 5
# A run stops starting passes once it would exceed this, well inside the
# 180 s a run may take; a command still running then is killed.
RUN_BUDGET_S = 150.0
KILL_AFTER_S = 170.0


def use_checkout_sources() -> None:
    """Import iprank from this checkout's ``src/`` or stop with an error."""
    if not (SRC / "iprank" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no iprank sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import iprank

    if Path(iprank.__file__).resolve().parent != SRC / "iprank":
        raise SystemExit(f"perfbench: imported iprank from {iprank.__file__}, not {SRC}")


def machine_facts() -> str:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return (
        f"machine: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={version('numpy')} scipy={version('scipy')} src_lines={src_lines}"
    )


class Tally:
    """Commands attempted and failed; a failure is a non-zero exit or a bad artifact."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors:
                print(f"FAIL {what}: {error}", file=sys.stderr)


def spawn(args: tuple[str, ...], log: Path, deadline: float) -> tuple[float, int, int]:
    """Run the interpreter with ``args`` in a fresh process; return its wall
    time, exit code and peak RSS in KiB.

    ``os.wait4`` reaps the child and returns its own resource usage, so
    the peak RSS is that of this command alone.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=out, stderr=out)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "no output"


def measure_setup(work: Path, tally: Tally, deadline: float) -> list[float]:
    """Wall times of ``iprank --version`` in fresh processes, after one warm-up."""
    log = work / "setup.log"
    times = []
    for k in range(SETUP_RUNS + 1):
        wall, code, _ = spawn(("-c", ENTRY, "--version"), log, deadline)
        ok = code == 0 and log.read_text(encoding="utf-8").startswith("iprank ")
        tally.record("--version", [] if ok else [f"exit {code}: {_tail(log)}"])
        if k:
            times.append(wall)
    return times


# A fixed job shaped like one CLI command: a fresh interpreter imports
# numpy and scipy, then splits, parses, groups and sorts 40k lines.
REFERENCE_JOB = """
import numpy, scipy.sparse
lines = [f"{(k * 7919) % 100003}\\tu{k % 977:04d}\\turl{k % 4999:05d}\\tM" for k in range(40_000)]
groups = {}
for line in lines:
    stamp, user, url, _ = line.split("\\t")
    groups.setdefault(user, []).append((int(stamp), url))
for rows in groups.values():
    rows.sort()
"""


def reference_seconds(log: Path, deadline: float) -> float:
    """Wall time of the reference job in a fresh process.

    The machine this runs on may be shared, and its speed can drift by a
    factor of two within minutes. Timed between commands, this job measures
    that speed, so pipeline time can also be given in units of it.
    """
    wall, code, _ = spawn(("-c", REFERENCE_JOB), log, deadline)
    if code != 0:
        raise RuntimeError(f"reference job failed: {_tail(log)}")
    return wall


def subprocess_passes(cmds, checker, tally, work: Path, seconds: float, run_start: float):
    """Closed loop of CLI subprocesses, with the reference job before each
    command and after the last.

    Returns per-pass command times, the peak RSS, and per pass the pipeline
    time in reference units: each command's time over the mean of the
    reference times on either side of it, summed.
    """
    out = work / "out"
    log = work / "command.log"
    deadline = run_start + KILL_AFTER_S
    passes: list[dict[str, float]] = []
    ratios: list[float] = []
    peak_kib = 0
    measure_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        times = {}
        reference = [reference_seconds(log, deadline)]
        for cmd in cmds:
            wall, code, rss = spawn(("-c", ENTRY, *cmd.argv), log, deadline)
            errors = checker.check(cmd.name, out) if code == 0 else [f"exit {code}: {_tail(log)}"]
            tally.record(cmd.name, errors)
            times[cmd.name] = wall
            peak_kib = max(peak_kib, rss)
            reference.append(reference_seconds(log, deadline))
        passes.append(times)
        ratios.append(
            sum(2 * wall / (a + b) for wall, a, b in zip(times.values(), reference, reference[1:]))
        )
        now = time.perf_counter()
        took = now - pass_start
        print(
            f"pass {len(passes)}: {sum(times.values()):.4f} s of commands, "
            f"{ratios[-1]:.4f} reference units, reference job median {median(reference):.4f} s",
            flush=True,
        )
        if now + took > min(measure_start + seconds, run_start + RUN_BUDGET_S):
            return passes, ratios, peak_kib


def end_to_end(cmds, setup, passes, ratios, peak_kib, tally) -> dict[str, dict]:
    totals = [sum(p.values()) for p in passes]
    records = sum(cmd.records for cmd in cmds)
    values = {
        "setup_s": median(setup),
        "pipeline_ref": median(ratios),
        "records_per_ref": records / median(ratios),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, unit in END_TO_END:
        print(f"{name}: {values[name]:.6g} {unit}")
    # A run has two to four passes, too few for any percentile above the
    # median to have ten samples beyond it, so the maximum is shown, not gated.
    print(f"pipeline_max_ref: {max(ratios):.6g} ref")
    # Wall seconds as a user sees them; reported, not gated, because the
    # shared machine's speed drifts more between runs than any bound allows.
    print(f"pipeline_s: {median(totals):.6g} s")
    print(f"pipeline_max_s: {max(totals):.6g} s")
    print(f"records_per_s: {records / median(totals):.6g} 1/s")
    for cmd in cmds:
        per = [p[cmd.name] for p in passes]
        print(f"{cmd.name}_s: {median(per):.6g} s (median of {len(per)})")
    print(
        f"samples: {len(totals)} passes (the _max_ figures are the highest of them), "
        f"{len(setup)} setup runs; records per pass: {records}; "
        "one ref is the time of the reference job run between commands"
    )
    print(f"fail_ratio: {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    return metrics


def inprocess_run(cli, cmd, checker, tally, out: Path, tracer=None) -> float:
    """Run one command through ``cli.main``; return its wall time."""
    gc.collect()
    traced = tracing.instrumented(cli, tracer) if tracer else contextlib.nullcontext()
    span = tracer.span(f"cli.{cmd.name}") if tracer else contextlib.nullcontext()
    with traced:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), span:
                code = cli.main(list(cmd.argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    errors = checker.check(cmd.name, out) if code == 0 else [f"exit {code}"]
    tally.record(cmd.name, errors)
    return wall


def traced_passes(workload, seed, cmds, checker, tally, work: Path, seconds: float, run_start):
    """In-process passes that run each command both untraced and traced.

    Running the two back to back, on the same heap, keeps drift between
    passes out of the tracing overhead.
    """
    import iprank.cli as cli

    out = work / "out"
    untraced, traced, layer_passes, tracers = [], [], [], []
    # The first in-process pass runs up to 20% slower (the heap is still
    # growing), which would swamp the overhead; it is checked but not timed.
    shutil.rmtree(out, ignore_errors=True)
    for cmd in cmds:
        inprocess_run(cli, cmd, checker, tally, out)
    measure_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        shutil.rmtree(out, ignore_errors=True)
        tracer = tracing.Tracer()
        untraced.append(0.0)
        traced.append(0.0)
        for k, cmd in enumerate(cmds):
            # Alternate which of the two goes first, so that the order
            # cancels out of the overhead.
            for mode in ((None, tracer) if (k + len(traced)) % 2 else (tracer, None)):
                wall = inprocess_run(cli, cmd, checker, tally, out, mode)
                if mode is None:
                    untraced[-1] += wall
                else:
                    traced[-1] += wall
        tracers.append(tracer)
        layer_passes.append(tracing.layer_metrics(tracer))
        now = time.perf_counter()
        took = now - pass_start
        print(f"pass {len(traced)}: untraced {untraced[-1]:.4f} s, traced {traced[-1]:.4f} s", flush=True)
        if now + took > min(measure_start + seconds, run_start + RUN_BUDGET_S):
            break
    values = tracing.summarize(layer_passes, traced, untraced)
    for line in tracing.layer_breakdown(tracers[-1]):
        print(line)
    units = dict(tracing.LAYER_METRICS)
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(
        f"samples: {len(traced)} traced and {len(untraced)} untraced passes; "
        "ipcore.spmv_flops and cli.bytes_hashed are computed, not measured; "
        "PageRank iterations and convergence: absent (weighted_pagerank does not return them)"
    )
    print(f"fail_ratio: {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted})")
    spans_file = WORK_ROOT / f"spans-{workload}-seed{seed}.jsonl"
    tracing.write_spans(tracers, spans_file)
    print(f"spans: {spans_file.relative_to(ROOT)}")
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def run_workload(workload: str, scale: str, seed: int, seconds: float, trace: bool, record=False):
    """One benchmark run; returns the result object and the artifact digests."""
    run_start = time.perf_counter()
    work = WORK_ROOT / f"{workload}-{scale}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        print(f"perfbench workload={workload} scale={scale} seed={seed} seconds={seconds} trace={int(trace)}")
        print(machine_facts())
        print(f"why: {workloads.WHY[workload]}")
        print(f"generator: {json.dumps(workloads.generator_params(workload, scale, seed))}")
        gen_start = time.perf_counter()
        inputs = workloads.generate(workload, scale, seed, work / "in")
        print(f"inputs: {json.dumps(inputs.records)} (generated in {time.perf_counter() - gen_start:.2f} s, not timed)")
        threads = len(os.sched_getaffinity(0))
        cmds = workloads.commands(workload, inputs, work / "out", threads)
        expected = None
        if seed == workloads.DEFAULT_SEED and not record:
            expected = checks.load_expected(f"{workload}/{scale}")
        checker = checks.ArtifactChecker(expected)
        tally = Tally()
        if trace:
            metrics = traced_passes(workload, seed, cmds, checker, tally, work, seconds, run_start)
        else:
            setup = measure_setup(work, tally, run_start + KILL_AFTER_S)
            passes, ratios, peak_kib = subprocess_passes(cmds, checker, tally, work, seconds, run_start)
            metrics = end_to_end(cmds, setup, passes, ratios, peak_kib, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, checker.first


def smoke() -> int:
    """Every workload once at tiny scale, untraced and traced, with artifact checks."""
    ok = True
    for workload in workloads.COMMANDS:
        for trace in (False, True):
            result, _ = run_workload(workload, "smoke", workloads.DEFAULT_SEED, 0, trace)
            ok = ok and result["correct"]
            print(json.dumps(result))
    print(json.dumps({"smoke": "passed" if ok else "failed"}))
    return 0 if ok else 1


def record_digests() -> int:
    """Rewrite digests.json from one default-seed pass of every workload and scale."""
    digests = {}
    for workload in workloads.COMMANDS:
        for scale in ("full", "smoke"):
            result, first = run_workload(workload, scale, workloads.DEFAULT_SEED, 0, False, record=True)
            if not result["correct"]:
                print(f"perfbench: {workload}/{scale} failed its checks; nothing written", file=sys.stderr)
                return 1
            digests[f"{workload}/{scale}"] = dict(sorted(first.items()))
    checks.DIGESTS_FILE.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=tuple(workloads.COMMANDS))
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_checkout_sources()
    if args.smoke:
        return smoke()
    if args.record_digests:
        return record_digests()
    result, _ = run_workload(args.workload, "full", args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
