"""Artifact checks: body digests and the invariants every artifact must keep.

A body is the artifact with its ``#manifest`` lines removed, so a tool
version bump or a different input path does not count as a wrong output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import ARTIFACTS

DIGESTS_FILE = Path(__file__).with_name("digests.json")
SUM_TOLERANCE = 1e-9


def body_digest(path: Path) -> str:
    lines = path.read_bytes().split(b"\n")
    body = b"\n".join(line for line in lines if not line.startswith(b"#manifest "))
    return hashlib.sha256(body).hexdigest()


def _rows(path: Path) -> list[list[str]]:
    text = path.read_text(encoding="utf-8")
    return [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]


def _unit_sum(values: list[float], what: str) -> str | None:
    total = math.fsum(values)
    if abs(total - 1.0) > SUM_TOLERANCE:
        return f"{what} sums to {total!r}, not 1"
    return None


def invariant_error(path: Path) -> str | None:
    """The first broken invariant of one artifact, or None."""
    rows = _rows(path)
    if not rows:
        return "no data rows"
    name = path.name
    if name == "ip_scores.tsv":
        return _unit_sum([float(r[1]) for r in rows], "influence") or _unit_sum(
            [float(r[2]) for r in rows], "passivity"
        )
    if name in ("pagerank.tsv", "measure_ip-influence.tsv"):
        return _unit_sum([float(r[1]) for r in rows], name)
    if name == "graph.tsv":
        header = path.read_text(encoding="utf-8").split("#nodes=", 1)[1].split("\n", 1)[0]
        nodes_text, arcs_text = header.split(" arcs=")
        arcs = [r for r in rows if r[1:] != ["-", "-"]]
        nodes = {r[0] for r in rows} | {r[1] for r in arcs}
        if (len(nodes), len(arcs)) != (int(nodes_text), int(arcs_text)):
            return f"header says {header!r}, lines give {len(nodes)} nodes, {len(arcs)} arcs"
    return None


def load_expected(key: str) -> dict[str, str]:
    """Recorded body digests for a workload and scale; empty, so every
    artifact fails, when none were recorded."""
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(key, {})


class ArtifactChecker:
    """Checks one command's artifacts after each run of it.

    The first run of a command is checked against the recorded digests when
    ``expected`` is given (the default seed), and against the invariants
    always; every later run must reproduce the first run's bodies exactly.
    """

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.expected = expected
        self.first: dict[str, str] = {}

    def check(self, command: str, out_dir: Path) -> list[str]:
        errors = []
        for name in ARTIFACTS[command]:
            path = out_dir / name
            if not path.is_file():
                errors.append(f"{name}: missing")
                continue
            digest = body_digest(path)
            if name in self.first:
                if digest != self.first[name]:
                    errors.append(f"{name}: differs from the first run")
                continue
            self.first[name] = digest
            if self.expected is not None and self.expected.get(name) != digest:
                errors.append(f"{name}: body digest {digest} is not the recorded one")
            problem = invariant_error(path)
            if problem:
                errors.append(f"{name}: {problem}")
        return errors
