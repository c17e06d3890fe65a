"""Influence-passivity fixed-point scoring over weighted influence graphs.

Per arc (i, j) with weight w_ij the acceptance rate is w_ij normalized by
everything j accepted, and the rejection rate is (1 - w_ij) normalized by
everything i's audience rejected from i:

    u_ij = w_ij / sum_k w_kj          over arcs (k, j)
    v_ij = (1 - w_ij) / sum_k (1 - w_ik)   over arcs (i, k)

Each iteration first forms raw passivity from the previous influence via the
rejection rates, then raw influence from that raw passivity via the
acceptance rates, and finally normalizes both vectors to unit sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGraph,
    EmptyGraph,
    InvalidParams,
    NodeSetMismatch,
)
from .graphs import InfluenceGraph


@dataclass(frozen=True, slots=True)
class IpParams:
    """Stopping controls: fixed iteration cap plus an early-exit threshold."""

    max_iterations: int = 100
    epsilon: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise InvalidParams(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.epsilon >= 0.0:
            raise InvalidParams(f"epsilon must be >= 0, got {self.epsilon}")


@dataclass(frozen=True, slots=True)
class RateView:
    """Acceptance and rejection rates, both keyed by arc (source, target)."""

    acceptance: dict[tuple[str, str], float]
    rejection: dict[tuple[str, str], float]


@dataclass(frozen=True, slots=True)
class ScorePair:
    """Normalized influence and passivity per node."""

    influence: dict[str, float]
    passivity: dict[str, float]
    iterations_run: int


@dataclass(frozen=True, slots=True)
class IterationTrace:
    """Per-iteration L1 change of the normalized score pair, plus the sums."""

    deltas: tuple[float, ...]
    influence_sums: tuple[float, ...]
    passivity_sums: tuple[float, ...]

    def converged(self, epsilon: float) -> bool:
        return bool(self.deltas) and self.deltas[-1] < epsilon


def _rate_arrays(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance and rejection rates aligned with the graph's arc arrays."""
    n = g.num_nodes
    w = g.weights
    in_sum = np.bincount(g.dst, weights=w, minlength=n)
    u = w / in_sum[g.dst]
    rej_sum = np.bincount(g.src, weights=1.0 - w, minlength=n)
    den = rej_sum[g.src]
    v = np.divide(1.0 - w, den, out=np.zeros_like(w), where=den > 0.0)
    return u, v


def compute_rates(g: InfluenceGraph) -> RateView:
    """Per-arc acceptance and rejection rates.

    When every outgoing weight of a node equals 1 the rejection denominator
    vanishes; all its rejection rates are then defined as 0.
    """
    u, v = _rate_arrays(g)
    ids = g.node_ids
    acceptance = {}
    rejection = {}
    for k in range(g.num_arcs):
        arc = (ids[g.src[k]], ids[g.dst[k]])
        acceptance[arc] = float(u[k])
        rejection[arc] = float(v[k])
    return RateView(acceptance, rejection)


def run_ip(
    g: InfluenceGraph, params: IpParams | None = None
) -> tuple[ScorePair, IterationTrace]:
    """Run the influence-passivity iteration to convergence or the cap.

    Starts from all-ones vectors. The recorded delta is the total absolute
    change of the normalized pair against the previous iteration (iteration 1
    compares against the all-ones start). Stops once the delta drops below
    ``params.epsilon`` or after ``params.max_iterations`` iterations; hitting
    the cap without converging is a reportable outcome, not an error.

    Raises :class:`EmptyGraph` when there are no arcs and
    :class:`DegenerateGraph` when a raw score vector sums to zero (possible
    only when every arc carrying influence mass has weight exactly 1).
    """
    # scipy.sparse costs about 0.26 s and 18 MB to import; only the kernels need it
    from scipy.sparse import csr_matrix

    if params is None:
        params = IpParams()
    if g.num_arcs == 0:
        raise EmptyGraph("influence graph has no arcs")
    n = g.num_nodes
    u, v = _rate_arrays(g)
    accept = csr_matrix((u, (g.src, g.dst)), shape=(n, n))
    reject_t = csr_matrix((v, (g.dst, g.src)), shape=(n, n))
    influence = np.ones(n)
    passivity = np.ones(n)
    deltas: list[float] = []
    i_sums: list[float] = []
    p_sums: list[float] = []
    for _ in range(params.max_iterations):
        raw_p = reject_t @ influence
        p_total = float(raw_p.sum())
        if p_total <= 0.0:
            raise DegenerateGraph("raw passivity sums to zero")
        raw_i = accept @ raw_p
        i_total = float(raw_i.sum())
        if i_total <= 0.0:
            raise DegenerateGraph("raw influence sums to zero")
        new_i = raw_i / i_total
        new_p = raw_p / p_total
        d = float(np.abs(new_i - influence).sum() + np.abs(new_p - passivity).sum())
        influence = new_i
        passivity = new_p
        deltas.append(d)
        i_sums.append(float(influence.sum()))
        p_sums.append(float(passivity.sum()))
        if d < params.epsilon:
            break
    ids = g.node_ids
    pair = ScorePair(
        influence=dict(zip(ids, influence.tolist())),
        passivity=dict(zip(ids, passivity.tolist())),
        iterations_run=len(deltas),
    )
    trace = IterationTrace(tuple(deltas), tuple(i_sums), tuple(p_sums))
    return pair, trace


def delta(prev: ScorePair, nxt: ScorePair) -> float:
    """Total absolute change between two score pairs over the same node set."""
    if (
        prev.influence.keys() != nxt.influence.keys()
        or prev.passivity.keys() != nxt.passivity.keys()
    ):
        raise NodeSetMismatch("score pairs cover different node sets")
    total = 0.0
    for user in sorted(prev.influence):
        total += abs(nxt.influence[user] - prev.influence[user])
    for user in sorted(prev.passivity):
        total += abs(nxt.passivity[user] - prev.passivity[user])
    return total


def scores_to_tsv(pair: ScorePair) -> str:
    """``user TAB influence TAB passivity`` with 17 significant digits."""
    lines = [
        f"{user}\t{pair.influence[user]:.17g}\t{pair.passivity[user]:.17g}"
        for user in sorted(pair.influence)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_tsv(trace: IterationTrace) -> str:
    lines = [f"{k}\t{d!r}" for k, d in enumerate(trace.deltas, start=1)]
    return "\n".join(lines) + ("\n" if lines else "")
