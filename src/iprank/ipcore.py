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

from .errors import DegenerateGraph, EmptyGraph, InvalidParams
from .graphs import InfluenceGraph, _sorted_ids


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


def _set_scores(obj: object, *fields: str) -> None:
    """Check that ``obj.node_ids`` ascend strictly and store each named field
    as a float64 array aligned with them; NaN is rejected."""
    ids = _sorted_ids(obj.node_ids)
    object.__setattr__(obj, "node_ids", ids)
    for name in fields:
        values = np.asarray(getattr(obj, name), dtype=np.float64)
        if values.shape != (len(ids),) or np.isnan(values).any():
            raise ValueError(f"{name} must be {len(ids)} scores, none of them NaN")
        object.__setattr__(obj, name, values)


def _same_scores(a: object, b: object, *fields: str) -> bool:
    return a.node_ids == b.node_ids and all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in fields
    )


@dataclass(frozen=True, slots=True, eq=False)
class ScorePair:
    """Normalized influence and passivity per node.

    ``node_ids`` is strictly ascending and both score arrays are aligned with
    it, so array position is id order.
    """

    node_ids: tuple[str, ...]
    influence: np.ndarray
    passivity: np.ndarray
    iterations_run: int

    def __post_init__(self) -> None:
        _set_scores(self, "influence", "passivity")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScorePair):
            return NotImplemented
        same = _same_scores(self, other, "influence", "passivity")
        return same and self.iterations_run == other.iterations_run


@dataclass(frozen=True, slots=True)
class IterationTrace:
    """Per-iteration L1 change of the normalized score pair, plus the sums."""

    deltas: tuple[float, ...]
    influence_sums: tuple[float, ...]
    passivity_sums: tuple[float, ...]

    def converged(self, epsilon: float) -> bool:
        return bool(self.deltas) and self.deltas[-1] < epsilon


def _rate_arrays(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance and rejection rates aligned with the graph's arc arrays.

    When every outgoing weight of a node equals 1 the rejection denominator
    vanishes; all its rejection rates are then defined as 0.
    """
    n = g.num_nodes
    w = g.weights
    in_sum = np.bincount(g.dst, weights=w, minlength=n)
    u = w / in_sum[g.dst]
    rej_sum = np.bincount(g.src, weights=1.0 - w, minlength=n)
    den = rej_sum[g.src]
    v = np.divide(1.0 - w, den, out=np.zeros_like(w), where=den > 0.0)
    return u, v


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
    pair = ScorePair(g.node_ids, influence, passivity, len(deltas))
    trace = IterationTrace(tuple(deltas), tuple(i_sums), tuple(p_sums))
    return pair, trace


def scores_to_tsv(pair: ScorePair) -> str:
    """``user TAB influence TAB passivity`` with 17 significant digits."""
    lines = [
        f"{user}\t{i:.17g}\t{p:.17g}"
        for user, i, p in zip(pair.node_ids, pair.influence.tolist(), pair.passivity.tolist())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_to_tsv(trace: IterationTrace) -> str:
    lines = [f"{k}\t{d!r}" for k, d in enumerate(trace.deltas, start=1)]
    return "\n".join(lines) + ("\n" if lines else "")
