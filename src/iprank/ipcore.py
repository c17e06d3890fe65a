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

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateGraph, EmptyGraph, InvalidParams
from .graphs import InfluenceGraph
from .ingest import _Frozen, _set, _sorted_ids, _tsv_rows


class IpParams(_Frozen):
    """Stopping controls: fixed iteration cap plus an early-exit threshold."""

    __slots__ = ("max_iterations", "epsilon")

    def __init__(self, max_iterations: int = 100, epsilon: float = 1e-9) -> None:
        if max_iterations < 1:
            raise InvalidParams(f"max_iterations must be >= 1, got {max_iterations}")
        if not epsilon >= 0.0:
            raise InvalidParams(f"epsilon must be >= 0, got {epsilon}")
        _set(self, "max_iterations", max_iterations)
        _set(self, "epsilon", epsilon)


def _set_scores(obj: _Frozen, node_ids: Sequence[str], **scores: object) -> None:
    """Check that ``node_ids`` ascend strictly and store them, and each of
    ``scores`` as a float64 array aligned with them, on ``obj``; NaN is
    rejected. A float64 array is kept as given, not copied, and made
    read-only, as :class:`ActivityLog` does with its columns."""
    ids = _sorted_ids(node_ids)
    _set(obj, "node_ids", ids)
    for name, values in scores.items():
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (len(ids),) or np.isnan(values).any():
            raise ValueError(f"{name} must be {len(ids)} scores, none of them NaN")
        values.flags.writeable = False
        _set(obj, name, values)


class ScorePair(_Frozen):
    """Normalized influence and passivity per node.

    ``node_ids`` is strictly ascending and both score arrays are aligned with
    it, so array position is id order.
    """

    __slots__ = ("node_ids", "influence", "passivity", "iterations_run")

    def __init__(
        self, node_ids: Sequence[str], influence: object, passivity: object, iterations_run: int
    ) -> None:
        _set_scores(self, node_ids, influence=influence, passivity=passivity)
        _set(self, "iterations_run", iterations_run)


class IterationTrace(NamedTuple):
    """Per-iteration L1 change of an iterative measure's scores; for IP, of
    the normalized score pair."""

    deltas: tuple[float, ...]

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


def _arc_sum(
    x: np.ndarray, at: np.ndarray, rate: np.ndarray, to: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """Per node k, the sum of ``rate * x[at]`` over the arcs whose ``to`` end
    is k, added in arc order. ``buf`` is an arc-length scratch array, so the
    only allocation is the result."""
    # "clip" writes straight into buf ("raise" would buffer); the graph
    # constructor checked every index
    np.take(x, at, out=buf, mode="clip")
    np.multiply(buf, rate, out=buf)
    sums = np.bincount(to, weights=buf, minlength=x.size)
    return sums.astype(np.float64, copy=False)  # int zeros when there are no arcs


def _l1_change(new: np.ndarray, old: np.ndarray) -> float:
    """``sum(|new - old|)``, computed in ``old``'s storage, which it overwrites."""
    np.subtract(new, old, out=old)
    return float(np.abs(old, out=old).sum())


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
    if params is None:
        params = IpParams()
    if g.num_arcs == 0:
        raise EmptyGraph("influence graph has no arcs")
    n = g.num_nodes
    u, v = _rate_arrays(g)
    products = np.empty(g.num_arcs)
    influence = np.ones(n)
    passivity = np.ones(n)
    deltas: list[float] = []
    for _ in range(params.max_iterations):
        raw_p = _arc_sum(influence, g.src, v, g.dst, products)
        p_total = float(raw_p.sum())
        if p_total <= 0.0:
            raise DegenerateGraph("raw passivity sums to zero")
        raw_i = _arc_sum(raw_p, g.dst, u, g.src, products)
        i_total = float(raw_i.sum())
        if i_total <= 0.0:
            raise DegenerateGraph("raw influence sums to zero")
        raw_i /= i_total
        raw_p /= p_total
        d = _l1_change(raw_i, influence) + _l1_change(raw_p, passivity)
        influence = raw_i
        passivity = raw_p
        deltas.append(d)
        if d < params.epsilon:
            break
    return ScorePair(g.node_ids, influence, passivity, len(deltas)), IterationTrace(tuple(deltas))


def scores_to_tsv(pair: ScorePair) -> str:
    """``user TAB influence TAB passivity`` with 17 significant digits."""
    columns = pair.node_ids, pair.influence.tolist(), pair.passivity.tolist()
    return _tsv_rows(("%s", "%.17g", "%.17g"), *columns)


def trace_to_tsv(trace: IterationTrace) -> str:
    return _tsv_rows(("%d", "%r"), range(1, len(trace.deltas) + 1), trace.deltas)
