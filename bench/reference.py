"""Independent optima and the correctness gate for benchmark jobs.

The optima come from ``scipy.sparse.csgraph`` rather than from the
package's own oracles, so the gate also covers jobs beyond
``ORACLE_SIZE_LIMIT`` and streamed jobs that ``--verify`` cannot check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    maximum_bipartite_matching,
    maximum_flow,
    min_weight_full_bipartite_matching,
)


def _rows_cols(inst):
    edges = np.asarray(inst.edges, dtype=np.int64).reshape(-1, 3)
    return edges[:, 0], edges[:, 1], edges[:, 2]


def reference_mcm(inst) -> int:
    """Maximum matching size, ignoring weights."""
    rows, cols, _ = _rows_cols(inst)
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                       shape=(inst.n_l, inst.n_r))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(match >= 0))


def reference_mwm(inst) -> int:
    """Maximum matching weight.

    Every bidder gets a dummy item of its own at cost ``w_max + 1`` (a
    weight-0 match), real edges cost ``w_max + 1 - w``, and a minimum-cost
    full matching of the bidders then maximises the real weight. The
    weight is summed in integers from the returned pairs.
    """
    rows, cols, weights = _rows_cols(inst)
    w_max = int(weights.max())
    bidders = np.arange(inst.n_l, dtype=np.int64)
    graph = csr_matrix(
        (np.concatenate([w_max + 1 - weights, np.full(inst.n_l, w_max + 1)]),
         (np.concatenate([rows, bidders]), np.concatenate([cols, inst.n_r + bidders]))),
        shape=(inst.n_l, inst.n_r + inst.n_l))
    row_ind, col_ind = min_weight_full_bipartite_matching(graph)
    weight_of = {(i, j): w for i, j, w in inst.edges}
    return sum(weight_of[(int(i), int(j))]
               for i, j in zip(row_ind, col_ind) if j < inst.n_r)


def reference_mcbm(inst) -> int:
    """Maximum b-matching size as an integral max-flow."""
    n_l, n_r = inst.n_l, inst.n_r
    source, sink = n_l + n_r, n_l + n_r + 1
    rows, cols, _ = _rows_cols(inst)
    bidders = np.arange(n_l)
    items = np.arange(n_r)
    tails = np.concatenate([np.full(n_l, source), rows, n_l + items])
    heads = np.concatenate([bidders, n_l + cols, np.full(n_r, sink)])
    caps = np.concatenate([inst.b_l, np.ones(len(rows), dtype=np.int64), inst.b_r])
    network = csr_matrix((caps.astype(np.int32), (tails, heads)),
                         shape=(n_l + n_r + 2, n_l + n_r + 2))
    return int(maximum_flow(network, source, sink).flow_value)


REFERENCES = {"mcm": reference_mcm, "mwm": reference_mwm, "mcbm": reference_mcbm}


def guaranteed_fraction(algo: str, mode: str, kernel: str, k: int, n_l: int) -> Fraction:
    """The share of the optimum a job's engine promises at eps = 1/k.

    The cardinality engine is exact once eps < 1/n_l. Streamed weighted
    runs use the stream-order kernel, which carries the deterministic
    bound.
    """
    if algo == "mcm" and k > n_l:
        return Fraction(1)
    if algo in ("mcm", "mcbm"):
        return Fraction(k - 2, k)
    if mode == "gp":
        return Fraction(k, k + 16)
    if kernel == "rand":
        return Fraction(k - 7, k)
    return Fraction(k - 6, k)


def check_value(value, optimum: int, fraction: Fraction) -> str | None:
    """None when ``value`` lies in ``[fraction * optimum, optimum]``,
    otherwise the reason the job fails."""
    if not isinstance(value, int) or isinstance(value, bool):
        return f"result value {value!r} is not an integer"
    if value > optimum:
        return f"value {value} exceeds the optimum {optimum}"
    if value < fraction * optimum:
        return f"value {value} below {fraction} x optimum {optimum}"
    return None
