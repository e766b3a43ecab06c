"""An output reference that does not go through the compiler under test.

The model's ``repro.mp`` terms are bound exactly as every system binds
them (same ``rng``), then the convolution is computed here directly in
float64 as a CSR segment reduction.  No lowering, plan, kernel or the
shared ``reference_aggregate`` is involved.
"""

from __future__ import annotations

import numpy as np

from repro.mp import build_model

#: allowed error per element, as a share of the sum of the magnitudes of
#: the terms the element is reduced from (float32 has 24 mantissa bits;
#: this leaves room for accumulation in any order over ~700 terms)
RELATIVE_TOL = 2.0 ** -13


def _segments(indptr: np.ndarray, values: np.ndarray, ufunc, empty: float) -> np.ndarray:
    """Reduce ``values`` over each destination's in-edge range."""
    n = indptr.size - 1
    out = np.full((n, *values.shape[1:]), empty, dtype=np.float64)
    starts = indptr[:-1]
    live = indptr[1:] > starts
    if live.any():
        out[live] = ufunc.reduceat(values, starts[live], axis=0)
    return out


def conv_reference(model: str, graph, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(float64 output, float64 magnitude bound) of one conv cell."""
    w = build_model(model, graph, X, rng=np.random.default_rng(0)).workload()
    indptr = graph.indptr.astype(np.int64)
    src = graph.indices.astype(np.int64)
    deg = np.diff(indptr)
    x = X.astype(np.float64)
    if w.attention is not None:
        dst = np.repeat(np.arange(graph.num_vertices), deg)
        logit = w.attention.att_src[src].astype(np.float64) + w.attention.att_dst[dst]
        logit = np.where(logit >= 0, logit, w.attention.negative_slope * logit)
        e = np.exp(logit - _segments(indptr, logit, np.maximum, 0.0)[dst])
        weight = e / _segments(indptr, e, np.add, 1.0)[dst]
    elif w.edge_weights is not None:
        weight = w.edge_weights.astype(np.float64)
    else:
        weight = np.ones(src.size)
    msgs = x[src] * weight[:, None]
    if w.reduce == "max":
        out = _segments(indptr, msgs, np.maximum, 0.0)
    else:
        out = _segments(indptr, msgs, np.add, 0.0)
    bound = _segments(indptr, np.abs(msgs), np.add, 0.0)
    if w.reduce == "mean":
        out /= np.maximum(deg, 1)[:, None]
        bound /= np.maximum(deg, 1)[:, None]
    if w.self_coeff is not None:
        own = w.self_coeff.astype(np.float64)[:, None] * x
        out += own
        bound += np.abs(own)
    return out, bound


def mismatch(output: np.ndarray, reference: tuple[np.ndarray, np.ndarray]) -> float:
    """Worst error of a float32 output, in units of its allowed error;
    ``<= 1`` passes."""
    out, bound = reference
    err = np.abs(output.astype(np.float64) - out)
    return float(np.max(err / (RELATIVE_TOL * bound + 1e-30), initial=0.0))
