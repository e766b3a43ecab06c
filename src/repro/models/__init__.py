"""The numeric carrier of GNN models: the shared ConvWorkload description
kernels consume, dense/segment functional ops, the ``build_conv``
dispatch over the :mod:`repro.mp` registry, and GCN training.

Models themselves are described one way, as :mod:`repro.mp` specs; a full
layer over any of them is :class:`repro.mp.Layer`."""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from . import functional
from .convspec import AttentionSpec, ConvWorkload, reference_aggregate
from .training import GCNClassifier, cross_entropy, normalized_adjacency

__all__ = [
    "functional",
    "ConvWorkload",
    "AttentionSpec",
    "reference_aggregate",
    "GCNClassifier",
    "cross_entropy",
    "normalized_adjacency",
    "MODEL_NAMES",
    "build_conv",
]

#: The four models of the paper's evaluation, in table order.
MODEL_NAMES = ("gcn", "gin", "sage", "gat")


def build_conv(
    model: str,
    graph: CSRGraph,
    X: np.ndarray,
    *,
    rng: np.random.Generator | None = None,
) -> ConvWorkload:
    """Build the graph-convolution workload of ``model`` on ``graph``/``X``.

    Dispatches through the :mod:`repro.mp` UDF registry, so any model
    registered with :func:`repro.mp.register` — not just the builtin zoo —
    resolves here.  GAT needs attention vectors; they are drawn from
    ``rng`` (default seeded) so repeated builds are reproducible.
    """
    from ..mp import build_model

    try:
        return build_model(model, graph, X, rng=rng).workload()
    except KeyError:
        raise ValueError(
            f"unknown model {model!r}; known: {MODEL_NAMES}"
        ) from None
