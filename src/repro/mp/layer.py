"""One GNN layer over any registered spec: dense phase, then one conv.

The paper's layer pattern is a dense transform followed by a graph
convolution.  :class:`Layer` states it once for every model: the conv is
the ``(MessageSpec, ReduceSpec)`` pair :func:`~repro.mp.resolve` returns,
and whatever a model needs beyond the shared ``X @ weight (+ bias)`` is
read off the spec's terms, never off the model name:

* an :class:`~repro.mp.spec.AttentionLogit` scale gets its attention
  vectors drawn once, at :meth:`Layer.init`, so every forward reuses them;
* a ``concat`` self-term (GraphSAGE) adds a ``self_weight`` transform of
  the layer input after the conv.

Compositions stay with the caller: multi-head attention is a list of
layers, GIN is a layer followed by :func:`~repro.models.functional.linear`,
and R-GCN sums one ``rgcn`` layer per relation graph.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..models import functional as F
from ..models.convspec import ConvWorkload, reference_aggregate
from .builtins import resolve
from .spec import AttentionLogit, MessageSpec, ReduceSpec, bind, validate

__all__ = ["Layer"]


def _concat_self(reduce: ReduceSpec) -> bool:
    st = reduce.self_term
    return st is not None and st.kind == "concat"


@dataclass(eq=False)
class Layer:
    """``act(conv(X @ weight + bias) [+ X @ self_weight])`` for one spec."""

    model: str
    message: MessageSpec
    reduce: ReduceSpec
    weight: np.ndarray  # (F_in, F_out), applied before the conv
    bias: np.ndarray | None = None  # (F_out,)
    self_weight: np.ndarray | None = None  # (F_in, F_out), concat self-term

    def __post_init__(self) -> None:
        validate(self.message, self.reduce)
        if _concat_self(self.reduce) != (self.self_weight is not None):
            raise ValueError(
                "self_weight is required by, and only by, a concat self-term"
            )

    @classmethod
    def init(
        cls, model: str, in_dim: int, out_dim: int, rng: np.random.Generator
    ) -> Layer:
        """Xavier weights (and attention vectors) for registered ``model``."""
        message, reduce_ = resolve(model)
        weight = F.xavier_uniform((in_dim, out_dim), rng)
        scale = message.scale
        if isinstance(scale, AttentionLogit):
            message = dataclasses.replace(
                message,
                scale=dataclasses.replace(
                    scale,
                    a_src=F.xavier_uniform((out_dim, 1), rng)[:, 0],
                    a_dst=F.xavier_uniform((out_dim, 1), rng)[:, 0],
                ),
            )
        self_weight = (
            F.xavier_uniform((in_dim, out_dim), rng)
            if _concat_self(reduce_)
            else None
        )
        return cls(
            model=model.lower(),
            message=message,
            reduce=reduce_,
            weight=weight,
            bias=np.zeros(out_dim, dtype=np.float32),
            self_weight=self_weight,
        )

    def workload(self, graph: CSRGraph, X: np.ndarray) -> ConvWorkload:
        """The conv phase of this layer on ``(graph, X)``."""
        h = F.linear(X, self.weight, self.bias)
        return bind(self.model, self.message, self.reduce, graph, h).workload()

    def forward(
        self, graph: CSRGraph, X: np.ndarray, *, activation: bool = True
    ) -> np.ndarray:
        out = reference_aggregate(self.workload(graph, X))
        if self.self_weight is not None:
            out = out + F.linear(X, self.self_weight)
        return F.relu(out) if activation else out
