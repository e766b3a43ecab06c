"""repro.mp — the user-programmable message-passing frontend.

A conv is authored as a ``(MessageSpec, ReduceSpec)`` pair from a closed
term algebra; everything downstream — numeric workloads, framework
lowering stages, kernel effect tables, per-lane access patterns — is
derived from the terms:

* :mod:`repro.mp.spec` — the algebra (send scale terms, reduce ops,
  self-terms), validation, and compilation to
  :class:`~repro.models.convspec.ConvWorkload`,
* :mod:`repro.mp.builtins` — the model zoo as UDF instances plus the
  ``register`` extension point for user models,
* :mod:`repro.mp.layer` — :class:`Layer`, one GNN layer (dense transform
  + conv) over any registered spec,
* :mod:`repro.mp.lower` — spec-driven framework lowering (DGL stage
  plans, the unfused softmax staging, ``supports()`` feature predicates),
* :mod:`repro.mp.derive` — effect/access table derivation from a kernel's
  :class:`~repro.mp.derive.KernelMapping`.
"""

from .builtins import (
    BUILTIN_SPECS,
    build_model,
    is_registered,
    register,
    registered_models,
    resolve,
    unregister,
)
from .derive import (
    KernelMapping,
    derive_access,
    derive_effects,
    softmax_stage_access,
)
from .layer import Layer
from .lower import (
    GlueStage,
    ModelFeatures,
    SoftmaxStage,
    SpmmStage,
    dgl_stage_plan,
    model_features,
    softmax_stages,
)
from .spec import (
    AttentionLogit,
    EdgeScalar,
    MessageSpec,
    MPModel,
    ReduceSpec,
    SelfTerm,
    SymNorm,
    bind,
    gcn_norm,
    validate,
)

__all__ = [
    "AttentionLogit",
    "BUILTIN_SPECS",
    "EdgeScalar",
    "GlueStage",
    "KernelMapping",
    "Layer",
    "MPModel",
    "MessageSpec",
    "ModelFeatures",
    "ReduceSpec",
    "SelfTerm",
    "SoftmaxStage",
    "SpmmStage",
    "SymNorm",
    "bind",
    "build_model",
    "derive_access",
    "derive_effects",
    "dgl_stage_plan",
    "gcn_norm",
    "is_registered",
    "model_features",
    "register",
    "registered_models",
    "resolve",
    "softmax_stage_access",
    "softmax_stages",
    "unregister",
    "validate",
]
