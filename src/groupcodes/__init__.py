"""Exact decision procedures for the controllability hierarchy of
finitely generated subgroups of products of finite abelian groups,
torsion subgroups of torus powers included.

Everything is integer or rational arithmetic; no result is approximate
unless an explicit tolerance parameter says so.

The ``families``, ``structure`` and ``torus`` modules run on first use.
They sit in ``sys.modules`` as lazy modules (``importlib.util.LazyLoader``),
and a module ``__getattr__`` (PEP 562) serves the names re-exported from
them, so ``import groupcodes.cli`` runs none of their code.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

from .control import (
    CONTROLLABLE,
    CONTROLLABLE_AT,
    K_CONTROLLABLE,
    STRONGLY_CONTROLLABLE,
    UNIFORMLY_CONTROLLABLE,
    WEAKLY_CONTROLLABLE,
    Certificate,
    DefectProfile,
    EqualityClaim,
    Verdict,
    Witness,
    WindowOracle,
    controllable_at,
    hierarchy_consistent,
    is_controllable,
    is_k_controllable,
    is_strongly_controllable,
    is_uniformly_controllable,
    is_weakly_controllable_discrete,
    strong_index,
    translate_from_Z,
    uniformity_defect,
    verify_verdict,
    with_full_past,
)
from .errors import (
    CapExceeded,
    ChainNotStrict,
    GroupcodesError,
    InternalInconsistency,
    ParseError,
    PreconditionFailed,
    SchemaMismatch,
)
from .finabel import (
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    direct_sum,
    enumerate_subgroup,
    full,
    invariant_factors,
    member,
    row_span,
    span,
    subgroup_equal,
    subgroup_le,
    trivial,
)
from .seqspace import (
    INFINITE,
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    WindowCodec,
    constant,
    delta,
    effective_window,
    enumerate_elements,
    from_values,
    intersect_directsum,
    intersect_sum_window,
    project,
    subgroup_order,
    subgroups_equal,
    support,
    uniform_schema,
    window_subgroup,
)


def _lazy(name: str):
    """Register the submodule ``name`` in ``sys.modules``; its code runs on the first attribute access."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


families, structure, torus = map(_lazy, ("families", "structure", "torus"))


def __getattr__(name: str):
    """The names of ``__all__`` not bound above, read from ``structure`` or ``torus``."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(structure if name in ("DecompositionReport", "decompose") else torus, name)


__all__ = [
    "__version__",
    "CONTROLLABLE",
    "CONTROLLABLE_AT",
    "K_CONTROLLABLE",
    "STRONGLY_CONTROLLABLE",
    "UNIFORMLY_CONTROLLABLE",
    "WEAKLY_CONTROLLABLE",
    "Certificate",
    "DefectProfile",
    "EqualityClaim",
    "Verdict",
    "Witness",
    "WindowOracle",
    "controllable_at",
    "hierarchy_consistent",
    "is_controllable",
    "is_k_controllable",
    "is_strongly_controllable",
    "is_uniformly_controllable",
    "is_weakly_controllable_discrete",
    "strong_index",
    "translate_from_Z",
    "uniformity_defect",
    "verify_verdict",
    "with_full_past",
    "CapExceeded",
    "ChainNotStrict",
    "GroupcodesError",
    "InternalInconsistency",
    "ParseError",
    "PreconditionFailed",
    "SchemaMismatch",
    "FiniteAbelianGroup",
    "GroupElement",
    "Subgroup",
    "direct_sum",
    "enumerate_subgroup",
    "full",
    "invariant_factors",
    "member",
    "span",
    "row_span",
    "subgroup_equal",
    "subgroup_le",
    "trivial",
    "INFINITE",
    "CoordSchema",
    "ProductSubgroup",
    "SeqElement",
    "WindowCodec",
    "constant",
    "delta",
    "effective_window",
    "enumerate_elements",
    "from_values",
    "intersect_directsum",
    "intersect_sum_window",
    "project",
    "subgroup_order",
    "subgroups_equal",
    "support",
    "uniform_schema",
    "window_subgroup",
    "DecompositionReport",
    "decompose",
    "TorusSeq",
    "TorusSeqSubgroup",
    "approximate_constant",
    "build_fk",
    "circle_dist",
    "closure_diff_check",
    "constant_seq",
    "in_span",
    "noncontrollability_witness",
    "qz",
    "qz_order",
    "qz_str",
    "to_product_subgroup",
]
