"""Combinatorial smoothness tests for torus quotients of Richardson varieties.

The library decides, by pure combinatorics on index tuples and Young
diagrams, whether the torus GIT quotient of a Richardson variety X^v_w in
the Grassmannian G(k,n) (k, n coprime) is smooth, and provides the
singular-locus and semistability machinery behind that decision together
with exhaustive cross-validation at small (k, n).
"""

from .core import (
    ContextMismatch,
    EmptyRichardson,
    GrassCtx,
    GrassError,
    GrassIndex,
    NotStrictlyIncreasing,
    OutOfRange,
    RichardsonId,
    WrongLength,
    enumerate_indices,
    indices_above,
    indices_below,
    length,
    make_index,
    richardson_dim,
)
from .criteria import (
    EMPTY_QUOTIENT,
    SINGULAR,
    SMOOTH,
    AnalysisReport,
    ComponentReport,
    MinimalPair,
    NotCoprime,
    analyze,
    has_semistable,
    minimal_pair,
)
from .diagrams import (
    BoxedPartition,
    NotAValley,
    complement_index,
    find_valleys,
    from_partition,
    remove_hook,
    render_skew,
    to_partition,
)
from .oracle import (
    CensusReport,
    ExampleCheck,
    OracleMismatch,
    PatternMismatch,
    VerifyReport,
    census,
    default_contexts,
    hook_oracle_components,
    oracle_sweep,
    verify,
)
from .singular import (
    OPPOSITE_SIDE,
    SCHUBERT_SIDE,
    SingularComponent,
    opposite_singular_components,
    richardson_singular_components,
    schubert_singular_components,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BoxedPartition",
    "CensusReport",
    "ComponentReport",
    "ContextMismatch",
    "EMPTY_QUOTIENT",
    "EmptyRichardson",
    "ExampleCheck",
    "GrassCtx",
    "GrassError",
    "GrassIndex",
    "MinimalPair",
    "NotAValley",
    "NotCoprime",
    "NotStrictlyIncreasing",
    "OPPOSITE_SIDE",
    "OracleMismatch",
    "OutOfRange",
    "PatternMismatch",
    "RichardsonId",
    "SCHUBERT_SIDE",
    "SINGULAR",
    "SMOOTH",
    "SingularComponent",
    "VerifyReport",
    "WrongLength",
    "analyze",
    "census",
    "complement_index",
    "default_contexts",
    "enumerate_indices",
    "find_valleys",
    "from_partition",
    "has_semistable",
    "hook_oracle_components",
    "indices_above",
    "indices_below",
    "length",
    "make_index",
    "minimal_pair",
    "opposite_singular_components",
    "oracle_sweep",
    "remove_hook",
    "render_skew",
    "richardson_dim",
    "richardson_singular_components",
    "schubert_singular_components",
    "to_partition",
    "verify",
]
