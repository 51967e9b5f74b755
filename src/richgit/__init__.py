"""Combinatorial smoothness tests for torus quotients of Richardson varieties.

The library decides, by pure combinatorics on index tuples and Young
diagrams, whether the torus GIT quotient of a Richardson variety X^v_w in
the Grassmannian G(k,n) (k, n coprime) is smooth, and provides the
singular-locus and semistability machinery behind that decision together
with exhaustive cross-validation at small (k, n).

Each module's __all__ is its public surface; the package exports their union.
"""

from .core import *
from .criteria import *
from .diagrams import *
from .oracle import *
from .singular import *

__version__ = "0.1.0"

__all__ = (
    core.__all__
    + criteria.__all__
    + diagrams.__all__
    + oracle.__all__
    + singular.__all__
)
