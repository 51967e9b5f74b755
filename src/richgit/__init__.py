"""Combinatorial smoothness tests for torus quotients of Richardson varieties.

The library decides, by pure combinatorics on index tuples and Young
diagrams, whether the torus GIT quotient of a Richardson variety X^v_w in
the Grassmannian G(k,n) (k, n coprime) is smooth, and provides the
singular-locus and semistability machinery behind that decision together
with exhaustive cross-validation at small (k, n).

Each module's __all__ is its public surface; the package exports their union.
``import richgit`` loads none of the modules.  The first use of an exported
name imports the module that defines it (PEP 562), together with what that
module imports, and the name is then an ordinary attribute of the package:
``richgit.analyze`` loads core, diagrams, singular and criteria, never oracle.
"""

from importlib import import_module

__version__ = "0.1.0"

# dependency order: each module imports only modules before it, so a search
# for a name loads nothing that the module defining it does not load anyway
_MODULES = ("core", "diagrams", "singular", "criteria", "oracle")


def _names() -> list[str]:
    """The modules' __all__ lists joined in alphabetical module order."""
    modules = [import_module(f".{short}", __name__) for short in sorted(_MODULES)]
    return [name for module in modules for name in module.__all__]


def __getattr__(name: str):
    if name in _MODULES:
        # importing a submodule binds it on the package
        return import_module(f".{name}", __name__)
    if name == "__all__":
        value = _names()
    else:
        # no exported name is a dunder, so the dunders that introspection
        # probes (inspect.unwrap, doctest) load no module
        for short in () if name.startswith("__") else _MODULES:
            module = import_module(f".{short}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_names()})
