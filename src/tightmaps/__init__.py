"""Exact-arithmetic classification and verification of tight maps between
Hermitian Lie algebras: root-system data, explicit symmetric-power models,
branching to regular subalgebras, bounded-class bookkeeping, and a
cross-checked classification engine.

The layer modules are lazy: importing the package puts each of them in
``sys.modules``, and binds it here, at once, but compiles and runs it only on
the first read of one of its attributes.  So a command runs only the layers
it uses.  Reach a layer's functions through the module (``from . import
branching`` then ``branching.restrict_rep``): ``from .branching import
restrict_rep``, like any import statement naming the module itself, reads
its ``__spec__`` and so runs it at once.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazy(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


# ``cli``, the entry point, runs at once; ``lemmas`` stays out of ``sys.modules``
# until ``verify`` imports it; ``rank2`` runs for a rank-two weight or class map
for _name in ("rootsys", "branching", "su11", "kahler", "classify", "rank2"):
    _register_lazy(_name)
del _name
