"""Exactly solvable electron band in an exponentially decaying magnetic
field: eigenstates, ladder algebra, coherent states, uncertainty moments,
and the flat-field limit, each backed by an independent numerical route.

The package namespace re-exports every name in each submodule's
``__all__``.
"""

from . import errors, specfun, quadrature, model, states, algebra, coherent, moments, verify

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, specfun, quadrature, model, states, algebra, coherent, moments, verify):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
