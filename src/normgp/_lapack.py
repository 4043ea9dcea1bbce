"""The six LAPACK and BLAS routines the GP calls, from scipy's extension modules.

They live in two compiled modules, ``_flapack`` and ``_fblas``, which load
in about 10 ms and 3.5 MB after the top-level ``scipy`` package (about
20 ms). The ``scipy.linalg`` package costs 0.27-0.30 s and 16 MB more
(2-vCPU VM, scipy 1.17), because its set-up clones numpy's namespace for
scipy's array-API layer and so imports ``numpy.f2py``, ``numpy.testing``
and ``numpy.ma``.

So this module imports only the top-level ``scipy`` package and loads the
two from its ``linalg`` directory under their own names. A later ``import
scipy.linalg`` (``fit``'s ``scipy.optimize`` makes one) reuses the same
module objects, and modules already loaded are reused here. The package
then lacks ``_flapack`` and ``_fblas`` attributes; ``from scipy.linalg
import _flapack``, as scipy writes it, still works.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy

__all__ = ["dgemv", "dpotrf", "dpotri", "dpotrs", "dsyr", "dtrtrs"]


def _extension(name: str):
    """scipy's compiled ``scipy.linalg.<name>``, loaded once into ``sys.modules``."""
    full = f"scipy.linalg.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec(full, [directory])
    if spec is None:
        raise ImportError(f"scipy extension module {name} not found in {directory}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    return module


_flapack = _extension("_flapack")
_fblas = _extension("_fblas")

dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dpotri = _flapack.dpotri
dtrtrs = _flapack.dtrtrs
dsyr = _fblas.dsyr
dgemv = _fblas.dgemv
