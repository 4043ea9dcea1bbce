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

A call to ``dpotrf``, ``dpotrs``, ``dpotri``, ``dsyr`` or ``dgemv`` whose
order is below ``_SERIAL_BELOW`` runs on one OpenBLAS thread. The order is
the first dimension of the routine's matrix (for ``dsyr``, of its vector),
passed positionally. At these orders a threaded call is often slower than
one thread, most of all when it must first wake an idle worker, and the
worker then spins on the core the next numpy pass needs. Each of the five
names wraps scipy's routine: it reads the library's thread count, sets it
to 1 for the call and restores it in a ``finally``, all under one lock,
because the count is process-wide and the bits of a result depend on it.
scipy's f2py wrappers hold the GIL during the call, so the lock serializes
nothing that ran in parallel before. A count that is already 1
(``OPENBLAS_NUM_THREADS=1``, or one CPU) is left alone, and so is every
call at a larger order. ``dtrtrs`` is scipy's own routine, threaded as
the library is. The thread functions come from scipy's bundled
``libscipy_openblas`` (in ``scipy.libs``, or ``scipy/.dylibs`` on macOS),
through ctypes. Where there is none, as with a conda or MKL build, all six
names are scipy's own routines.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading

import scipy

__all__ = ["dgemv", "dpotrf", "dpotri", "dpotrs", "dsyr", "dtrtrs"]

# Calls of a smaller order run on one thread. Median ms per call, 2 threads
# / 1 thread, on a 2-vCPU VM (OpenBLAS 0.3.30, OPENBLAS_THREAD_TIMEOUT=16 as
# the command sets it), 7-9 calls each with an elementwise numpy pass
# between them, as in ``fit`` and ``score``; a range spans runs. The worker
# sleeps between such calls, and below 512 a threaded ``dpotrf`` or
# ``dpotri`` that had to wake it was often many times slower; from 520 up
# two threads win for ``dpotri``. ``dpotrf`` is about even up to 750, which
# costs less than ``dpotri`` gains in the same evaluation, so one constant
# serves both. ``dpotrs`` and ``dgemv`` (m x 256) are even at every order;
# on one thread they leave no worker spinning after them.
#
#   order   dpotrf        dpotri       dsyr
#   300     0.4-58 / 0.4  12 / 1.3     0.06 / 0.02
#   500     1.4-31 / 1.3  16 / 3.9     0.10 / 0.06
#   520     1.4 / 1.2     2.2 / 3.5    0.2 / 0.06
#   600     2.5 / 2.3     3.6 / 5.6    0.08 / 0.10
#   750     4.2 / 3.9     6.2 / 9.6    0.11 / 0.14
#   1000    6.3 / 8.4     9.4 / 17     0.28 / 0.22
#   1500    17 / 28       37 / 52      0.64 / 0.75
#
# ``dtrtrs`` is not switched: its solves of 256 right-hand sides split well
# on two threads even at m=500 while the worker is awake. With it on one
# thread too, a lone bench ``sweep`` (m=500) took 0.70 s against 0.54 s
# with the worker kept awake (OPENBLAS_THREAD_TIMEOUT=28); with the worker
# asleep between calls, keeping it threaded cost the sweep about 4%.
_SERIAL_BELOW = 512


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


def _thread_functions():
    """``(get, set)`` of the thread count of scipy's bundled OpenBLAS, or ``(None, None)``."""
    package = os.path.dirname(scipy.__file__)
    for directory in (os.path.join(os.path.dirname(package), "scipy.libs"),
                      os.path.join(package, ".dylibs")):
        try:
            names = sorted(os.listdir(directory))
        except OSError:
            continue
        for name in names:
            if not name.startswith("libscipy_openblas"):
                continue
            try:
                library = ctypes.CDLL(os.path.join(directory, name))
                get, set_ = (library.scipy_openblas_get_num_threads,
                             library.scipy_openblas_set_num_threads)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None, None


_flapack = _extension("_flapack")
_fblas = _extension("_fblas")
_get_threads, _set_threads = _thread_functions()
_lock = threading.Lock()


def _by_order(routine, operand: int):
    """``routine``, on one thread when its positional argument ``operand`` is of a small order."""
    if _set_threads is None:
        return routine

    @functools.wraps(routine)
    def call(*args, **kwargs):
        with _lock:
            threads = _get_threads()
            if threads < 2 or len(args) <= operand or len(args[operand]) >= _SERIAL_BELOW:
                return routine(*args, **kwargs)
            _set_threads(1)
            try:
                return routine(*args, **kwargs)
            finally:
                _set_threads(threads)

    return call


dpotrf = _by_order(_flapack.dpotrf, 0)
dpotrs = _by_order(_flapack.dpotrs, 0)
dpotri = _by_order(_flapack.dpotri, 0)
dtrtrs = _flapack.dtrtrs
dsyr = _by_order(_fblas.dsyr, 1)
dgemv = _by_order(_fblas.dgemv, 1)
