"""The native solver: built on first import, else the fallback.

``_kernel.c`` transliterates :func:`repro.solver.kernel.run_kernel`,
the chain search and the cycle collapse it calls
(:meth:`~repro.graph.base.ConstraintGraphBase.collapse_path` and
``_absorb``) into C, and with them the steps of a batch solve around
the closure: :meth:`ConstraintSystem.validate
<repro.constraints.ConstraintSystem.validate>`, the random order's
ranks, :meth:`finalize_statistics
<repro.graph.base.ConstraintGraphBase.finalize_statistics>` and both
forms' ``compute_least_solution``.  Loading it also gives
:class:`~repro.constraints.expressions.Term` and ``Var`` a C hash that
reads their cached ``_hash`` slot, so sets hash expressions without a
Python call; their ``__hash__`` methods stay the reference.  A native
solve without a trace sink enters Python only for ``flat_plan`` and
``decompose`` on nested terms and for periodic sweeps.

The contract with the engine: :class:`~repro.solver.engine.SolverEngine`
decides once per engine which kernel closes its graph (the native one,
unless the graph's class replaces ``collapse_path`` or ``_absorb``,
which only the Python kernel calls), and every state the native code
sees was built by the engine or checked by
:func:`repro.resilience.checkpoint.restore`, where outside state
enters.  On that state the native code equals its Python reference; on
anything else it raises :class:`TypeError`, :class:`IndexError` or
:class:`KeyError` and calls back into no reference.  Only ``validate``
hands a system it does not pass to :meth:`ConstraintSystem.validate
<repro.constraints.ConstraintSystem.validate>`, for its structured
:class:`~repro.constraints.errors.InvalidSystemError`.

Importing this module builds and loads ``_kernel.c`` through
:func:`repro.native.load`, which caches the build by the source's
SHA-256 and the interpreter's extension suffix.

:data:`kernel` is the loaded extension module, whose functions the
engine (and :class:`~repro.graph.order.RandomOrder`) call, or ``None``
when the build failed: :data:`build_error`
then says why, one :class:`RuntimeWarning` says so, and the Python
versions run.  They stay the reference the tests compare against.
"""

from __future__ import annotations

import os
import warnings
from types import ModuleType
from typing import List, Optional, Tuple

from .. import native
from . import kernel as python_kernel

#: the C source of the native kernel
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_kernel.c")


def load(directories: Optional[List[str]] = None,
         ) -> Tuple[Optional[ModuleType], Optional[str]]:
    """The kernel, built and bound to the Python kernel's names, and
    ``None``, or ``None`` and why it is unavailable
    (:func:`repro.native.load`)."""
    module, error = native.load(SOURCE, __package__, directories)
    if module is not None:
        module.bind(python_kernel)
    return module, error


kernel, build_error = load()
if kernel is None:
    warnings.warn(
        f"the native closure kernel is unavailable, so the Python kernel "
        f"runs: {build_error}", RuntimeWarning)
