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
``decompose`` on nested terms and for periodic sweeps.  Importing this
module compiles it
with the running Python's C compiler and headers (``sysconfig``'s
``CC`` and include path) into a cache file named by the source's
SHA-256 and the interpreter's extension suffix (``EXT_SUFFIX``), then
loads it.  The cache is the package's ``__pycache__`` directory, or the
user cache directory when that cannot be written.  A build goes to a
temporary file that :func:`os.replace` moves into place, so processes
importing at once (``repro.parallel`` workers) never load a
half-written file, and a cached build of other source is never loaded.

:data:`kernel` is the loaded extension module, whose functions the
engine (and :class:`~repro.graph.order.RandomOrder`) call, or ``None``
when the build failed: :data:`build_error`
then says why, one :class:`RuntimeWarning` says so, and the Python
versions run.  They stay the reference the tests compare against.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from types import ModuleType
from typing import List, Optional, Tuple

from ..graph.base import ConstraintGraphBase
from . import kernel as python_kernel

#: the C source of the native kernel
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_kernel.c")
#: seconds a compile may take before the build counts as failed
COMPILE_TIMEOUT = 300


class BuildError(Exception):
    """The compiler did not produce the extension."""


def source_digest(source: str = SOURCE) -> str:
    """SHA-256 of the kernel source, the key of its cached build."""
    with open(source, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cache_dirs() -> List[str]:
    """Where builds are cached, in order of preference."""
    return [
        os.path.join(os.path.dirname(SOURCE), "__pycache__"),
        os.path.join(os.path.expanduser("~"), ".cache", "repro"),
    ]


def compile_command(source: str, target: str) -> List[str]:
    """The command that compiles ``source`` into the extension ``target``."""
    import shlex
    import sysconfig

    compiler = sysconfig.get_config_var("CC")
    if not compiler:
        raise BuildError("this Python names no C compiler (sysconfig CC)")
    command = [*shlex.split(compiler), "-shared", "-fPIC", "-O2",
               "-I", sysconfig.get_paths()["include"], source, "-o", target]
    if sys.platform == "darwin":
        command += ["-undefined", "dynamic_lookup"]
    return command


def build(source: str, target: str) -> None:
    """Compile ``source`` into ``target`` through a temporary file.

    Raises :class:`OSError` when the directory cannot be written and
    :class:`BuildError` when the compiler fails.
    """
    # Imported here: a cached build needs neither, and importing them
    # on every start-up would cost every process memory.
    import subprocess
    import tempfile

    directory = os.path.dirname(target)
    os.makedirs(directory, exist_ok=True)
    handle, partial = tempfile.mkstemp(
        prefix=".kernel-", suffix=".tmp", dir=directory)
    os.close(handle)
    try:
        try:
            completed = subprocess.run(
                compile_command(source, partial), capture_output=True,
                text=True, timeout=COMPILE_TIMEOUT)
        except (OSError, subprocess.SubprocessError) as error:
            raise BuildError(f"cannot run the compiler: {error}") from error
        if completed.returncode != 0:
            output = (completed.stderr or completed.stdout).strip()
            raise BuildError(
                f"the compiler exited with status {completed.returncode}: "
                f"{output[-2000:]}")
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


def load_module(path: str) -> ModuleType:
    """Load a built kernel and bind it to the Python kernel's names and
    the graphs' collapse methods."""
    name = f"{__package__}._kernel"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    module.bind(python_kernel, ConstraintGraphBase)
    return module


def load(source: str = SOURCE,
         directories: Optional[List[str]] = None,
         ) -> Tuple[Optional[ModuleType], Optional[str]]:
    """The kernel built from ``source`` and ``None``, or ``None`` and why
    it is unavailable.

    Takes the first of ``directories`` (default :func:`cache_dirs`) that
    holds the build or can be written to, building there if needed.
    """
    try:
        digest = source_digest(source)
    except OSError as error:
        return None, f"cannot read the kernel source: {error}"
    # EXTENSION_SUFFIXES[0] is EXT_SUFFIX, the most specific suffix.
    name = f"_kernel-{digest}{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    failures = []
    for directory in directories or cache_dirs():
        target = os.path.join(directory, name)
        try:
            if not os.path.exists(target):
                build(source, target)
            return load_module(target), None
        except OSError as error:
            # This directory cannot be used; try the next.
            failures.append(f"{directory}: {error}")
        except (BuildError, ImportError) as error:
            return None, str(error)
    return None, "no writable cache directory: " + "; ".join(failures)


kernel, build_error = load()
if kernel is None:
    warnings.warn(
        f"the native closure kernel is unavailable, so the Python kernel "
        f"runs: {build_error}", RuntimeWarning)
