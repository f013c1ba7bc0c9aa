"""Build, cache and load the package's C extensions.

Each native module is one C file ``_<name>.c`` in the package it
serves: the closure kernel ``repro/solver/_kernel.c``
(:mod:`repro.solver.native`) and the lexer ``repro/cfront/_lexer.c``
(:mod:`repro.cfront.native`).  Each has a Python reference that the
tests compare it against and that runs when the build fails.

:func:`load` compiles a source with the running Python's C compiler and
headers (``sysconfig``'s ``CC`` and include path) into a cache file
``_<name>-<sha256><EXT_SUFFIX>``, named by the source's SHA-256 and the
interpreter's extension suffix, then loads it.  The cache is the
``__pycache__`` directory beside the source, or the user cache
directory when that cannot be written.  A build goes to a temporary
file that :func:`os.replace` moves into place, so processes importing
at once (``repro.parallel`` workers) never load a half-written file,
and a cached build of other source is never loaded.  A build into the
``__pycache__`` beside the source deletes the builds of other source
of the same module there for the same suffix; builds of other modules,
builds for other interpreters, and the user cache, which other
checkouts share, are left alone.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import re
import sys
from types import ModuleType
from typing import List, Optional, Tuple

#: seconds a compile may take before the build counts as failed
COMPILE_TIMEOUT = 300


class BuildError(Exception):
    """The compiler did not produce the extension."""


def module_name(source: str) -> str:
    """The extension's module name: ``_lexer`` for ``.../_lexer.c``."""
    return os.path.splitext(os.path.basename(source))[0]


def source_digest(source: str) -> str:
    """SHA-256 of a C source, the key of its cached build."""
    with open(source, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cache_dirs(source: str) -> List[str]:
    """Where builds of ``source`` are cached, in order of preference."""
    return [
        os.path.join(os.path.dirname(os.path.abspath(source)),
                     "__pycache__"),
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
        prefix=f".{module_name(source)}-", suffix=".tmp", dir=directory)
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


def load_module(path: str, name: str) -> ModuleType:
    """Load the built extension at ``path`` as the module ``name``."""
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def prune(directory: str, keep: str, suffix: str, name: str) -> None:
    """Delete the builds of module ``name`` for ``suffix`` in
    ``directory`` other than ``keep``: builds of its earlier sources."""
    stale = re.compile(re.escape(name) + r"-[0-9a-f]{64}"
                       + re.escape(suffix))
    for entry in os.listdir(directory):
        if entry != keep and stale.fullmatch(entry):
            try:
                os.unlink(os.path.join(directory, entry))
            except OSError:
                pass  # removed by another process, or not ours to remove


def load(source: str, package: str,
         directories: Optional[List[str]] = None,
         ) -> Tuple[Optional[ModuleType], Optional[str]]:
    """The extension built from ``source`` and ``None``, or ``None`` and
    why it is unavailable.

    The extension is loaded as ``package`` + ``.`` + the source's file
    name without ``.c``, the name its ``PyInit_`` function carries.
    Takes the first of ``directories`` (default :func:`cache_dirs`) that
    holds the build or can be written to, building there if needed.  A
    build into the ``__pycache__`` beside ``source`` deletes the builds
    of the module's other sources there (:func:`prune`).
    """
    name = module_name(source)
    try:
        digest = source_digest(source)
    except OSError as error:
        return None, f"cannot read the source {name}.c: {error}"
    # EXTENSION_SUFFIXES[0] is EXT_SUFFIX, the most specific suffix.
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    filename = f"{name}-{digest}{suffix}"
    beside = cache_dirs(source)[0]
    failures = []
    for directory in directories or cache_dirs(source):
        target = os.path.join(directory, filename)
        try:
            if not os.path.exists(target):
                build(source, target)
                if os.path.abspath(directory) == beside:
                    prune(directory, filename, suffix, name)
            return load_module(target, f"{package}.{name}"), None
        except OSError as error:
            # This directory cannot be used; try the next.
            failures.append(f"{directory}: {error}")
        except (BuildError, ImportError) as error:
            return None, str(error)
    return None, "no writable cache directory: " + "; ".join(failures)
