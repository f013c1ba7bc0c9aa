"""The native lexer: built on first import, else the Python lexer.

``_lexer.c`` transliterates :meth:`Lexer.tokens
<repro.cfront.lexer.Lexer.tokens>` into C: it scans the master
pattern's alternatives in the same order and returns the same
:class:`~repro.cfront.tokens.Token` tuples, or raises the same
:class:`~repro.cfront.errors.LexError` at the same line and column.
Importing this module builds and loads it through
:func:`repro.native.load` and binds it to the token kinds, ``Token``,
``KEYWORDS`` and ``PUNCTUATORS`` of :mod:`repro.cfront.tokens`.

:data:`lexer` is the loaded extension module, whose ``tokenize``
:func:`repro.cfront.tokenize` is, or ``None`` when the build failed:
:data:`build_error` then says why, one :class:`RuntimeWarning` says so,
and the Python lexer runs.  It stays the reference the tests compare
against.
"""

from __future__ import annotations

import os
import warnings
from types import ModuleType
from typing import List, Optional, Tuple

from .. import native
from . import tokens
from .errors import LexError

#: the C source of the native lexer
SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "_lexer.c")


def load(directories: Optional[List[str]] = None,
         ) -> Tuple[Optional[ModuleType], Optional[str]]:
    """The lexer, built and bound to :mod:`repro.cfront.tokens`, and
    ``None``, or ``None`` and why it is unavailable
    (:func:`repro.native.load`)."""
    module, error = native.load(SOURCE, __package__, directories)
    if module is not None:
        module.bind(tokens, LexError)
    return module, error


lexer, build_error = load()
if lexer is None:
    warnings.warn(
        f"the native lexer is unavailable, so the Python lexer runs: "
        f"{build_error}", RuntimeWarning)
