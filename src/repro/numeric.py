"""The optional numpy, resolved once per process.

Every numpy fast path (``validation``, ``happiness``, ``graph``,
``dynamic``, ``generators``, ``colorstore``, ``cli``) reads ``np`` from
here at call time: the numpy module, or ``None`` when it cannot be
imported, in which case the caller runs its pure-Python twin.  One
guarded import at package import replaces a per-call ``import numpy`` in
each of them.  Those per-call imports raced: while one worker thread's
import of a broken or shadowed numpy was failing, another thread could
pick up the half-initialized module from ``sys.modules`` and fail with
``AttributeError`` instead of falling back.

Tests force the fallbacks by setting ``numeric.np`` to ``None``.
"""

from __future__ import annotations

try:  # numpy fast paths, pure-Python twins pinned equivalent
    import numpy as np
except Exception:  # pragma: no cover - numpy-free environments
    np = None

__all__ = ["np"]
