"""Serving modes: the names a request may carry and the backend for each.

Exact search is the only search the stack runs.  ``verified`` is accepted
and answered by the exact engine, which meets its contract ("a bit-equal
subset of exact") with equality.  ``fast`` is refused with
:data:`FAST_REFUSED`.
"""

from __future__ import annotations

from repro.core.alae import ALAE
from repro.engine.backend import AlaeBackend
from repro.engine.verified import VerifiedBackend
from repro.errors import SearchError

__all__ = ["MODES", "FAST_REFUSED", "check_mode", "backends_for"]

#: The serving modes every layer of the stack accepts.
MODES = ("exact", "verified")

#: The one refusal every surface (services, server, ``repro query``) gives
#: a ``fast`` request.
FAST_REFUSED = (
    "search mode 'fast' is no longer served: exact search is faster at "
    "served sizes and finds every hit; use mode 'exact'"
)

_BACKENDS = {"exact": AlaeBackend, "verified": VerifiedBackend}


def check_mode(mode: str | None) -> str:
    """Normalise ``None`` to ``exact``; refuse ``fast`` and unknown modes."""
    if mode is None:
        return "exact"
    if mode == "fast":
        raise SearchError(FAST_REFUSED)
    if mode not in MODES:
        raise SearchError(
            f"unknown search mode {mode!r}; expected one of {', '.join(MODES)}"
        )
    return mode


def backends_for(engine: ALAE) -> dict[str, object]:
    """One backend per mode, every one over the shared exact ``engine``."""
    return {mode: backend(engine) for mode, backend in _BACKENDS.items()}
