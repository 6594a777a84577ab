"""Search backends: one protocol, exact search only.

Every serving mode runs the exact ALAE engine.  ``exact`` is the default;
``verified`` is accepted and answered by the same engine under its own
metrics label, since exact meets its contract (hits a bit-equal subset of
exact's) with equality; ``fast`` is refused (:data:`FAST_REFUSED`).  The
BWT-SW and BLAST baselines stay available offline through
``SearchService(engine=...)``.
"""

from repro.engine.backend import (
    AlaeBackend,
    BackendInfo,
    BaselineBackend,
    SearchBackend,
)
from repro.engine.registry import FAST_REFUSED, MODES, backends_for, check_mode
from repro.engine.verified import VerifiedBackend

__all__ = [
    "AlaeBackend",
    "BackendInfo",
    "BaselineBackend",
    "SearchBackend",
    "VerifiedBackend",
    "MODES",
    "FAST_REFUSED",
    "backends_for",
    "check_mode",
]
