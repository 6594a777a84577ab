"""Mode ``verified``, answered by the exact engine.

``verified`` promises hits that are a bit-equal subset of ``exact``'s; the
exact engine meets that promise with equality.  The mode keeps a backend of
its own so its searches stay labelled ``verified`` in the engine metrics.
"""

from __future__ import annotations

from repro.core.alae import ALAE
from repro.engine.backend import BackendInfo, _EngineBackend


class VerifiedBackend(_EngineBackend):
    """The exact ALAE engine under the ``verified`` label.

    A sibling of :class:`~repro.engine.AlaeBackend`, not a subclass, so
    wrapping one class's ``search`` never wraps the other's.
    """

    info = BackendInfo(name="alae", mode="verified")

    def __init__(self, engine: ALAE) -> None:
        super().__init__(engine)
