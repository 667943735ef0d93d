"""The run mode: which core backend and which probe-transit path to use.

Both choices are bit-identical by design (``pipeline`` against the
``behavioral`` core agent, per-hop ``slow`` against flat ``fast``
transit) and exist to be cross-checked.  A
:class:`~repro.sim.network.Network` captures the ambient mode once, at
construction, as ``network.mode``, so networks in different modes
coexist in one process.  The ambient mode is set only by
:func:`use_mode`; :func:`repro.runner.job.execute_job` enters the job's
mode around the cell, so spawned workers get it from the pickled job.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
from typing import Iterator, Optional

TRANSITS = ("fast", "slow")


@dataclasses.dataclass(frozen=True)
class SimMode:
    """One run mode; validated at construction."""

    backend: str = "behavioral"
    transit: str = "fast"

    def __post_init__(self) -> None:
        # Imported here: importing repro.core pulls in this module
        # through repro.sim.network.
        from repro.core.controller import resolve_backend

        resolve_backend(self.backend)
        if self.transit not in TRANSITS:
            raise ValueError(f"unknown probe transit {self.transit!r} "
                             f"(valid: {', '.join(TRANSITS)})")


_MODE: contextvars.ContextVar[Optional[SimMode]] = contextvars.ContextVar(
    "repro_sim_mode", default=None)


def current_mode() -> SimMode:
    """The ambient mode: the innermost :func:`use_mode`, else ``SimMode()``."""
    mode = _MODE.get()
    return SimMode() if mode is None else mode


@contextlib.contextmanager
def use_mode(mode: SimMode) -> Iterator[SimMode]:
    """Make ``mode`` the ambient mode for networks built in the block."""
    token = _MODE.set(mode)
    try:
        yield mode
    finally:
        _MODE.reset(token)
