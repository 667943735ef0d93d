"""FaultSchedule: an ordered, seed-reproducible set of fault events.

A schedule is *data*: it round-trips through a JSON-serializable config
(:meth:`FaultSchedule.to_config` / :meth:`FaultSchedule.from_config`),
which is exactly what :class:`repro.runner.Job` folds into its cache
key — two cells with different schedules can never alias in the result
cache, and rerunning a cell with the same ``(seed, FaultSchedule)`` is
bit-identical.

The ``seed`` drives every random draw the faults make at run time
(probe-loss coin flips, delay jitter, link-flap timing), independently
of the workload's own RNGs, so adding faults to a run perturbs nothing
outside the fault plane itself.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.faults.events import FaultEvent, LinkDown, LinkUp, event_from_config

__all__ = ["FaultSchedule", "random_link_failures"]


def _sort_key(event: FaultEvent) -> Tuple[float, str, str]:
    # (time, kind, repr) makes ordering total and deterministic for
    # simultaneous events of different kinds.
    return (event.time, event.kind, event.describe())


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted sequence of fault events plus a seed."""

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for event in self.events:
            event.validate()
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=_sort_key)))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *events: FaultEvent, seed: int = 0) -> "FaultSchedule":
        return cls(events=tuple(events), seed=seed)

    def extended(self, other: "FaultSchedule") -> "FaultSchedule":
        """This schedule plus ``other``'s events (keeps this seed)."""
        return FaultSchedule(events=self.events + other.events, seed=self.seed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> List[str]:
        return [event.describe() for event in self.events]

    # ------------------------------------------------------------------
    # JSON round trip (the runner's cache-key form)
    # ------------------------------------------------------------------
    def to_config(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": [event.to_config() for event in self.events],
        }

    @classmethod
    def from_config(cls, config: Optional[Mapping[str, Any]]) -> "FaultSchedule":
        if not config:
            return cls()
        events = tuple(event_from_config(spec) for spec in config.get("events", ()))
        return cls(events=events, seed=int(config.get("seed", 0)))


def random_link_failures(
    link_pairs: Iterable[Tuple[str, str]],
    mtbf_s: float,
    mttr_s: float,
    until: float,
    seed: int,
    start: float = 0.0,
) -> Sequence[FaultEvent]:
    """Deterministic LinkDown/LinkUp pairs for each ``(src, dst)``.

    Each link fails independently with exponential inter-failure gaps of
    mean ``mtbf_s`` and stays down for ``mttr_s``.  The sequence only
    depends on ``(sorted links, mtbf, mttr, until, seed)`` — the same
    inputs always yield the same failure trace.
    """
    if mtbf_s <= 0 or mttr_s <= 0:
        raise ValueError("mtbf_s and mttr_s must be > 0")
    events: List[FaultEvent] = []
    for src, dst in sorted(set(link_pairs)):
        # One RNG per link, derived from (seed, link): adding a link to
        # the target set never shifts the other links' failure times.
        rng = random.Random(f"{seed}:{src}-{dst}")
        t = start
        while True:
            t += rng.expovariate(1.0 / mtbf_s)
            if t >= until:
                break
            events.append(LinkDown(time=t, src=src, dst=dst))
            t += mttr_s
            if t < until:
                events.append(LinkUp(time=t, src=src, dst=dst))
            # A link still down at the horizon stays down.
    return events
