"""Epoch timing helpers.

Epoch boundaries are aligned to absolute virtual time: a query with epoch
duration ``e`` fires at every time divisible by ``e`` (Section 3.2.1's
alignment rule; applied to the baseline too, which can only help it).
Aggregation uses TAG-style level slots so children's partials arrive before
the parent transmits its own.
"""

from __future__ import annotations

from dataclasses import dataclass


def next_boundary(now: float, epoch_ms: int) -> float:
    """First time strictly after ``now`` that is divisible by ``epoch_ms``."""
    k = int(now // epoch_ms) + 1
    return float(k * epoch_ms)


@dataclass(frozen=True)
class SlotSchedule:
    """TAG-style communication slots within an epoch.

    A node at routing-tree level ``l`` transmits its partial aggregate
    ``(max_depth - l)`` slots after the sampling instant, so level
    ``max_depth`` sends first and level 1's frames reach the base station
    last.  ``slot_ms`` must comfortably exceed one frame airtime plus MAC
    backoff; the default is generous at mica2 rates.
    """

    max_depth: int
    slot_ms: float = 256.0

    def send_delay(self, level: int) -> float:
        """Delay from the sampling instant to this level's transmit slot."""
        if level < 1:
            raise ValueError(f"only sensor levels (>=1) transmit (got {level})")
        return (self.max_depth - level) * self.slot_ms
