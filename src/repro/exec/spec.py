"""The unit of campaign work: one :class:`TrialSpec` per faulted solve.

Shard workers are forked from the process that built the
:class:`~repro.faults.campaign.FaultCampaign` and inherit it, so the only
per-trial payload is this tiny frozen value: which fault class, which
injection location, and the trial's position in the canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TrialSpec"]


@dataclass(frozen=True)
class TrialSpec:
    """One unit of campaign work: a single faulted nested solve.

    Attributes
    ----------
    index : int
        Position of this trial in the campaign's canonical (serial) order.
        Results are reassembled by this index, which is what makes parallel
        output trial-for-trial identical to serial output.
    fault_class : str
        Key into the campaign's ``fault_classes`` mapping.
    aggregate_inner_iteration : int
        The injection location (x-axis of the paper's Figures 3 and 4).
    """

    index: int
    fault_class: str
    aggregate_inner_iteration: int
