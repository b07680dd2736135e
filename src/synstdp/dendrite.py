"""Dendritic-inspired processing bank.

Each branch scales the pre-synaptic spike by an attenuation factor alpha
and shifts it by a propagation delay; branch i feeds device i.  Both the
positive and negative lobes of the spike are attenuated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DELAY_ASSIGNMENTS = ("ramp", "uniform", "reversed")


@dataclass(frozen=True)
class DendriteBank:
    """n branches with attenuation ramping linearly alpha_min -> alpha_max
    and delays assigned per `delay_assignment`:

    - "ramp":     0 -> delay_max across branches (tied to the attenuation order)
    - "uniform":  every branch delayed by delay_max
    - "reversed": delay_max -> 0 across branches

    For n = 1 the single branch gets alpha_max and delay 0 (ramp) or
    delay_max.  The bank holds these five numbers; `alphas` and `delays`
    are derived on each read.
    """
    n: int = 16
    alpha_min: float = 0.6
    alpha_max: float = 1.0
    delay_max: float = 0.0
    delay_assignment: str = "ramp"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n: need at least one branch, got {self.n}")
        if self.alpha_min <= 0.0:
            raise ValueError(f"alpha_min: must be positive, got {self.alpha_min}")
        if self.delay_max < 0.0:
            raise ValueError(f"delay_max: must be >= 0, got {self.delay_max}")
        if not self.alpha_max <= 1.0:
            raise ValueError(f"alpha_max: must be <= 1, got {self.alpha_max}")
        if not self.alpha_min <= self.alpha_max:
            raise ValueError(f"need alpha_min <= alpha_max, got {self.alpha_min}, {self.alpha_max}")
        if self.delay_assignment not in DELAY_ASSIGNMENTS:
            raise ValueError(f"delay_assignment: must be one of {DELAY_ASSIGNMENTS}, "
                             f"got {self.delay_assignment!r}")

    def _frac(self) -> np.ndarray:
        return np.zeros(self.n) if self.n == 1 else np.arange(self.n) / (self.n - 1)

    @property
    def alphas(self) -> tuple[float, ...]:
        """Attenuation per branch, each in (0, 1]."""
        if self.n == 1:
            return (float(self.alpha_max),)
        return tuple((self.alpha_min + (self.alpha_max - self.alpha_min) * self._frac()).tolist())

    @property
    def delays(self) -> tuple[float, ...]:
        """Delay per branch, each >= 0."""
        if self.delay_assignment == "uniform":
            return (float(self.delay_max),) * self.n
        frac = self._frac()
        return tuple((self.delay_max * (frac if self.delay_assignment == "ramp"
                                        else frac[::-1])).tolist())
