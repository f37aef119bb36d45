"""Analytic generation-rate projections for photon chains.

A chain of n photons succeeds when every photon survives its full
source-to-detection path, so the rate is eta^n over the sequence duration.
The one enhancement modeled is single-shot spin readout, which replaces the
sequence duration by the readout time.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class RateModelError(ValueError):
    pass


@dataclass
class Enhancements:
    single_shot_readout_s: float | None = None

    def validate(self) -> None:
        if self.single_shot_readout_s is not None and self.single_shot_readout_s <= 0:
            raise RateModelError("single_shot_readout_s must be > 0")


@dataclass
class RateScenario:
    system_efficiency: float
    sequence_duration_s: float
    n_photons: int
    enhancements: Enhancements = field(default_factory=Enhancements)

    def validate(self) -> None:
        if not 0.0 < self.system_efficiency <= 1.0:
            raise RateModelError("system_efficiency must lie in (0, 1]")
        if self.sequence_duration_s <= 0:
            raise RateModelError("sequence_duration_s must be > 0")
        if self.n_photons < 1:
            raise RateModelError("n_photons must be >= 1")
        self.enhancements.validate()


def chain_rate(scenario: RateScenario) -> float:
    """Successful n-photon strings per second: eta^n / T."""
    scenario.validate()
    duration = scenario.sequence_duration_s
    if scenario.enhancements.single_shot_readout_s is not None:
        duration = scenario.enhancements.single_shot_readout_s
    return scenario.system_efficiency**scenario.n_photons / duration


def rate_table(scenario_base: RateScenario, photon_numbers) -> list[tuple[int, float]]:
    """(n, rate) rows for a list of chain lengths under one scenario."""
    rows = []
    for n in photon_numbers:
        s = RateScenario(
            scenario_base.system_efficiency,
            scenario_base.sequence_duration_s,
            int(n),
            scenario_base.enhancements,
        )
        rows.append((int(n), chain_rate(s)))
    return rows
