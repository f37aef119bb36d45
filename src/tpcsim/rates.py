"""Analytic generation-rate projections for photon chains.

A chain of n photons succeeds when every photon survives its full
source-to-detection path, so the rate is eta^n over the sequence duration.
The one enhancement modeled is single-shot spin readout, which replaces the
sequence duration by the readout time.
"""
from __future__ import annotations

from dataclasses import dataclass


class RateModelError(ValueError):
    pass


@dataclass
class RatesConfig:
    """Scenario inputs for the rate calculator.

    ``single_shot_readout_s`` > 0 replaces the sequence duration (0 disables).
    ``zpl_purcell`` and ``active_switch`` are not modeled by the calculator and
    accept only their neutral values, 0 and false.
    """

    system_efficiency: float = 0.4
    sequence_duration_s: float = 1e-5
    photon_numbers: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    zpl_purcell: float = 0.0
    active_switch: bool = False
    single_shot_readout_s: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.system_efficiency <= 1.0:
            raise RateModelError("system_efficiency must lie in (0, 1]")
        if self.sequence_duration_s <= 0:
            raise RateModelError("sequence_duration_s must be > 0")
        if not self.photon_numbers or any(n < 1 for n in self.photon_numbers):
            raise RateModelError("photon_numbers must be positive integers")
        if self.single_shot_readout_s < 0:
            raise RateModelError("single_shot_readout_s must be >= 0 (0 disables)")
        if self.zpl_purcell != 0.0:
            raise RateModelError("zpl_purcell is not modeled by the rate calculator; only 0 is accepted")
        if self.active_switch:
            raise RateModelError("active_switch is not modeled by the rate calculator; only false is accepted")


def chain_rate(rates: RatesConfig, n_photons: int) -> float:
    """Successful n-photon strings per second: eta^n / T."""
    rates.validate()
    if n_photons < 1:
        raise RateModelError("n_photons must be >= 1")
    duration = rates.single_shot_readout_s or rates.sequence_duration_s
    return rates.system_efficiency**n_photons / duration


def rate_table(rates: RatesConfig) -> list[tuple[int, float]]:
    """(n, rate) rows for every chain length in ``rates.photon_numbers``."""
    return [(n, chain_rate(rates, n)) for n in map(int, rates.photon_numbers)]
