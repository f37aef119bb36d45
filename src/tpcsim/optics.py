"""Unbalanced polarization-maintaining interferometer model.

The long arm delays by ``delay_ns`` and always carries H polarization, the
short arm V; no configuration key changes this. Matching the pulse spacing to
the arm delay makes the middle arrival window path-erasing: a photon detected
there has been converted from a time-bin qubit into a polarization qubit. The
two outer windows reveal the emission cycle and provide the polar-basis data
instead.

Four quadrature ports monitor the output. D/A analyze along (|H> +- |V>)/sqrt2;
R/L add a fixed quadrature offset to the analyzer phase.

This module holds the instrument's numbers only: its configuration, the arm
weights, the port offsets, the arrival windows and their classification. It
converts no state; the executor in ``protocol`` and the samplers in ``events``
apply the conversion.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import pi

import numpy as np

POL_H = 0
POL_V = 1

GOLDEN_STEP = 2.0 * pi * 0.3819660112501051  # scan-mode phase step per cycle, an irrational fraction of a turn


class OpticsModelError(ValueError):
    pass


class ArrivalClass(str, Enum):
    EARLY_REVEALING = "EarlyRevealing"
    ERASED = "Erased"
    LATE_REVEALING = "LateRevealing"
    INVALID = "Invalid"


# arrival-class code of a record: the position of its class in ArrivalClass
EARLY, ERASED, LATE, INVALID = range(len(ArrivalClass))

PORT_NAMES = ("D", "A", "R", "L")  # the port code of a record indexes this


@dataclass
class InterferometerConfig:
    delay_ns: float = 262.0
    phase: float = 0.0
    phase_readout_sigma: float = 0.18
    window_ns: float = 20.0
    split_ratio: float = 0.5
    quadrature_offset: float = pi / 4.0
    erasure_visibility: float = 1.0
    active_switch: bool = False
    phase_mode: str = "walk"  # walk | scan | static
    phase_drift_var_per_ns: float = 2.4e-9

    def validate(self) -> None:
        if self.delay_ns <= 0:
            raise OpticsModelError("delay_ns must be positive")
        if not 0.0 < self.split_ratio < 1.0:
            raise OpticsModelError("split_ratio must lie in (0, 1)")
        if not 0.0 < self.window_ns < self.delay_ns / 2.0:
            raise OpticsModelError("window_ns must lie in (0, delay_ns / 2)")
        if not 0.0 <= self.erasure_visibility <= 1.0:
            raise OpticsModelError("erasure_visibility must lie in [0, 1]")
        if self.phase_readout_sigma < 0 or self.phase_drift_var_per_ns < 0:
            raise OpticsModelError("phase noise parameters must be non-negative")
        if self.phase_mode not in ("walk", "scan", "static"):
            raise OpticsModelError(f"unknown phase_mode {self.phase_mode!r}")


def port_offsets(quadrature_offset: float) -> np.ndarray:
    """Analyzer phase offset of each port, indexed by port code: D/A at 0/pi,
    R/L at q/q+pi. Z denotes the timing-based polar measurement and is no port."""
    return np.array([0.0, pi, quadrature_offset, quadrature_offset + pi])


def arm_weights(config: InterferometerConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """(path-erasing, path-revealing) arm probabilities of the first-bin photon,
    then of the second-bin photon.

    The first-bin photon reaches the erasing window through the long arm, the
    second-bin photon through the short arm. The passive splitter sends a photon
    down the long arm with probability ``split_ratio``; the active switch routes
    both photons into the erasing window.
    """
    if config.active_switch:
        return (1.0, 0.0), (1.0, 0.0)
    s = config.split_ratio
    return (s, 1.0 - s), (1.0 - s, s)


def window_spans(config: InterferometerConfig) -> tuple[float, float, float]:
    """(width of one arrival window, time between the windows, background span) in ns: the three windows
    are 2 w wide and d apart, and background spans from the early window's start to the late one's end."""
    w, d = config.window_ns, config.delay_ns
    return 2.0 * w, 2.0 * (d - 2.0 * w), 2.0 * d + 2.0 * w


def classify_arrival(t, t_ref: float, config: InterferometerConfig) -> np.ndarray:
    """Arrival-class codes of the arrival times ``t`` against the erased-window
    center ``t_ref``; the window edges belong to the window."""
    rel = np.asarray(t) - t_ref
    w = config.window_ns
    d = config.delay_ns
    cls = np.full(rel.shape, INVALID, dtype=np.uint8)
    cls[np.abs(rel) <= w] = ERASED
    cls[np.abs(rel + d) <= w] = EARLY
    cls[np.abs(rel - d) <= w] = LATE
    return cls
