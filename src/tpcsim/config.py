"""Flat INI-style run configuration.

One typed section per subsystem; every key has a default, and defaults equal
the published values where one exists. Unknown sections or keys are rejected
with the offending name (and line where available), keeping parameter-sweep
files honest.
"""
from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields

from .analysis import AnalysisParams
from .emitter import EmitterParams
from .events import DetectionParams
from .optics import InterferometerConfig
from .protocol import ProtocolConfig, build_sequence
from .rates import Enhancements, RateScenario


class ConfigError(ValueError):
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
            raise ConfigError("system_efficiency must lie in (0, 1]")
        if self.sequence_duration_s <= 0:
            raise ConfigError("sequence_duration_s must be > 0")
        if not self.photon_numbers or any(n < 1 for n in self.photon_numbers):
            raise ConfigError("photon_numbers must be positive integers")
        if self.single_shot_readout_s < 0:
            raise ConfigError("single_shot_readout_s must be >= 0 (0 disables)")
        if self.zpl_purcell != 0.0:
            raise ConfigError("zpl_purcell is not modeled by the rate calculator; only 0 is accepted")
        if self.active_switch:
            raise ConfigError("active_switch is not modeled by the rate calculator; only false is accepted")

    def enhancements(self) -> Enhancements:
        return Enhancements(
            single_shot_readout_s=self.single_shot_readout_s if self.single_shot_readout_s > 0 else None,
        )

    def scenario(self, n_photons: int) -> RateScenario:
        return RateScenario(
            self.system_efficiency, self.sequence_duration_s, n_photons, self.enhancements()
        )


@dataclass
class RunConfig:
    emitter: EmitterParams = field(default_factory=EmitterParams)
    interferometer: InterferometerConfig = field(default_factory=InterferometerConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    detection: DetectionParams = field(default_factory=DetectionParams)
    analysis: AnalysisParams = field(default_factory=AnalysisParams)
    rates: RatesConfig = field(default_factory=RatesConfig)

    def sections(self) -> dict[str, object]:
        return {
            "emitter": self.emitter,
            "interferometer": self.interferometer,
            "protocol": self.protocol,
            "detection": self.detection,
            "analysis": self.analysis,
            "rates": self.rates,
        }


def _parse_value(section: str, key: str, raw: str, default):
    raw = raw.strip()
    try:
        if section == "emitter" and key == "p_cross":
            return "auto" if raw.lower() == "auto" else float(raw)
        if key == "photon_numbers":
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        if isinstance(default, bool):
            lowered = raw.lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, str):
            return raw
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc
    raise ConfigError(f"[{section}] {key}: unsupported value type")


def _line_of(text: str, section: str, key: str) -> int | None:
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
        elif current == section and (stripped.startswith(key + " ") or stripped.startswith(key + "=")):
            return lineno
    return None


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    config = RunConfig()
    sections = config.sections()
    for section_name in cp.sections():
        if section_name not in sections:
            raise ConfigError(
                f"unknown section [{section_name}]; expected one of {sorted(sections)}"
            )
        target = sections[section_name]
        known = {f.name: getattr(target, f.name) for f in fields(target)}
        for key, raw in cp.items(section_name):
            if key not in known:
                line = _line_of(text, section_name, key)
                where = f" (line {line})" if line else ""
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]{where}")
            setattr(target, key, _parse_value(section_name, key, raw, known[key]))
    return config


def load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_config(config: RunConfig) -> str:
    """Serialize with every key explicit; parse(dump(c)) == c."""
    out = io.StringIO()
    for section_name, target in config.sections().items():
        out.write(f"[{section_name}]\n")
        for f in fields(target):
            out.write(f"{f.name} = {_format_value(getattr(target, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def validate_config(config: RunConfig) -> list[tuple[str, bool, str]]:
    """Per-section invariant check: (section, ok, message) rows.

    The protocol row also checks that the cycle period holds the pulse
    sequence, whose length follows from a valid interferometer delay; the
    detection row also checks that a photon chain has no background clicks.
    """
    results = {}
    for name, target in config.sections().items():
        try:
            target.validate()
            if name == "protocol" and results["interferometer"][0]:
                build_sequence(config.protocol, config.interferometer)
            if name == "detection":
                target.validate_photons(config.protocol.n_photons)
            results[name] = (True, "ok")
        except Exception as exc:  # validation errors carry the failing key
            results[name] = (False, str(exc))
    return [(name, ok, message) for name, (ok, message) in results.items()]
