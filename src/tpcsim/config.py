"""Flat INI-style run configuration.

One typed section per subsystem; every key has a default, and defaults equal
the published values where one exists. Unknown sections or keys are rejected
with the offending name (and line where available), keeping parameter-sweep
files honest. ``[DEFAULT]`` is an unknown section like any other: it sets no
defaults for the other sections.
"""
from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass, field, fields

from .analysis import AnalysisParams
from .emitter import EmitterParams
from .events import DetectionParams
from .optics import InterferometerConfig
from .protocol import ProtocolConfig, build_sequence
from .rates import RatesConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    emitter: EmitterParams = field(default_factory=EmitterParams)
    interferometer: InterferometerConfig = field(default_factory=InterferometerConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    detection: DetectionParams = field(default_factory=DetectionParams)
    analysis: AnalysisParams = field(default_factory=AnalysisParams)
    rates: RatesConfig = field(default_factory=RatesConfig)

    def sections(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _parse_value(section: str, key: str, raw: str, default):
    """The typed value of one INI field; ValueError if it does not parse."""
    raw = raw.strip()
    p_cross = (section, key) == ("emitter", "p_cross")
    if p_cross and raw.lower() == "auto":
        return "auto"
    if key == "photon_numbers":
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float) or p_cross:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    if isinstance(default, str):
        return raw
    raise ValueError("unsupported value type")


def _where(text: str, section: str, key: str) -> str:
    """The suffix ' (line N)' naming the line that sets ``key`` in ``section``; empty if none does.
    Lines are read as configparser reads them: comments stripped first, then its SECTCRE names a header."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)[#;]", line, maxsplit=1)[0].strip()
        header = configparser.ConfigParser.SECTCRE.match(stripped)
        if header:
            current = header.group("header")
        elif current == section and re.split("[=:]", stripped, maxsplit=1)[0].strip().lower() == key:
            return f" (line {lineno})"
    return ""


def parse_config_text(text: str) -> RunConfig:
    # no header names the empty default section, so [DEFAULT] is an ordinary, unknown one
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None, default_section="")
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
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]{_where(text, section_name, key)}")
            try:
                value = _parse_value(section_name, key, raw, known[key])
            except ValueError as exc:
                raise ConfigError(f"[{section_name}] {key}: {exc}{_where(text, section_name, key)}") from exc
            setattr(target, key, value)
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
