"""Batch front-end: simulate, analyze, rates, validate.

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or configuration
error. All outputs are deterministic in (config, seed); the --workers flag
only shards the cycle blocks and never changes the records.
"""
from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from . import analysis as an
from . import events as ev
from .config import ConfigError, dump_config, load_config, validate_config
from .rates import rate_table


def _int_in(lo: int, hi: int | None = None):
    """argparse type of an integer in [lo, hi), or at least lo without ``hi``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < lo or (hi is not None and value >= hi):
            raise argparse.ArgumentTypeError(f"value must be >= {lo}" + ("" if hi is None else f" and < {hi}"))
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpcsim",
        description="Spin-photon entanglement protocol simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a click-record file")
    p_sim.add_argument("--config", default=None, help="INI run configuration")
    p_sim.add_argument("--out", required=True, help="output record file")
    p_sim.add_argument("--cycles", type=_int_in(1), required=True, help="number of protocol cycles")
    p_sim.add_argument("--seed", type=_int_in(0, ev.SEED_LIMIT), default=None, help="override the configured RNG seed")
    p_sim.add_argument("--workers", type=_int_in(1), default=1, help="worker processes (output-invariant)")

    p_an = sub.add_parser("analyze", help="reconstruct correlations from records")
    p_an.add_argument("records", help="record file from the simulate subcommand")
    p_an.add_argument("--config", default=None, help="INI run configuration (calibration)")
    p_an.add_argument("--out", default=None, help="write the report (plus .diagonals.csv / .curves.csv)")
    group = p_an.add_mutually_exclusive_group()
    group.add_argument("--background", type=float, default=None, help="known background fraction")
    group.add_argument(
        "--auto-background", action="store_true", help="estimate background from inter-window clicks"
    )

    p_rates = sub.add_parser("rates", help="print chain-generation rate projections")
    p_rates.add_argument("--config", default=None, help="INI run configuration")

    p_val = sub.add_parser("validate", help="check every configuration invariant")
    p_val.add_argument("--config", default=None, help="INI run configuration")
    p_val.add_argument("--dump", action="store_true", help="print the fully resolved configuration")

    return parser


def _load_valid_config(path):
    """The run configuration, refused as a ConfigError if any section fails validation."""
    config = load_config(path)
    for section, ok, message in validate_config(config):
        if not ok:
            raise ConfigError(f"[{section}] {message}")
    return config


def cmd_simulate(args) -> int:
    config = _load_valid_config(args.config)
    detection = config.detection
    if args.seed is not None:
        detection = replace(detection, seed=args.seed)
    records = ev.simulate_cycles(
        args.cycles,
        config.emitter,
        config.interferometer,
        config.protocol,
        detection,
        workers=args.workers,
    )
    ev.write_records(args.out, records)
    stats = ev.summarize(records, config.protocol.n_photons)
    print(f"cycles = {args.cycles}")
    print(f"records = {stats['records']}")
    print(f"heralded = {stats['heralded']}")
    print(f"coincidences = {stats['coincidences']}")
    print(f"rejected_cycles = {stats['rejected_cycles']}")
    print(f"output = {args.out}")
    return 0


def cmd_analyze(args) -> int:
    config = _load_valid_config(args.config)
    if config.protocol.n_photons > 1:
        raise ConfigError(f"analyze covers single-photon runs only; the config sets n_photons = {config.protocol.n_photons}")
    records = ev.read_records(args.records)
    report = an.analyze_records(
        records,
        config.analysis,
        config.interferometer,
        background=args.background,
        auto_background=args.auto_background,
    )
    text = report.to_text()
    print(text, end="")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        an.write_diagonals_csv(args.out + ".diagonals.csv", report)
        an.write_curves_csv(args.out + ".curves.csv", report)
    return 0


def cmd_rates(args) -> int:
    config = _load_valid_config(args.config)
    rows = rate_table(config.rates)
    print("n_photons  rate_hz")
    for n, rate in rows:
        print(f"{n:>9d}  {rate:.6g}")
    return 0


def cmd_validate(args) -> int:
    config = load_config(args.config)
    results = validate_config(config)
    failed = False
    for section, ok, message in results:
        status = "pass" if ok else "FAIL"
        print(f"[{section}] {status}" + ("" if ok else f": {message}"))
        failed = failed or not ok
    if args.dump and not failed:
        from .protocol import build_sequence, format_sequence

        print()
        print(dump_config(config), end="")
        print("# pulse sequence timing")
        print(format_sequence(build_sequence(config.protocol, config.interferometer)))
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handlers = {
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "rates": cmd_rates,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ev.RecordFormatError, an.AnalysisError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, BrokenProcessPool) as exc:  # a pool breaks when a worker dies
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
