"""Config parsing and CLI behavior: round trips, diagnostics, exit codes."""
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tpcsim.cli import build_parser, main
from tpcsim.config import ConfigError, RunConfig, dump_config, load_config, parse_config_text, validate_config
from tpcsim.optics import InterferometerConfig
from tpcsim.protocol import ProtocolConfig, build_sequence

from conftest import write_fixture_ini

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.ini")) + sorted((REPO / "perfbench" / "configs").glob("*.ini"))
_TINY, _ABOVE_ONE = float(np.nextafter(0, 1)), float(np.nextafter(1, 2))
_PROBABILITIES = ("p_shelve", "p_spin_flip", "init_fidelity", "nuclear_pol", "p_readout_click", "pi_pulse_error", "p_cross")
_STEPS = build_sequence(ProtocolConfig(), InterferometerConfig())
_SEQUENCE_NS = _STEPS[-1].time_ns + _STEPS[-1].duration_ns  # of the default sequence
_BELOW_SEQUENCE = float(np.nextafter(_SEQUENCE_NS, 0))


def _dying_shard(*args):
    """A shard that kills the worker process it runs in."""
    os._exit(3)


IDEAL_CONFIG = """
[emitter]
p_cross = 0.0
zpl_fraction = 1.0
p_shelve = 0.0
p_spin_flip = 0.0
init_fidelity = 1.0
nuclear_pol = 1.0
pi_pulse_error = 0.0
p_readout_click = 1.0

[interferometer]
phase_mode = scan
phase_readout_sigma = 0.0

[detection]
zpl_efficiency = 1.0
seed = 42

[analysis]
p_readout_click = 1.0
"""


class TestConfig:
    def test_defaults_valid(self):
        config = RunConfig()
        assert all(ok for _, ok, _ in validate_config(config))

    def test_round_trip_is_idempotent(self):
        config = parse_config_text(IDEAL_CONFIG)
        text1 = dump_config(config)
        config2 = parse_config_text(text1)
        text2 = dump_config(config2)
        assert text1 == text2

    def test_values_applied(self):
        config = parse_config_text(IDEAL_CONFIG)
        assert config.emitter.p_cross == 0.0
        assert config.emitter.zpl_fraction == 1.0
        assert config.detection.seed == 42
        assert config.interferometer.phase_mode == "scan"

    def test_auto_cross_excitation_round_trip(self):
        config = parse_config_text("[emitter]\np_cross = auto\n")
        assert config.emitter.p_cross == "auto"
        again = parse_config_text(dump_config(config))
        assert again.emitter.p_cross == "auto"

    def test_unknown_key_named_with_line(self):
        text = "[emitter]\nzpl_fraction = 0.5\nbogus_knob = 1\n"
        with pytest.raises(ConfigError, match=r"bogus_knob.*line 3"):
            parse_config_text(text)

    @pytest.mark.parametrize("line", ["Cycle_Period_NS = nan", "cycle_period_ns: nan", "bogus_knob: 1"])
    def test_line_found_for_any_key_spelling(self, line):
        # keys are case-insensitive and may use ':' as the delimiter
        key = line.split()[0].rstrip(":").lower()
        with pytest.raises(ConfigError, match=rf"{key}.*line 3"):
            parse_config_text(f"[protocol]\n\n{line}\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"\[lasers\]"):
            parse_config_text("[lasers]\npower = 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nseed = 7\n",
            "[DEFAULT]\nseed = 7\n[detection]\nzpl_efficiency = 1.0\n",
            "[emitter]\nzpl_fraction = 0.5\n[DEFAULT]\nzpl_efficiency = 1.0\n",
        ],
        ids=["alone", "before-a-section", "after-a-section"],
    )
    def test_default_section_is_unknown(self, tmp_path, capsys, text):
        # configparser would read [DEFAULT] as defaults of every other section
        path = tmp_path / "run.ini"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 2
        assert "unknown section [DEFAULT]" in capsys.readouterr().err

    def test_bad_value_type_reported(self):
        with pytest.raises(ConfigError, match="init_fidelity"):
            parse_config_text("[emitter]\ninit_fidelity = high\n")

    def test_photon_numbers_list(self):
        config = parse_config_text("[rates]\nphoton_numbers = 1, 3, 10\n")
        assert config.rates.photon_numbers == (1, 3, 10)

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/run.ini")

    def test_analysis_quadrature_offset_is_unknown(self, tmp_path, capsys):
        # the quadrature offset is set once, in [interferometer]
        path = tmp_path / "run.ini"
        path.write_text("[analysis]\np_readout_click = 0.167\nquadrature_offset = 0.5\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "quadrature_offset" in err and "[analysis]" in err and "line 3" in err

    @pytest.mark.parametrize(
        "section,key",
        [("detection", "block_size")]
        + [("protocol", key) for key in ("green_init_ns", "pump_init_ns", "mw_pulse_ns", "readout_pulse_ns")]
        + [("interferometer", "scan_step_rad")],
    )
    def test_retired_key_is_unknown(self, tmp_path, capsys, section, key):
        # fixed in the model: the RNG block size (the record bytes depend on it),
        # the stage durations of one cycle and the golden-ratio scan step
        first = {"detection": "seed = 5", "protocol": "n_photons = 1", "interferometer": "delay_ns = 262.0"}[section]
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{first}\n{key} = 1024\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert f"unknown key '{key}' in section [{section}] (line 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("comment", ["# detector settings", "; detector settings"])
    @pytest.mark.parametrize(
        "line,message",
        [("bogus = 3", "unknown key 'bogus' in section [detection]"), ("zpl_efficiency = lots", "[detection] zpl_efficiency: ")],
        ids=["unknown-key", "unparsable-value"],
    )
    def test_line_found_under_a_commented_header(self, tmp_path, capsys, comment, line, message):
        # the parser strips an inline comment before it reads a section header
        path = tmp_path / "run.ini"
        path.write_text(f"[detection]  {comment}\nseed = 5\n{line}\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.rstrip().endswith("(line 3)"), err

    @pytest.mark.parametrize("key", ["long_arm_pol", "short_arm_pol"])
    def test_arm_polarization_is_unknown(self, tmp_path, capsys, key):
        # the long arm is always H and the short arm V; no key selects them
        path = tmp_path / "run.ini"
        path.write_text(f"[interferometer]\ndelay_ns = 262.0\n{key} = V\n")
        assert main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "[interferometer]" in err and "line 3" in err

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: str(p.relative_to(REPO)))
    def test_shipped_config_validates(self, path, capsys):
        assert main(["validate", "--config", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestCliSimulateAnalyze:
    def write_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(IDEAL_CONFIG)
        return str(path)

    def test_simulate_then_analyze(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "records.csv")
        code = main(["simulate", "--config", cfg, "--out", out, "--cycles", "30000"])
        assert code == 0
        summary = capsys.readouterr().out
        assert "heralded" in summary and "coincidences" in summary

        report_path = str(tmp_path / "report.txt")
        code = main(["analyze", out, "--config", cfg, "--out", report_path])
        assert code == 0
        text = capsys.readouterr().out
        f_line = [l for l in text.splitlines() if l.startswith("f_bound_raw")][0]
        value = float(f_line.split("=")[1].split("+-")[0])
        err = float(f_line.split("+-")[1])
        assert abs(value - 1.0) <= 3 * err + 0.01
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "report.txt.diagonals.csv").exists()
        assert (tmp_path / "report.txt.curves.csv").exists()

    def test_workers_and_seed_give_byte_identical_files(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", out1, "--cycles", "20000", "--seed", "7", "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2, "--cycles", "20000", "--seed", "7", "--workers", "8"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_dead_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a fork-started worker runs the patched shard and dies; the pool breaks
        monkeypatch.setattr("tpcsim.events._simulate_shard", _dying_shard)
        cfg = self.write_config(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--cycles", "131072", "--workers", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 2.34 GiB for an array")])
    def test_memory_error_is_one_error_line(self, capsys, monkeypatch, exc):
        def exhausted(args):
            raise exc

        monkeypatch.setattr("tpcsim.cli.cmd_validate", exhausted)
        assert main(["validate"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {str(exc) or 'MemoryError'}\n" and "Traceback" not in err

    def test_zero_cycles_is_usage_error(self, tmp_path):
        cfg = self.write_config(tmp_path)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--cycles", "0"])
        assert code == 2

    def test_cycles_not_an_integer_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--cycles", "x"]) == 2
        assert "--cycles: not an integer: 'x'" in capsys.readouterr().err

    def test_usage_error_leaves_the_next_call_unchanged(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "x.csv"
        ok = ["simulate", "--config", cfg, "--out", str(out), "--cycles", "20000"]
        bad = ["simulate", "--config", cfg, "--out", str(out), "--seed", "7", "--cycles", "0"]
        assert main(ok) == 0
        first = capsys.readouterr(), out.read_bytes()
        assert main(bad) == 2
        err = capsys.readouterr().err
        assert "--cycles: value must be >= 1" in err
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(bad)
        assert usage.value.code == 2 and capsys.readouterr().err == err
        assert main(ok) == 0
        assert (capsys.readouterr(), out.read_bytes()) == first

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "18446744073709551621"])
    def test_seed_outside_64_bits_exits_two(self, tmp_path, capsys, seed):
        # such a seed would alias one inside [0, 2**64)
        cfg = self.write_config(tmp_path)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--cycles", "10", f"--seed={seed}"]) == 2
        assert "--seed" in capsys.readouterr().err
        ini = tmp_path / "seed.ini"
        ini.write_text(f"[detection]\nseed = {seed}\n")
        assert main(["validate", "--config", str(ini)]) == 2
        assert "[detection] FAIL: seed must lie in [0, 2**64)" in capsys.readouterr().out
        assert main(["simulate", "--config", str(ini), "--out", str(out), "--cycles", "10"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[emitter]\nnot_a_knob = 3\n")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv"), "--cycles", "10"])
        assert code == 2

    def test_invalid_value_exits_two_from_simulate_as_from_validate(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[emitter]\np_shelve = 2\n")
        assert main(["validate", "--config", str(bad)]) == 2
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv"), "--cycles", "10"])
        assert code == 2
        assert "p_shelve" in capsys.readouterr().err

    def test_period_shorter_than_sequence_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[protocol]\ncycle_period_ns = -1\n")
        assert main(["validate", "--config", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "[protocol] FAIL" in out and "cycle_period_ns" in out
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv"), "--cycles", "10"])
        assert code == 2
        assert "cycle_period_ns" in capsys.readouterr().err

    def test_chain_with_background_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[protocol]\nn_photons = 2\ncycle_period_ns = 2e6\n\n[detection]\nbackground_rate_hz = 100\n")
        assert main(["validate", "--config", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "[detection] FAIL" in out and "background_rate_hz" in out
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv"), "--cycles", "10"])
        assert code == 2
        assert "background_rate_hz" in capsys.readouterr().err

    def test_analyze_refuses_chain_config(self, tmp_path, capsys):
        cfg = tmp_path / "chain.ini"
        cfg.write_text(IDEAL_CONFIG + "\n[protocol]\nn_photons = 2\ncycle_period_ns = 2000000.0\n")
        out = str(tmp_path / "chain.csv")
        assert main(["simulate", "--config", str(cfg), "--out", out, "--cycles", "300"]) == 0
        capsys.readouterr()
        assert main(["analyze", out, "--config", str(cfg)]) == 2
        assert "n_photons" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-0.3", "nan", "inf", "1"])
    def test_background_outside_unit_interval_exits_two(self, tmp_path, capsys, value):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "records.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--cycles", "5000"]) == 0
        capsys.readouterr()
        assert main(["analyze", out, "--config", cfg, f"--background={value}"]) == 2
        assert f"got {float(value)}" in capsys.readouterr().err

    def test_overflowing_estimate_is_one_data_error_line(self, tmp_path, capsys):
        # a click span of 1e-300 makes the inverted errors overflow a float:
        # one line names it, and numpy prints no warning
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "records.csv")
        assert main(["simulate", "--config", cfg, "--out", out, "--cycles", "5000"]) == 0
        tiny = tmp_path / "tiny.ini"
        tiny.write_text(IDEAL_CONFIG.replace("[analysis]\np_readout_click = 1.0", "[analysis]\np_readout_click = 1e-300"))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", out, "--config", str(tiny)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: an estimate overflows (overflow") and err.endswith("= 1e-300\n")
        assert err.count("\n") == 1

    def test_missing_records_file_exits_one(self, tmp_path):
        code = main(["analyze", str(tmp_path / "missing.csv")])
        assert code == 1

    def test_malformed_record_column_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("cycle_id,port,arrival_class,t_ns,phase_rad,prep_sign\n")
        code = main(["analyze", str(path)])
        assert code == 2
        assert "readout_click" in capsys.readouterr().err

    def test_malformed_record_line_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "cycle_id,port,arrival_class,t_ns,phase_rad,prep_sign,readout_click\n"
            "0,D,Erased,nan_oops_extra\n"
        )
        code = main(["analyze", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_analysis_uses_interferometer_quadrature_offset(self, tmp_path, capsys):
        # simulate and analyze read the port offsets from the same [interferometer]
        ini = tmp_path / "fixture.ini"
        write_fixture_ini(ini)
        text = ini.read_text().replace("[interferometer]\n", "[interferometer]\nquadrature_offset = 3.9269908169872414\n")
        ini.write_text(text)
        out = str(tmp_path / "records.csv")
        assert main(["simulate", "--config", str(ini), "--out", out, "--cycles", "200000"]) == 0
        capsys.readouterr()
        assert main(["analyze", out, "--config", str(ini)]) == 0
        line = [l for l in capsys.readouterr().out.splitlines() if l.startswith("c_xx = ")][0]
        value, err = (float(x) for x in line.split("=")[1].split("+-"))
        assert abs(value - 0.407) <= 3 * err

    def test_unknown_port_exits_two_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "cycle_id,port,arrival_class,t_ns,phase_rad,prep_sign,readout_click\n"
            "0,D,Erased,1.0,0.5,minus,1\n"
            "1,Q,Erased,2.0,0.5,plus,0\n"
        )
        code = main(["analyze", str(path)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err


class TestCliRatesValidate:
    def test_rates_table_contains_published_rows(self, capsys):
        assert main(["rates"]) == 0
        out = capsys.readouterr().out
        lines = {int(l.split()[0]): float(l.split()[1]) for l in out.splitlines()[1:] if l.strip()}
        assert lines[3] == pytest.approx(6400.0)
        assert abs(lines[10] - 10.49) < 0.01

    @pytest.mark.parametrize("key,value", [("zpl_purcell", "20"), ("active_switch", "true")])
    def test_rates_refuses_unmodeled_enhancement(self, tmp_path, capsys, key, value):
        path = tmp_path / "rates.ini"
        path.write_text(f"[rates]\n{key} = {value}\n")
        assert main(["rates", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert "n_photons" not in captured.out

    def test_validate_default_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 6

    def test_validate_names_failing_section(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[interferometer]\nsplit_ratio = 1.5\n")
        code = main(["validate", "--config", str(bad)])
        assert code == 2
        out = capsys.readouterr().out
        assert "[interferometer] FAIL" in out
        assert "split_ratio" in out

    @pytest.mark.parametrize("command", ["validate", "simulate", "analyze", "rates"])
    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("protocol", "cycle_period_ns", "nan"),
            ("interferometer", "phase", "nan"),
            ("detection", "background_rate_hz", "nan"),
            ("rates", "single_shot_readout_s", "nan"),
            ("emitter", "p_cross", "inf"),
            ("interferometer", "delay_ns", "-inf"),
        ],
    )
    def test_non_finite_value_is_a_config_error(self, tmp_path, capsys, command, section, key, value):
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n# a comment\n{key} = {value}\n")
        args = {
            "validate": ["validate"],
            "simulate": ["simulate", "--out", str(tmp_path / "x.csv"), "--cycles", "10"],
            "analyze": ["analyze", str(tmp_path / "x.csv")],
            "rates": ["rates"],
        }[command]
        assert main([*args, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err and "finite" in err and "line 3" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "section,others,key,accepted,refused,message",
        [
            ("analysis", {}, "n_phase_bins", 4, 3, "n_phase_bins must be >= 4"),
            # a zero click span would divide by zero when click fractions are inverted
            ("analysis", {"p_readout_click": 0.167}, "readout_dark_click", float(np.nextafter(0.167, 0)), 0.167,
             "readout_dark_click must lie in [0, p_readout_click)"),
            ("interferometer", {"delay_ns": 262.0}, "window_ns", float(np.nextafter(131.0, 0)), 131.0,
             "window_ns must lie in (0, delay_ns / 2)"),
            ("interferometer", {}, "erasure_visibility", 0.0, -float(np.nextafter(0, 1)), "erasure_visibility must lie in [0, 1]"),
            ("interferometer", {}, "erasure_visibility", 1.0, float(np.nextafter(1, 2)), "erasure_visibility must lie in [0, 1]"),
            ("interferometer", {}, "split_ratio", float(np.nextafter(0, 1)), 0.0, "split_ratio must lie in (0, 1)"),
            ("interferometer", {}, "split_ratio", float(np.nextafter(1, 0)), 1.0, "split_ratio must lie in (0, 1)"),
            # delay_ns = 0 is refused by its own rule and, were that one
            # loosened, by window_ns < delay_ns / 2, so its bound is not pinned here
            ("interferometer", {}, "window_ns", float(np.nextafter(0, 1)), 0.0, "window_ns must lie in (0, delay_ns / 2)"),
            ("interferometer", {}, "phase_readout_sigma", 0.0, -float(np.nextafter(0, 1)),
             "phase noise parameters must be non-negative"),
            ("detection", {}, "readout_dark_click", 1.0, float(np.nextafter(1, 2)), "readout_dark_click must lie in [0, 1]"),
            ("analysis", {}, "p_readout_click", 1.0, float(np.nextafter(1, 2)), "p_readout_click must lie in (0, 1]"),
            # at 0 the click span is refused by this rule first, not by readout_dark_click < p_readout_click
            ("analysis", {"readout_dark_click": 0.0}, "p_readout_click", _TINY, 0.0, "p_readout_click must lie in (0, 1]"),
            ("analysis", {}, "readout_dark_click", 0.0, -_TINY, "readout_dark_click must lie in [0, p_readout_click)"),
            ("detection", {}, "readout_dark_click", 0.0, -_TINY, "readout_dark_click must lie in [0, 1]"),
            ("rates", {}, "sequence_duration_s", _TINY, 0.0, "sequence_duration_s must be > 0"),
            ("analysis", {}, "min_cell_count", 1, 0, "min_cell_count must be >= 1"),
            ("rates", {}, "system_efficiency", 1.0, float(np.nextafter(1, 2)), "system_efficiency must lie in (0, 1]"),
            ("rates", {}, "single_shot_readout_s", 0.0, -float(np.nextafter(0, 1)),
             "single_shot_readout_s must be >= 0 (0 disables)"),
            ("emitter", {}, "detuning_ghz", 0.0, -_TINY, "detuning_ghz must be >= 0"),
            # with p_cross = auto, a line this narrow resolves it to 0
            ("emitter", {}, "linewidth_mhz", _TINY, 0.0, "linewidth_mhz must be > 0"),
            *(("emitter", {}, name, accepted, refused, f"{name} must lie in [0, 1]")
              for name in _PROBABILITIES for accepted, refused in ((0.0, -_TINY), (1.0, _ABOVE_ONE))),
            ("emitter", {}, "zpl_fraction", _TINY, 0.0, "zpl_fraction must lie in (0, 1]"),
            ("emitter", {}, "zpl_fraction", 1.0, _ABOVE_ONE, "zpl_fraction must lie in (0, 1]"),
            ("protocol", {}, "n_photons", 1, 0, "n_photons must be >= 1"),
            # the period must hold the pulse sequence, which build_sequence checks
            ("protocol", {}, "cycle_period_ns", _SEQUENCE_NS, _BELOW_SEQUENCE,
             f"cycle_period_ns {_BELOW_SEQUENCE} shorter than sequence duration {_SEQUENCE_NS}"),
            ("detection", {}, "zpl_efficiency", _TINY, 0.0, "zpl_efficiency must lie in (0, 1]"),
            ("detection", {}, "zpl_efficiency", 1.0, _ABOVE_ONE, "zpl_efficiency must lie in (0, 1]"),
            ("detection", {}, "background_rate_hz", 0.0, -_TINY, "background_rate_hz must be >= 0"),
            ("detection", {}, "seed", 0, -1, "seed must lie in [0, 2**64)"),
            ("detection", {}, "seed", 2**64 - 1, 2**64, "seed must lie in [0, 2**64)"),
            ("interferometer", {}, "phase_drift_var_per_ns", 0.0, -_TINY, "phase noise parameters must be non-negative"),
            ("rates", {}, "photon_numbers", (1,), (0,), "photon_numbers must be positive integers"),
            ("rates", {}, "photon_numbers", (1,), (), "photon_numbers must be positive integers"),
        ],
        ids=[
            "n_phase_bins", "readout_dark_click", "window_ns", "erasure_visibility",
            "erasure_visibility_upper", "split_ratio", "split_ratio_upper", "window_ns_lower", "phase_readout_sigma",
            "detection_readout_dark_click", "p_readout_click", "p_readout_click_lower", "readout_dark_click_lower",
            "detection_readout_dark_click_lower", "sequence_duration_s", "min_cell_count", "system_efficiency",
            "single_shot_readout_s",
            "detuning_ghz", "linewidth_mhz",
            *(f"emitter_{name}_{end}" for name in _PROBABILITIES for end in ("lower", "upper")),
            "zpl_fraction_lower", "zpl_fraction_upper", "n_photons", "cycle_period_ns", "zpl_efficiency_lower",
            "zpl_efficiency_upper", "background_rate_hz", "seed_lower", "seed_upper", "phase_drift_var_per_ns",
            "photon_numbers", "photon_numbers_empty",
        ],
    )
    def test_boundary_is_pinned(self, tmp_path, capsys, section, others, key, accepted, refused, message):
        # the last value accepted and the first refused, by validate_config
        # and by `tpcsim validate` on the dumped config file (exit 2)
        path = tmp_path / "run.ini"
        for value, code in ((accepted, 0), (refused, 2)):
            config = RunConfig()
            setattr(config, section, replace(getattr(config, section), **others, **{key: value}))
            failed = [(name, text) for name, ok, text in validate_config(config) if not ok]
            assert [name for name, _ in failed] == ([section] if code else []), failed
            assert all(text.startswith(message) for _, text in failed), failed
            path.write_text(dump_config(config))
            assert main(["validate", "--config", str(path)]) == code
            out = capsys.readouterr().out
            assert (f"[{section}] FAIL: {message}" if code else f"[{section}] pass") in out
            assert ("FAIL" in out) == (code == 2), out

    def test_module_entry_point_runs_without_warnings(self):
        # python -m tpcsim must not re-import tpcsim.cli as __main__
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tpcsim", "validate", "--config", "configs/example.ini"],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == "" and "[rates] pass" in done.stdout

    def test_validate_dump_round_trips(self, capsys):
        assert main(["validate", "--dump"]) == 0
        out = capsys.readouterr().out
        dumped = out.split("\n\n", 1)[1]  # after the pass/fail block
        dumped = dumped.split("# pulse sequence timing")[0]
        config = parse_config_text(dumped)
        assert config.protocol.n_photons == 1
        assert "optical_pulse" in out  # timing table attached
