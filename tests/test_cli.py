"""Config parsing and CLI behavior: round trips, diagnostics, exit codes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tpcsim.cli import main
from tpcsim.config import ConfigError, RunConfig, dump_config, load_config, parse_config_text, validate_config

from conftest import write_fixture_ini

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((REPO / "configs").glob("*.ini")) + sorted((REPO / "perfbench" / "configs").glob("*.ini"))


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

    def test_block_size_is_unknown(self, tmp_path, capsys):
        # the RNG block size is fixed: the record bytes depend on it
        path = tmp_path / "run.ini"
        path.write_text("[detection]\nseed = 5\nblock_size = 1024\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "unknown key 'block_size' in section [detection] (line 3)" in capsys.readouterr().err

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

    def test_zero_cycles_is_usage_error(self, tmp_path):
        cfg = self.write_config(tmp_path)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--cycles", "0"])
        assert code == 2

    def test_cycles_not_an_integer_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--cycles", "x"]) == 2
        assert "--cycles: not an integer: 'x'" in capsys.readouterr().err

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

    def test_zero_linewidth_is_named(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[emitter]\nlinewidth_mhz = 0\n")
        assert main(["validate", "--config", str(path)]) == 2
        out = capsys.readouterr().out
        assert "[emitter] FAIL: linewidth_mhz must be > 0" in out

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
