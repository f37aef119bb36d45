"""Smoke tests of the benchmark itself, at tiny cycle counts.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, *extra, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, cwd=root, timeout=300,
    )
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted(workload, trace, kind):
    proc = run_bench(workload, trace)
    result = result_of(proc)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[kind]
    }


def copy_benchmark(root):
    """BENCHMARK.json and perfbench/ alone, as in a bare checkout of the benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))


@pytest.mark.parametrize("field", ["sha256", "c_xx"])
def test_wrong_pin_fails_the_run(tmp_path, field):
    copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    pins_file = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_file.read_text())
    for pin in pins["pins"]:
        if field == "sha256":
            pin["sha256"] = "0" * 64
        else:
            pin["report"][field] += 1e-5
    pins_file.write_text(json.dumps(pins))
    proc = run_bench("dense-pipeline", 0, root=tmp_path)
    result = result_of(proc)
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    copy_benchmark(tmp_path)
    proc = run_bench("dense-pipeline", 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
