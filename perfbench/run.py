#!/usr/bin/env python3
"""tpcsim benchmark: run one workload end to end, or traced per layer.

Run from the repository root (the package is imported from ./src, never from
an installed copy):

    python3 perfbench/run.py --workload dense-pipeline --seed 404 --seconds 30 --trace 0

With ``--trace 0`` every simulate and analyze goes through ``tpcsim.cli.main``
in this process and the end-to-end metrics are printed. With ``--trace 1``
every iteration makes the library calls that ``cmd_simulate`` and
``cmd_analyze`` make; every other iteration wraps one span around each call,
and the per-layer metrics are printed. Both modes check the outputs after
timing. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; README.md lists every
metric.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

# One compute thread: the timed load is this one process (and, on sparse-w2,
# its two pool workers). Threaded BLAS would
# add threads that compete for the same CPUs and vary with their load. Must be
# set before numpy loads OpenBLAS.
BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

from tracing import Tracer, maxrss_mib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"

# Calibration kernel's time at the reference speed: about its median in
# benchmark runs on the 2-vCPU Intel Xeon VM where the benchmark was written
# (Python 3.11, numpy 2.4). Every end-to-end time is scaled to this speed;
# see Speed.
CAL_REF_S = 0.014
PIN_TOLERANCE = 2e-6  # two units of the report's last printed digit
# Statistical gates fail a run beyond 5 sigma. The criteria's 3 sigma is the
# rule for one test on a fixed seed, and it fails 0.27 % of correct seeds. The
# benchmark applies its gates on whatever seed it is given: a comparison of two
# commits over 90 runs makes about 180 gate tests, and at 3 sigma correct code
# would fail one of them in 4 comparisons out of 10. 5 sigma fails 6e-7 of
# correct seeds. Every gate prints its z-score, so a 3-sigma excursion shows.
GATE_SIGMAS = 5.0
SETUP_REPEATS = 3  # before timing; the first import compiles bytecode
MIN_ITERATIONS = 2  # two runs of one seed are needed for the byte-equality check


@dataclass(frozen=True)
class Leg:
    """One ``tpcsim simulate`` call of a workload iteration."""

    name: str
    config: Path
    n_photons: int
    cycles: int
    smoke_cycles: int


@dataclass(frozen=True)
class Workload:
    name: str
    legs: tuple[Leg, ...]
    default_seed: int
    verify: Callable
    analyze: bool = True  # False for chains: `tpcsim analyze` refuses n_photons > 1
    auto_background: bool = False  # `tpcsim analyze --auto-background`
    workers: int = 1  # `tpcsim simulate --workers`
    ingest_passes: int = 1  # repeat a short ingest so it is sampled often
    pinned: bool = False  # on the default seed the records and report must match pins.json


def calibration_kernel() -> float:
    """Fixed work of the kinds that carry tpcsim's time: an interpreter loop
    over ints and a dict, and small complex matrix products. It allocates
    nothing the garbage collector tracks, so the program's heap cannot change
    its time."""
    table = dict.fromkeys(range(256), 0)
    acc = 0
    for i in range(40_000):
        acc += table[i & 255] + i % 7
        table[i & 255] = acc & 1023
    m = np.full((4, 4), 0.25, dtype=complex)
    for _ in range(2_000):
        m = m @ m  # a fixed point: every entry stays 0.25
    return acc + float(m.real.sum())


class Speed:
    """Scales timed samples to a reference machine speed.

    Other tenants of a shared VM slow this process by up to 1.7x, in phases
    of seconds to minutes, and the calibration kernel slows with it. The
    kernel runs before and after each timed sample, and the sample's wall
    time is scaled by the reference time over the mean of the two kernel
    times. Only end-to-end times are scaled; spans keep their wall times.
    """

    def __init__(self):
        self.last = 0.0  # the latest probe; it also opens the next sample
        self.factors: list[float] = []

    def probe(self) -> float:
        t0 = time.perf_counter()
        calibration_kernel()
        self.last = time.perf_counter() - t0
        return self.last

    def scaled(self, fn, *args) -> float:
        """Seconds that ``fn(*args)`` would take at the reference speed."""
        before = self.last or self.probe()
        t0 = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - t0
        factor = CAL_REF_S / (0.5 * (before + self.probe()))
        self.factors.append(factor)
        return wall * factor


class ProgramFailed(RuntimeError):
    """A tpcsim command exited non-zero; the failure is already counted."""


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0
    simulate_s: float = 0.0
    ingest_s: list[float] = field(default_factory=list)
    cycles: int = 0
    stats: dict = field(default_factory=dict)  # leg -> simulate summary counts
    sha: dict = field(default_factory=dict)  # leg -> sha256 of the record file
    report: str = ""
    marks: tuple[int, int] = (0, 0)  # span range of a traced iteration


# -- reference values from the exact executors ------------------------------------


def reference(tp, config, tracer) -> dict:
    """Exact targets of one leg: heralded states (run_noisy) and ideal stabilizers."""
    pr = tp.protocol
    pcfg, ifm = config.protocol, config.interferometer
    preps = ("minus", "plus") if config.detection.alternate_preps else (pcfg.prep_sign,)
    with tracer.span("protocol.run_noisy"):
        heralded = [
            pr.run_noisy(pr.build_sequence(replace(pcfg, prep_sign=p), ifm), config.emitter, ifm)
            for p in preps
        ]
    with tracer.span("protocol.run_ideal"):
        ideal = pr.run_ideal(pr.build_sequence(pcfg, ifm), phi=0.0)
    with tracer.span("protocol.stabilizer_check"):
        stabilizers = pr.stabilizer_check(ideal, pcfg.n_photons, pcfg.chain_mode, pcfg.prep_sign)
    ref = {
        "herald_prob": float(np.mean([h.trace() for h in heralded])),
        "stabilizers": [float(np.real(v)) for v in stabilizers],
    }
    if pcfg.n_photons == 1 and len(preps) == 2:
        # criterion 4: weight the two preparations by heralding probability;
        # C_xx is half the difference of the two anti-phased fringes
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        xx = tp.qsim.Operator(np.kron(sx, sx), ("spin", "photon1"))
        weights, diags, xxs = [], [], []
        for h in heralded:
            pair = pr.as_qubit_pair(h.normalized())
            weights.append(h.trace())
            diags.append(np.real(np.diag(pair.data)))
            xxs.append(tp.qsim.expectation(pair, xx))
        diag = sum(w * d for w, d in zip(weights, diags)) / sum(weights)
        c_xx = 0.5 * (xxs[0] - xxs[1])
        ref["c_zz"] = float(diag[1] + diag[2] - diag[0] - diag[3])
        ref["c_xx"] = float(c_xx)
        ref["f_bound_raw"] = float(tp.analysis.fidelity_bound(tuple(diag), c_xx))
    return ref


# -- correctness gates, one per workload -------------------------------------------


def parse_report(text: str) -> dict:
    """``name = value +- error`` lines of a tpcsim analyze report."""
    values = {}
    for line in text.splitlines():
        name, _, rest = line.partition(" = ")
        parts = rest.split(" +- ")
        if len(parts) == 2:
            values[name] = (float(parts[0]), float(parts[1]))
    return values


def gate(bench, what: str, value: float, expect: float, sigma: float, slack: float = 0.0) -> bool:
    """A statistical check: ``value`` within GATE_SIGMAS sigma (plus ``slack``) of ``expect``."""
    excess = abs(value - expect) - slack
    z = excess / sigma if sigma > 0 else (0.0 if excess <= 0 else math.inf)
    print(f"# gate {what}: {value:.6g}, expect {expect:.6g} +- {sigma:.3g}, z = {z:.2f}")
    return bench.check(
        excess <= GATE_SIGMAS * sigma,
        f"{what} = {value:.6g}, expect {expect:.6g} +- {GATE_SIGMAS:g} x {sigma:.3g} (+ {slack:g}): z = {z:.2f}",
    )


def verify_recovery(bench, last: Iteration) -> None:
    """Criterion 4's rule: the pipeline recovers the exact values (+1e-3 on F)."""
    ref = bench.refs[bench.wl.legs[0].name]
    got = parse_report(last.report)
    for name, slack in (("c_zz", 0.0), ("c_xx", 0.0), ("f_bound_raw", 1e-3)):
        value, err = got.get(name, (math.nan, math.nan))
        gate(bench, name, value, ref[name], err, slack)


def heralded_cycles(tp, pairs: list, n_photons: int) -> int:
    """Cycles whose every photon was path-erased, from a chain file's pairs."""
    erased = tp.optics.ArrivalClass.ERASED.value
    by_cycle: dict[int, list[str]] = {}
    for rec, _ in pairs:
        by_cycle.setdefault(rec.cycle_id, []).append(rec.arrival_class)
    return sum(1 for v in by_cycle.values() if len(v) == n_photons and set(v) == {erased})


def verify_sparse(bench, last: Iteration) -> None:
    """Criterion 7 scaled to the iteration: coincidences of 36 an hour, Poisson sigma.

    With more than one worker, the records must also equal those of one worker.
    """
    leg = bench.wl.legs[0]
    expect = HOUR_COINCIDENCES * bench.cycles(leg) / HOUR_CYCLES
    gate(bench, f"{leg.name} coincidences", last.stats[leg.name]["coincidences"], expect, math.sqrt(expect))
    if bench.wl.workers > 1:
        one = bench.workdir / f"{leg.name}.workers1.csv"
        bench.simulate_cli(leg, out=one, workers=1)
        bench.check(
            file_sha256(one) == last.sha[leg.name],
            f"{leg.name}: records of --workers {bench.wl.workers} differ from those of --workers 1",
        )


def verify_chains(bench, last: Iteration) -> None:
    """Criterion 8: heralded fraction of 2^-n, binomial sigma; exact herald weight."""
    for leg in bench.wl.legs:
        target = 2.0 ** -leg.n_photons
        cycles = bench.cycles(leg)
        frac = heralded_cycles(bench.tp, bench.pairs[leg.name], leg.n_photons) / cycles
        sigma = math.sqrt(target * (1.0 - target) / cycles)
        gate(bench, f"{leg.name} heralded fraction", frac, target, sigma)
        weight = bench.refs[leg.name]["herald_prob"]
        bench.check(
            abs(weight - target) <= 1e-9,
            f"{leg.name}: run_noisy herald probability {weight!r}, expect {target}",
        )


DENSE = Leg("dense", HERE / "configs" / "dense.ini", 1, 40_000, 5_000)
CHAIN2 = Leg("chain_n2", HERE / "configs" / "chain_n2.ini", 2, 1_500, 200)
CHAIN3 = Leg("chain_n3", HERE / "configs" / "chain_n3.ini", 3, 250, 40)
HOUR_CYCLES = 21_556_886  # one hour of the sparse config's 167 us cycles
HOUR_COINCIDENCES = 36  # criterion 7: the published hourly count
SPARSE = Leg("sparse", HERE / "configs" / "sparse.ini", 1, HOUR_CYCLES // 4, 2_000_000)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "dense-pipeline",
            (DENSE,),
            default_seed=404,
            verify=verify_recovery,
            pinned=True,
        ),
        Workload(
            "sparse",
            (SPARSE,),
            default_seed=2024,
            verify=verify_sparse,
            auto_background=True,
            ingest_passes=10,
            pinned=True,
        ),
        Workload(
            "sparse-w2",
            (SPARSE,),
            default_seed=2024,
            verify=verify_sparse,
            auto_background=True,
            workers=2,
            ingest_passes=10,
            pinned=True,
        ),
        Workload(
            "chains",
            (CHAIN2, CHAIN3),
            default_seed=800,
            verify=verify_chains,
            analyze=False,
            ingest_passes=3,
        ),
    )
}


# -- environment --------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "tpcsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    loadavg = None
    with contextlib.suppress(OSError):
        loadavg = [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    return {
        "git_sha": git_sha(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": loadavg,
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
    }


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def parse_counts(text: str) -> dict:
    """``name = <int>`` lines printed by ``tpcsim simulate``."""
    counts = {}
    for line in text.splitlines():
        name, _, value = line.partition(" = ")
        if value.strip().isdigit():
            counts[name] = int(value)
    return counts


# -- the benchmark run ---------------------------------------------------------------


class Bench:
    def __init__(self, wl: Workload, seed: int, smoke: bool, trace: bool, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.smoke = smoke
        self.library = trace  # the traced run calls the library, the untraced one the CLI
        self.workdir = workdir
        self.tracer = Tracer(f"{wl.name}-seed{seed}-{os.getpid()}", enabled=trace)
        self.untraced = Tracer("", enabled=False)
        self.tp = None
        self.refs: dict = {}
        self.pairs: dict = {}  # leg -> pairs of the last chain ingest pass
        self.speed = Speed()
        self.attempted = 0
        self.failures: list[str] = []

    def cycles(self, leg: Leg) -> int:
        return leg.smoke_cycles if self.smoke else leg.cycles

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)
        return ok

    def csv(self, leg: Leg) -> Path:
        return self.workdir / f"{leg.name}.csv"

    # set-up: everything before the first timed cycle

    def setup(self) -> None:
        tracer = self.tracer
        with tracer.span("setup"):
            for name in [m for m in sys.modules if m == "tpcsim" or m.startswith("tpcsim.")]:
                del sys.modules[name]
            with tracer.span("setup.import"):
                tp = importlib.import_module("tpcsim")
            for leg in self.wl.legs:
                with tracer.span("config.load_config"):
                    config = tp.config.load_config(str(leg.config))
                self.refs[leg.name] = reference(tp, config, tracer)
                detection = replace(config.detection, seed=self.seed)
                with tracer.span("events.compile", leg=leg.name):
                    tp.events.simulate_cycles(
                        1, config.emitter, config.interferometer, config.protocol, detection
                    )
        self.tp = tp

    # one pass of the workload's user path

    def cli(self, *argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tp.cli.main([str(a) for a in argv])
        if not self.check(code == 0, f"tpcsim {argv[0]} exited {code}: {err.getvalue().strip()}"):
            raise ProgramFailed(argv[0])
        return out.getvalue()

    def simulate_cli(self, leg: Leg, out: Path | None = None, workers: int | None = None) -> dict:
        text = self.cli(
            "simulate", "--config", leg.config, "--out", out or self.csv(leg), "--cycles", self.cycles(leg),
            "--seed", self.seed, "--workers", workers or self.wl.workers,
        )
        return parse_counts(text)

    def simulate_library(self, leg: Leg, tr: Tracer) -> dict:
        """The calls of ``cmd_simulate``, one span each."""
        ev = self.tp.events
        cycles = self.cycles(leg)
        with tr.span("cmd.simulate", leg=leg.name):
            with tr.span("config.load_config"):
                config = self.tp.config.load_config(str(leg.config))
            detection = replace(config.detection, seed=self.seed)
            with tr.span("events.simulate_cycles", cycles=cycles, n_photons=leg.n_photons) as attrs:
                records = ev.simulate_cycles(
                    cycles, config.emitter, config.interferometer, config.protocol, detection,
                    workers=self.wl.workers,
                )
            attrs.update(records=len(records), record_nbytes=records.nbytes)
            with tr.span("events.write_records") as attrs:
                ev.write_records(self.csv(leg), records)
            attrs["csv_bytes"] = self.csv(leg).stat().st_size
            with tr.span("events.summarize") as attrs:
                stats = ev.summarize(records, config.protocol.n_photons)
            attrs.update(stats)
        return dict(stats, cycles=cycles)

    def analyze(self, leg: Leg, tr: Tracer) -> None:
        report = self.workdir / f"{leg.name}.report.txt"
        if not self.library:
            flags = ["--auto-background"] if self.wl.auto_background else []
            self.cli("analyze", self.csv(leg), "--config", leg.config, "--out", report, *flags)
            return
        tp = self.tp
        with tr.span("cmd.analyze", leg=leg.name):
            with tr.span("config.load_config"):
                config = tp.config.load_config(str(leg.config))
            with tr.span("events.read_records"):
                records = tp.events.read_records(self.csv(leg))
            with tr.span("analysis.analyze") as attrs:
                result = tp.analysis.analyze_records(
                    records, config.analysis, config.interferometer, background=None,
                    auto_background=self.wl.auto_background,
                )
            attrs.update(
                records_used=result.n_records,
                rejected_cycles=result.n_rejected_cycles,
                insufficient_cells=len(result.insufficient_cells),
            )
            with tr.span("analysis.write_report"):
                with open(report, "w", encoding="utf-8") as fh:
                    fh.write(result.to_text())
                tp.analysis.write_diagonals_csv(str(report) + ".diagonals.csv", result)
                tp.analysis.write_curves_csv(str(report) + ".curves.csv", result)

    def ingest_chain(self, leg: Leg, tr: Tracer) -> None:
        """Read a chain file back and pair it, as criterion 8 does.

        ``tpcsim analyze`` refuses n_photons > 1, so pairing is the analysis a
        chain record file gets. The pairs are kept for the checks, which
        count the heralded cycles after timing.
        """
        ev = self.tp.events
        with tr.span("events.read_records"):
            records = ev.read_records(self.csv(leg))
        with tr.span("analysis.analyze") as attrs:
            pairs, rejected = ev.pair_coincidences(records, n_photons=leg.n_photons)
        attrs.update(records_used=len(pairs), rejected_cycles=rejected, insufficient_cells=0)
        self.pairs[leg.name] = pairs

    def ingest(self, tr: Tracer) -> None:
        """Read back and analyze every leg's file once."""
        for leg in self.wl.legs:
            if self.wl.analyze:
                self.analyze(leg, tr)
            else:
                self.ingest_chain(leg, tr)

    def simulate(self, it: Iteration, tr: Tracer) -> None:
        """Simulate every leg once."""
        for leg in self.wl.legs:
            if self.library:
                stats = self.simulate_library(leg, tr)
            else:
                stats = self.simulate_cli(leg)
            it.stats[leg.name] = stats
            it.cycles += self.cycles(leg)

    def iteration(self, traced: bool) -> Iteration:
        tr = self.tracer if traced else self.untraced
        it = Iteration(traced=traced)
        start_mark = self.tracer.mark()
        t_start = time.perf_counter()
        with tr.span("iteration"):
            it.simulate_s = self.speed.scaled(self.simulate, it, tr)
            it.ingest_s = [self.speed.scaled(self.ingest, tr) for _ in range(self.wl.ingest_passes)]
        it.wall_s = time.perf_counter() - t_start
        it.marks = (start_mark, self.tracer.mark())
        for leg in self.wl.legs:
            it.sha[leg.name] = file_sha256(self.csv(leg))
        if self.wl.analyze:
            it.report = (self.workdir / f"{self.wl.legs[0].name}.report.txt").read_text()
        return it

    def user_path_s(self, it: Iteration) -> float:
        """Scaled time of the workload's user path: simulate, then one analyze."""
        return it.simulate_s + (statistics.median(it.ingest_s) if self.wl.analyze else 0.0)

    # checks after timing

    def verify(self, iterations: list[Iteration]) -> None:
        last = iterations[-1]
        for leg in self.wl.legs:
            shas = {it.sha[leg.name] for it in iterations}
            self.check(len(shas) == 1, f"{leg.name}: record bytes differ between runs of seed {self.seed}")
            stabilizers = self.refs[leg.name]["stabilizers"]
            self.check(
                all(abs(v - 1.0) <= 1e-9 for v in stabilizers),
                f"{leg.name}: run_ideal stabilizers {stabilizers}, expect 1 within 1e-9",
            )
        if self.wl.pinned and self.seed == self.wl.default_seed:
            self.verify_pins(last)
        self.wl.verify(self, last)

    def verify_pins(self, last: Iteration) -> None:
        """Default seed: pinned record bytes, and the report pinned to its last digits."""
        leg = self.wl.legs[0]
        key = (leg.name, self.seed, self.cycles(leg))
        pins = [
            p for p in json.loads(PINS.read_text())["pins"]
            if (p["leg"], p["seed"], p["cycles"]) == key
        ]
        if not self.check(len(pins) == 1, f"{leg.name}: {len(pins)} pins for {key}, expect 1"):
            return
        pin = pins[0]
        self.check(
            pin["sha256"] == last.sha[leg.name],
            f"{leg.name}: sha256 {last.sha[leg.name]}, pinned {pin['sha256']} for {key}",
        )
        got = parse_report(last.report)
        for name, want in pin["report"].items():
            value = got.get(name, (math.nan,))[0]
            self.check(
                abs(value - want) <= PIN_TOLERANCE,
                f"{leg.name}: report {name} = {value}, pinned {want} for {key}",
            )


# -- metrics -------------------------------------------------------------------------


def end_to_end(bench: Bench, iterations: list[Iteration], setups: list[float], peak_rss: float) -> dict:
    passes = [s for it in iterations for s in it.ingest_s]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "cycles_per_s": (iterations[-1].cycles / statistics.median(bench.user_path_s(it) for it in iterations), "1/s"),
        "ingest_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }


def per_layer(bench: Bench, iterations: list[Iteration], setup_marks: list[tuple[int, int]]) -> dict:
    tr = bench.tracer
    traced = [it for it in iterations if it.traced]
    untraced = [it for it in iterations if not it.traced]

    def setup_median(name):
        return statistics.median(tr.seconds(name, a, b) for a, b in setup_marks)

    def iter_median(name, key="wall", per_pass=False):
        div = bench.wl.ingest_passes if per_pass else 1
        return statistics.median(tr.seconds(name, *it.marks, key=key) / div for it in traced)

    def attr_sum(name, attr, it):
        spans = tr.select(name, *it.marks)
        if name in ("events.read_records", "analysis.analyze"):
            spans = spans[-len(bench.wl.legs):]  # the last ingest pass
        return sum(s["attrs"].get(attr, 0) for s in spans)

    def first_maxrss(name):
        return max(s["maxrss_mb"] for s in tr.select(name, *traced[0].marks))

    last = traced[-1]
    cycles = last.cycles
    records = attr_sum("events.simulate_cycles", "records", last)
    metrics = {
        "config.load_config_s": (statistics.median(s["end"] - s["start"] for s in tr.select("config.load_config", 0)), "s"),
        "protocol.run_noisy_s": (setup_median("protocol.run_noisy"), "s"),
        "protocol.run_ideal_s": (setup_median("protocol.run_ideal"), "s"),
        "protocol.stabilizer_check_s": (setup_median("protocol.stabilizer_check"), "s"),
        "events.compile_s": (setup_median("events.compile"), "s"),
        "events.simulate_cycles_s": (iter_median("events.simulate_cycles"), "s"),
        "events.simulate_cycles_cpu_s": (iter_median("events.simulate_cycles", key="cpu"), "s"),
        "events.simulate_ns_per_cycle": (iter_median("events.simulate_cycles") / cycles * 1e9, "ns"),
        "events.cycles": (cycles, "count"),
        "events.records": (records, "count"),
        "events.records_per_cycle": (records / cycles, "count"),
        "events.record_nbytes": (attr_sum("events.simulate_cycles", "record_nbytes", last), "B"),
        "events.write_records_s": (iter_median("events.write_records"), "s"),
        "events.csv_bytes": (attr_sum("events.write_records", "csv_bytes", last), "B"),
        "events.summarize_s": (iter_median("events.summarize"), "s"),
        "events.heralded": (attr_sum("events.summarize", "heralded", last), "count"),
        "events.coincidences": (attr_sum("events.summarize", "coincidences", last), "count"),
        "events.rejected_cycles": (attr_sum("events.summarize", "rejected_cycles", last), "count"),
        "events.read_records_s": (iter_median("events.read_records", per_pass=True), "s"),
        "analysis.analyze_s": (iter_median("analysis.analyze", per_pass=True), "s"),
        "analysis.records_used": (attr_sum("analysis.analyze", "records_used", last), "count"),
        "analysis.rejected_cycles": (attr_sum("analysis.analyze", "rejected_cycles", last), "count"),
        "analysis.insufficient_cells": (attr_sum("analysis.analyze", "insufficient_cells", last), "count"),
    }
    for name in ("events.simulate_cycles", "events.write_records", "events.summarize",
                 "events.read_records", "analysis.analyze"):
        metrics[f"{name}.maxrss_mb"] = (first_maxrss(name), "MiB")
    metrics["trace.overhead_s"] = (
        statistics.median(it.wall_s for it in traced) - statistics.median(it.wall_s for it in untraced),
        "s",
    )
    return metrics


def leg_us_per_cycle(bench: Bench, iterations: list[Iteration]) -> dict:
    """Sampler cost per leg of the traced iterations, e.g. per chain length (printed only)."""
    out = {}
    for leg in bench.wl.legs:
        costs = [
            (s["end"] - s["start"]) / s["attrs"]["cycles"] * 1e6
            for it in iterations if it.traced
            for s in bench.tracer.select("events.simulate_cycles", *it.marks)
            if s["attrs"]["n_photons"] == leg.n_photons
        ]
        out[f"events.simulate_{leg.name}_us_per_cycle"] = statistics.median(costs)
    return out


# -- entry point ---------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="tpcsim end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the fixture's)")
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget of the timed iterations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer spans")
    parser.add_argument("--smoke", action="store_true", help="tiny cycle counts, for the benchmark's tests")
    return parser.parse_args(argv)


def missing_inputs(wl: Workload) -> list[str]:
    needed = [SRC / "tpcsim" / "__init__.py"] + [leg.config for leg in wl.legs]
    return [str(p) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    missing = missing_inputs(wl)
    if missing:
        print("perfbench: not a tpcsim checkout, missing " + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seed = wl.default_seed if args.seed is None else args.seed
    trace = bool(args.trace)
    env = environment()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{wl.name}-seed{seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    bench = Bench(wl, seed, args.smoke, trace, workdir)

    setups, setup_marks = [], []

    def timed_setup():
        mark = bench.tracer.mark()
        setups.append(bench.speed.scaled(bench.setup))
        setup_marks.append((mark, bench.tracer.mark()))

    iterations: list[Iteration] = []
    metrics = {}
    try:
        for _ in range(SETUP_REPEATS):
            timed_setup()
        t_start = time.perf_counter()
        while True:
            iterations.append(bench.iteration(traced=trace and len(iterations) % 2 == 0))
            timed_setup()  # set-up samples spread over the run, like the timed ones
            elapsed = time.perf_counter() - t_start
            if len(iterations) >= MIN_ITERATIONS and elapsed + iterations[-1].wall_s > args.seconds:
                break
        if trace:
            metrics = per_layer(bench, iterations, setup_marks)
            for name, value in leg_us_per_cycle(bench, iterations).items():
                print(f"{name} = {value:.6g} us")
            bench.tracer.write(OUT / f"{wl.name}-seed{seed}-spans.jsonl")
        else:
            metrics = end_to_end(bench, iterations, setups, maxrss_mib())
        bench.verify(iterations)
    except ProgramFailed:
        pass
    except Exception as exc:  # the program under test broke; report a failed run
        traceback.print_exc()
        bench.check(False, f"benchmark stopped by {exc!r}")

    failed = len(bench.failures)
    n_traced = sum(it.traced for it in iterations)
    print(f"# workload {wl.name}, seed {seed}, {len(iterations)} iterations ({n_traced} traced)")
    print("# env " + json.dumps(env))
    if bench.speed.factors:
        print(f"# machine speed: median {statistics.median(bench.speed.factors):.4g} of the reference, "
              f"range {min(bench.speed.factors):.4g} to {max(bench.speed.factors):.4g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(f"checks_failed_frac = {failed / bench.attempted:.6g} fraction "
          f"({failed} failed of {bench.attempted} attempted)")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=wl.name, seed=seed, smoke=args.smoke, trace=args.trace,
                  seconds=args.seconds, iterations=len(iterations), env=env, failures=bench.failures,
                  speed_factors=bench.speed.factors, setup_samples_s=setups,
                  user_path_samples_s=[bench.user_path_s(it) for it in iterations],
                  ingest_samples_s=[s for it in iterations for s in it.ingest_s])
    (OUT / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result["correct"]:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
