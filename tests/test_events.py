"""Event generator tests: determinism, routing statistics, Born consistency,
background uniformity, record I/O, and coincidence pairing."""
import warnings
from dataclasses import KW_ONLY, dataclass, replace
from functools import reduce
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from tpcsim import emitter, events
from tpcsim.cli import main
from tpcsim.config import load_config
from tpcsim.emitter import EmitterParams, optical_pulse_kraus
from tpcsim.events import (
    ARRIVAL_CLASSES,
    CODES,
    EARLY,
    ERASED,
    INVALID,
    LATE,
    PREP_NAMES,
    RECORD_COLUMNS,
    RECORD_DTYPE,
    _CHUNK,
    _CYCLE_STREAM,
    _LABEL_WORDS,
    _PHASE_STREAM,
    _TABLE_DTYPE,
    DetectionParams,
    EventModelError,
    RecordFormatError,
    _block_operators,
    _OCC_01,
    _OCC_10,
    _OUTCOME_OCC,
    _CycleModel,
    _keyed_rng,
    _measure,
    _parse_table,
    _philox_uniforms,
    _draw_block,
    pair_coincidences,
    read_records,
    simulate_cycles,
    summarize,
    write_records,
)
from tpcsim.optics import InterferometerConfig
from tpcsim.protocol import ProtocolConfig, _evolve, build_sequence, pulse_times, run_noisy, step_kraus

from conftest import FIXTURE, SerialPool, apply, collapsed_bright, collapsed_spin, embedded_matrix, hardware_port_states, ideal_emitter, make_records
from conftest import partial_trace, projector_onto, ry, write_fixture_ini

MINUS, PLUS = CODES["prep_sign"]["minus"], CODES["prep_sign"]["plus"]
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def noisy_emitter():
    return EmitterParams(
        p_cross=0.04,
        zpl_fraction=1.0,
        p_shelve=0.05,
        p_spin_flip=0.15,
        init_fidelity=0.979,
        nuclear_pol=0.9,
        pi_pulse_error=0.02,
        p_readout_click=1.0,
    )


def _chain_args(config):
    """Emitter, protocol, interferometer and detection of a benchmark chain
    config, or of a noisy two-photon chain with every optical-pulse branch
    live in either chain mode ("noisy cluster", "noisy ghz")."""
    if config.endswith(".ini"):
        cfg = load_config(BENCH_CONFIGS / config)
        return cfg.emitter, cfg.protocol, cfg.interferometer, cfg.detection
    pcfg = ProtocolConfig(n_photons=2, chain_mode=config.split()[1])
    return replace(noisy_emitter(), zpl_fraction=0.3), pcfg, InterferometerConfig(phase_mode="walk", erasure_visibility=0.8), DetectionParams()


def _walk_block_offsets(ifm, n_blocks, block_size, n_cycles, seed, period_ns):
    """Starting phase of every block under the random-walk model, each block's
    steps drawn and summed in turn: the reference for the offsets that the
    block loop carries and that a later shard skips ahead to."""
    sigma = np.sqrt(ifm.phase_drift_var_per_ns * period_ns)
    offsets = np.empty(n_blocks)
    acc = ifm.phase
    for b in range(n_blocks):
        offsets[b] = acc
        m = min(block_size, n_cycles - b * block_size)
        if sigma > 0:
            acc += sigma * _keyed_rng(seed, _PHASE_STREAM, b).standard_normal(m).sum()
    return offsets


def _counter_blocks(reads):
    """The blocks whose uniforms the recorded _philox_uniforms calls read."""
    return sorted({int(block) for _, _, blocks, _ in reads for block in np.ravel(blocks)})


class TestDeterminism:
    def test_same_seed_identical_records(self, monkeypatch):
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 4096)
        params = ideal_emitter()
        ifm = InterferometerConfig(phase_mode="walk")
        det = DetectionParams(zpl_efficiency=1.0, seed=3)
        a = simulate_cycles(10_000, params, ifm, ProtocolConfig(), det)
        b = simulate_cycles(10_000, params, ifm, ProtocolConfig(), det)
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_output(self, monkeypatch):
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 2048)
        params = ideal_emitter()
        ifm = InterferometerConfig(phase_mode="walk")
        det = DetectionParams(zpl_efficiency=1.0, seed=3)
        for pcfg in (ProtocolConfig(), ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0)):
            serial = simulate_cycles(12_000, params, ifm, pcfg, det, workers=1)
            parallel = simulate_cycles(12_000, params, ifm, pcfg, det, workers=4)
            assert np.array_equal(serial, parallel)

    def test_a_shard_may_start_at_a_short_last_block(self, monkeypatch):
        # 2 workers cut the 2 blocks 1 + 1: the second shard carries the walk
        # through a full block, then runs the last block of 100 cycles
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 4096)
        args = (
            ideal_emitter(),
            InterferometerConfig(phase_mode="walk"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=0.5, seed=3),
        )
        assert np.array_equal(simulate_cycles(4_196, *args, workers=2), simulate_cycles(4_196, *args, workers=1))

    def test_pool_holds_no_more_workers_than_blocks(self, monkeypatch):
        # a fork-started pool launches all of its workers at the first submit
        monkeypatch.setattr(SerialPool, "sizes", [])
        monkeypatch.setattr("tpcsim.events.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 1000)
        args = (
            ideal_emitter(),
            InterferometerConfig(phase_mode="walk"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=0.5, seed=3),
        )
        pooled = simulate_cycles(2_500, *args, workers=64)
        assert SerialPool.sizes == [3]
        assert np.array_equal(pooled, simulate_cycles(2_500, *args, workers=1))

    def test_different_seeds_differ(self):
        params = ideal_emitter()
        ifm = InterferometerConfig()
        a = simulate_cycles(5_000, params, ifm, ProtocolConfig(), DetectionParams(zpl_efficiency=1.0, seed=1))
        b = simulate_cycles(5_000, params, ifm, ProtocolConfig(), DetectionParams(zpl_efficiency=1.0, seed=2))
        assert not np.array_equal(a, b)


class TestKeyedStreams:
    @pytest.mark.parametrize(
        "seed,stream,block",
        [(2024, _CYCLE_STREAM, 0), (2**64 - 1, _CYCLE_STREAM, 2**48 - 1), (5, _PHASE_STREAM, (0xFFFF << 48) | 12_345)],
    )
    def test_counter_reader_equals_the_drawn_stream(self, seed, stream, block):
        # an odd block size starts the rows of a block's (9, m) table at every
        # residue mod 4, inside a counter's group of four outputs
        m = 1_001
        positions = np.arange(9 * m + 4)
        drawn = _keyed_rng(seed, stream, block).random(positions.size)
        assert np.array_equal(_philox_uniforms(seed, stream, block, positions), drawn)
        assert np.array_equal(_philox_uniforms(seed, stream, block, positions[::-1]), drawn[::-1])
        table = positions[: 9 * m].reshape(9, m)
        assert np.array_equal(_philox_uniforms(seed, stream, block, table), drawn[: 9 * m].reshape(9, m))

    @pytest.mark.parametrize("seed", [2024, 2**64 - 1])
    def test_counter_reader_takes_a_block_per_position(self, seed):
        # one read for the active cycles of a batch of blocks: the block goes
        # into key word 1 alone, for every block of the 48 bits a key holds
        blocks = np.array([0, 2**48 - 1, 5, 0, 2**48 - 1, 1])
        positions = np.array([[0, 1, 2, 3, 9_011, 6], [4, 9_012, 7, 9_013, 5, 0], [8, 3, 9_010, 4, 0, 2]])
        read = _philox_uniforms(seed, _CYCLE_STREAM, blocks, positions)
        assert read.shape == positions.shape
        for j, block in enumerate(blocks):
            drawn = _keyed_rng(seed, _CYCLE_STREAM, int(block)).random(9_014)
            assert np.array_equal(read[:, j], drawn[positions[:, j]]), block

    @pytest.mark.parametrize("position", [0, 1, 2, 3, 4, 5, 4 * 1_001 + 1, 9 * 1_001, 9 * 1_001 + 3])
    def test_placed_generator_continues_the_fresh_stream(self, position):
        fresh = _keyed_rng(2**64 - 1, _CYCLE_STREAM, 7)
        fresh.bit_generator.random_raw(position)
        placed = _keyed_rng(2**64 - 1, _CYCLE_STREAM, 7, position)
        for name, args in (("random", (5,)), ("standard_normal", (7,)), ("poisson", (0.3, 9)), ("random", ((2, 3),))):
            assert np.array_equal(getattr(placed, name)(*args), getattr(fresh, name)(*args)), name
        assert np.array_equal(placed.bit_generator.random_raw(6), fresh.bit_generator.random_raw(6))


class TestRoutingStatistics:
    def test_erased_fraction_is_half(self):
        n = 40_000
        recs = simulate_cycles(
            n,
            ideal_emitter(),
            InterferometerConfig(phase_mode="scan"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=8),
        )
        frac = np.mean(recs["arrival_class"] == ERASED)
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_negligible_efficiency_gives_no_records(self):
        recs = simulate_cycles(
            10_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1e-300, seed=4),
        )
        assert len(recs) == 0

    def test_prep_alternation_by_cycle_parity(self):
        recs = simulate_cycles(
            4_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=5, alternate_preps=True),
        )
        even = recs[recs["cycle_id"] % 2 == 0]
        odd = recs[recs["cycle_id"] % 2 == 1]
        assert set(even["prep_sign"].tolist()) == {MINUS}
        assert set(odd["prep_sign"].tolist()) == {PLUS}

    def test_fixed_prep_when_alternation_off(self):
        recs = simulate_cycles(
            2_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(prep_sign="plus"),
            DetectionParams(zpl_efficiency=1.0, seed=5, alternate_preps=False),
        )
        assert set(recs["prep_sign"].tolist()) == {PLUS}

    def test_active_switch_heralds_every_photon(self):
        recs = simulate_cycles(
            5_000,
            ideal_emitter(),
            InterferometerConfig(active_switch=True),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=6),
        )
        assert len(recs) == 5_000
        assert set(recs["arrival_class"].tolist()) == {ERASED}

    def test_arrival_times_follow_routing_table(self):
        ifm = InterferometerConfig()
        pcfg = ProtocolConfig()
        steps = build_sequence(pcfg, ifm)
        times = [s.time_ns for s in steps if s.kind == "optical_pulse"]
        recs = simulate_cycles(
            3_000, ideal_emitter(), ifm, pcfg, DetectionParams(zpl_efficiency=1.0, seed=7)
        )
        offsets = recs["t_ns"] - recs["cycle_id"].astype(float) * pcfg.cycle_period_ns
        early = offsets[recs["arrival_class"] == EARLY]
        erased = offsets[recs["arrival_class"] == ERASED]
        late = offsets[recs["arrival_class"] == LATE]
        assert min(len(early), len(erased), len(late)) > 0
        assert np.allclose(early, times[0])
        assert np.allclose(erased, times[1])
        assert np.allclose(late, times[1] + ifm.delay_ns)


class TestBornConsistency:
    """The trajectory sampler must reproduce the exact density-matrix path."""

    @pytest.mark.parametrize("phi,split", [(0.9, 0.5), (0.4, 0.3), (2.2, 0.3), (4.1, 0.3)])
    def test_port_and_readout_statistics_match_exact_state(self, phi, split):
        params = noisy_emitter()
        ifm = InterferometerConfig(
            phase=phi, phase_mode="static", phase_readout_sigma=0.0, erasure_visibility=0.8, split_ratio=split
        )
        pcfg = ProtocolConfig(prep_sign="minus")
        det = DetectionParams(zpl_efficiency=1.0, seed=12, alternate_preps=False)
        n = 210_000  # roughly 1e5 heralded events
        recs = simulate_cycles(n, params, ifm, pcfg, det)

        # analysis-side rejection of double-occupancy cycles mirrors the
        # protocol-subspace projection inside run_noisy
        ids, counts = np.unique(recs["cycle_id"], return_counts=True)
        bad = set(ids[counts > 1].tolist())
        keep = np.array([cid not in bad for cid in recs["cycle_id"]])
        clean = recs[keep]

        steps = build_sequence(pcfg, ifm)
        heralded = run_noisy(steps, params, ifm)
        herald_prob = heralded.trace()
        rho = heralded.normalized()

        erased = clean[clean["arrival_class"] == ERASED]
        n_erased = len(erased)
        # heralding rate
        sigma = np.sqrt(herald_prob * (1 - herald_prob) / n)
        assert abs(n_erased / n - herald_prob) <= 4 * sigma

        # port frequencies and conditional bright fractions against Born rule
        states = hardware_port_states(ifm)
        u_tomo = ry(pcfg.tomo_theta, "spin", 7, (0, 1))
        for port in ("D", "A", "R", "L"):
            proj = projector_onto(states[port], ("photon1",))
            p_port = float(np.real(np.trace(embedded_matrix(proj, rho) @ rho.data)))
            # the exact state puts half of each analyzer basis on each port at
            # every phase and split: the fringe is in the spin alone
            assert abs(p_port - 0.5) < 1e-12
            sel = erased[erased["port"] == CODES["port"][port]]
            f = len(sel) / n_erased
            s3 = 3 * np.sqrt(p_port / 2 * (1 - p_port / 2) / n_erased)
            assert abs(f - p_port / 2) <= s3  # analyzer halves split D/A vs R/L

            collapsed = apply(rho, proj).normalized()
            rotated = apply(collapsed, u_tomo)
            spin = partial_trace(rotated, ["spin"])
            p_bright = float(np.real(spin.data[0, 0]))
            fb = sel["readout_click"].mean()
            s3b = 3 * np.sqrt(max(p_bright * (1 - p_bright), 0.01) / len(sel))
            assert abs(fb - p_bright) <= s3b

    @pytest.mark.parametrize("visibility", [1.0, 0.8])
    @pytest.mark.parametrize("prep", PREP_NAMES)
    @pytest.mark.parametrize("emitter", ["fixture", "noisy"])
    def test_leaf_table_reproduces_exact_block_state(self, emitter, prep, visibility):
        # sum_leaves w |psi><psi| is the state after the first block, with the
        # coherences of the late-bin occupation scaled by the erasure visibility
        params = EmitterParams(**FIXTURE) if emitter == "fixture" else noisy_emitter()
        ifm = InterferometerConfig(erasure_visibility=visibility)
        pcfg = ProtocolConfig(prep_sign=prep)
        model = _CycleModel(params, pcfg, ifm, DetectionParams())
        p = PREP_NAMES.index(prep)
        psi = model.leaves[model.prep_offset[p] : model.prep_offset[p + 1]].reshape(len(model.leaf_cum[p]), -1)
        w = np.diff(model.leaf_cum[p], prepend=0.0)
        rho = np.einsum("l,li,lj->ij", w, psi, psi.conj())

        exact = {name: r for name, r, _ in _evolve(build_sequence(pcfg, ifm), params, ifm)}["after_pulse_2"]
        late = np.arange(len(exact)) % 4 == 1  # (bin1, bin2) = (0, 1)
        exact = np.where(late[:, None] != late[None, :], visibility * exact, exact)
        assert np.abs(rho - exact).max() < 1e-9

    @pytest.mark.parametrize(
        "config,source", [("perfbench/configs/dense.ini", "leaves"), ("configs/example.ini", "leaves"), ("perfbench/configs/dense.ini", "random")]
    )
    def test_last_photon_readout_equals_the_collapsed_spin(self, config, source):
        # every state and outcome, both bases, six phases and the four ports:
        # the bright probability read from the state's terms equals that of
        # the collapsed, normalized spin. Random states, with no occupation 11
        # in half of them, reach beyond the leaves; each has its late-bin spin
        # made orthogonal to its early-bin spin, as every state that the
        # sampler reaches has (test_early_and_late_spins_are_orthogonal)
        cfg = load_config(Path(__file__).resolve().parents[1] / config)
        model = _CycleModel(cfg.emitter, cfg.protocol, cfg.interferometer, cfg.detection)
        states, terms = model.leaves.reshape(-1, 7, 4), model.leaf_terms
        if source == "random":
            rng = np.random.default_rng(31)
            states = rng.standard_normal((400, 7, 4)) + 1j * rng.standard_normal((400, 7, 4))
            states[::2, :, 3] = 0.0
            early, late = states[:, :, _OCC_10], states[:, :, _OCC_01]
            late -= early * (np.einsum("ls,ls->l", early.conj(), late) / np.einsum("ls,ls->l", early.conj(), early))[:, None]
            states /= np.linalg.norm(states, axis=(1, 2))[:, None, None]
            terms = events._state_terms(states.reshape(-1, 28), model.leaf_support)
        phases = 0.3 + np.arange(6)
        grid = np.meshgrid(np.arange(len(states)), np.arange(5), np.arange(4), np.arange(2), np.arange(6), indexing="ij")
        rows, outcome, port, basis, k = (g.ravel() for g in grid)
        erased = outcome == 2

        p_bright = _measure(states.reshape(-1, 28), model.leaf_support, terms, rows, outcome, phases[k], port, model, basis)
        assert np.abs(p_bright - collapsed_bright(states[rows], outcome, phases[k], port, basis, model)).max() <= 1e-12
        assert set(np.unique(port[erased])) == {0, 1, 2, 3} and set(np.unique(basis)) == {0, 1}
        # a spin of norm zero reads 0, as its normalized spin stays zero
        zero = ~erased & (np.abs(states[rows, :, _OUTCOME_OCC[outcome]]).max(axis=1) == 0)
        assert zero.any() and not p_bright[zero].any()

    def test_early_and_late_spins_are_orthogonal(self):
        # A pulse's Kraus branches emit from |0> alone, and only its coherent
        # main branch holds both an emitting and a non-emitting part; the flip
        # between the pulses is a pi rotation. So in every branch product
        # (pulse, flip, pulse) of the block, from any spin with both bins
        # empty, the spin of occupation 10 lies in span{|-1>} and that of
        # occupation 01 in span{|0>}, or is zero: K01^dag K10 = 0, and every
        # analyzer port weighs e1 |chi10|^2 + e2 |chi01|^2, which is why the
        # sampler takes a uniform port. The floor is rounding: cos(pi/2), about
        # 6e-17, in qubit_rotation. A flip angle of 0.9 pi fails this test.
        rng = np.random.default_rng(32)
        names = ("p_cross", "p_shelve", "p_spin_flip", "nuclear_pol", "pi_pulse_error")
        emitters = [noisy_emitter()] + [
            EmitterParams(**dict(zip(names, rng.random(5))), zpl_fraction=1.0 - rng.random()) for _ in range(50)
        ]
        empty = np.arange(0, 28, 4)
        worst, live = 0.0, 0.0
        for params in emitters:
            for split in (0.3, 0.5):
                for mode in ("cluster", "ghz"):
                    steps = build_sequence(ProtocolConfig(n_photons=2, chain_mode=mode), InterferometerConfig(split_ratio=split))
                    first, flip, second = (np.stack(ops) for ops in _block_operators(steps, params)[1])
                    tail = (flip[:, None] @ first[None, :, :, empty])[None]
                    k01, k10 = second[:, None, None, _OCC_01::4] @ tail, second[:, None, None, _OCC_10::4] @ tail
                    worst = max(worst, np.linalg.norm(np.einsum("...ri,...rj->...ij", k01.conj(), k10), axis=(-2, -1)).max())
                    live = max(live, np.minimum(np.linalg.norm(k01, axis=(-2, -1)), np.linalg.norm(k10, axis=(-2, -1))).max())
        assert worst <= 1e-15 and live > 0.1
        # and so on every leaf of the cycle model
        for config in ("perfbench/configs/dense.ini", "configs/example.ini"):
            cfg = load_config(Path(__file__).resolve().parents[1] / config)
            leaves = _CycleModel(cfg.emitter, cfg.protocol, cfg.interferometer, cfg.detection).leaves.reshape(-1, 7, 4)
            assert np.abs(np.einsum("ls,ls->l", leaves[:, :, _OCC_01].conj(), leaves[:, :, _OCC_10])).max() <= 1e-15

    def test_chain_first_photon_is_the_single_photon_run(self):
        # photon 1 of a chain is drawn from the leaf table with the n = 1
        # draws; only its readout differs, because the readout follows the
        # last photon
        emitter, ifm = noisy_emitter(), InterferometerConfig(phase_mode="walk", erasure_visibility=0.8)
        det = DetectionParams(zpl_efficiency=0.8, seed=5)
        single = simulate_cycles(20_000, emitter, ifm, ProtocolConfig(cycle_period_ns=2e6), det)
        pcfg = ProtocolConfig(n_photons=2, cycle_period_ns=2e6)
        chain = simulate_cycles(20_000, emitter, ifm, pcfg, det)

        # select by class and time: photon 1's late click arrives with photon 2's early click
        t1, t2 = pulse_times(build_sequence(pcfg, ifm))[:2]
        offsets = chain["t_ns"] - chain["cycle_id"] * pcfg.cycle_period_ns
        first = np.zeros(len(chain), dtype=bool)
        for cls, t in ((EARLY, t1), (ERASED, t2), (LATE, t2 + ifm.delay_ns)):
            first |= (chain["arrival_class"] == cls) & np.isclose(offsets, t)
        assert first.sum() == len(single) > 10_000
        for name in RECORD_COLUMNS:
            if name != "readout_click":
                assert np.array_equal(chain[first][name], single[name]), name

    @pytest.mark.parametrize("config", ["noisy every-branch", "chain_n2.ini"])
    def test_later_steps_keep_every_level_they_reach(self, config):
        # each later step is kept on the rows that some operator reaches from
        # the support that the step before left, starting with both bins empty;
        # every dropped row is exactly zero there, so no product loses a term
        if config == "chain_n2.ini":
            cfg = load_config(BENCH_CONFIGS / config)
            args = (cfg.emitter, cfg.protocol, cfg.interferometer, cfg.detection)
        else:
            params = replace(noisy_emitter(), zpl_fraction=0.3)
            args = (params, ProtocolConfig(n_photons=2), InterferometerConfig(phase_mode="walk", erasure_visibility=0.8), DetectionParams())
        model = _CycleModel(*args)
        _, block_ops, interblock_ops = _block_operators(build_sequence(*args[1:3]), args[0])
        supports = model.later_supports
        assert np.array_equal(supports[0], np.arange(0, 28, 4))
        assert len(supports) == len(model.later_ops) + 1 == 5
        for full, kept, cols, rows in zip([interblock_ops, *block_ops], model.later_ops, supports, supports[1:]):
            dropped = np.setdiff1d(np.arange(28), rows)
            assert len(kept) == len(full)
            for op, small in zip(full, kept):
                assert not op[np.ix_(dropped, cols)].any()
                assert np.array_equal(small, op[np.ix_(rows, cols)])
        if config == "chain_n2.ini":
            assert [len(rows) for rows in supports[1:]] == [7, 7, 9, 9]

    @pytest.mark.parametrize("config", ["chain_n2.ini", "chain_n3.ini"])
    def test_ideal_chain_later_steps_hold_one_operator(self, config):
        # an ideal rotation and an ideal pulse on a fresh bin are one Kraus
        # matrix each, so the sampler takes no branch draw on any later step
        cfg = load_config(BENCH_CONFIGS / config)
        model = _CycleModel(cfg.emitter, cfg.protocol, cfg.interferometer, cfg.detection)
        assert [len(ops) for ops in model.later_ops] == [1, 1, 1, 1]

    @pytest.mark.parametrize("config", ["chain_n2.ini", "chain_n3.ini", "noisy cluster", "noisy ghz"])
    def test_later_photons_on_their_support_equal_the_full_levels(self, config):
        # the sampler takes each run of one-operator later steps as their
        # product on the supports, and reads a later photon's terms and
        # collapse on the levels it reaches; both equal the same on all 28 levels
        args = _chain_args(config)
        model = _CycleModel(*args)
        _, block_ops, interblock_ops = _block_operators(build_sequence(*args[1:3]), args[0])
        full, supports = [interblock_ops, *block_ops], model.later_supports
        first = 0
        for j, ops in model.later_steps:
            run = full[first : j + 1]  # one step of any number of operators, or a run of one-operator steps
            assert len(ops) == len(run[0]) and (len(run) == 1 or len(ops) == 1)
            for op, head in zip(ops, run[0]):
                product = reduce(lambda acc, step: step[0] @ acc, run[1:], head)
                assert np.abs(op - product[np.ix_(supports[j + 1], supports[first])]).max() <= 1e-15
            first = j + 1
        assert first == len(full)
        if config.endswith(".ini"):
            assert [ops[0].shape for _, ops in model.later_steps] == [(9, 7)]

        rng = np.random.default_rng(35)
        levels = supports[-1]
        states = rng.standard_normal((300, levels.size)) + 1j * rng.standard_normal((300, levels.size))
        states[::2, levels % 4 == 3] = 0.0  # no occupation 11 in half of them
        states /= np.linalg.norm(states, axis=1)[:, None]
        scattered = np.zeros((300, 28), dtype=complex)
        scattered[:, levels] = states
        terms, full_terms = events._state_terms(states, model.later_support), events._state_terms(scattered, model.leaf_support)
        for part, full_part in zip(terms, full_terms):
            assert np.abs(part - full_part).max() <= 1e-12
        # every state and outcome, both bases, three phases and the four ports
        grid = np.meshgrid(np.arange(300), np.arange(5), np.arange(4), np.arange(2), np.arange(3), indexing="ij")
        rows, outcome, port, basis, k = (g.ravel() for g in grid)
        phase = (0.3 + np.arange(3))[k]
        spin = _measure(states, model.later_support, terms, rows, outcome, phase, port, model)
        assert np.abs(spin - _measure(scattered, model.leaf_support, full_terms, rows, outcome, phase, port, model)).max() <= 1e-12
        assert np.abs(spin - collapsed_spin(scattered.reshape(-1, 7, 4)[rows], outcome, phase, port, model)).max() <= 1e-12
        p_bright = _measure(states, model.later_support, terms, rows, outcome, phase, port, model, basis)
        full_bright = _measure(scattered, model.leaf_support, full_terms, rows, outcome, phase, port, model, basis)
        assert np.abs(p_bright - full_bright).max() <= 1e-12

    @pytest.mark.parametrize("emitter_kind", ["ideal", "noisy"])
    @pytest.mark.parametrize("chain_mode", ["cluster", "ghz"])
    @pytest.mark.parametrize("n_photons", [1, 2, 3, 4])
    def test_block_operators_are_the_schedule_steps(self, n_photons, chain_mode, emitter_kind):
        # the sets compiled from one block equal, entry for entry, the steps of
        # the whole schedule of either sign: its preparation, every entangling
        # block and every rotation between blocks
        params = ideal_emitter() if emitter_kind == "ideal" else replace(noisy_emitter(), zpl_fraction=0.3)
        ifm = InterferometerConfig()
        pcfg = ProtocolConfig(n_photons=n_photons, chain_mode=chain_mode, cycle_period_ns=2e6)
        prep_ops, block_ops, interblock_ops = _block_operators(build_sequence(pcfg, ifm), params)
        assert len(prep_ops) == len(PREP_NAMES) and len(block_ops) == 3

        def same(a, b):
            return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

        for p, name in enumerate(PREP_NAMES):
            full = [ops for _, ops in step_kraus(build_sequence(replace(pcfg, prep_sign=name), ifm), params)]
            assert len(full) == 4 * n_photons
            assert same(prep_ops[p], full[0])
            for k in range(n_photons):
                assert all(same(kept, step) for kept, step in zip(block_ops, full[1 + 4 * k : 4 + 4 * k])), k
                if k:
                    assert same(interblock_ops, full[4 * k])
        assert (interblock_ops == []) == (n_photons == 1)

    @pytest.mark.parametrize("n_photons", [1, 2, 3, 6])
    def test_compile_builds_one_pulse_set_and_at_most_four_rotations(self, monkeypatch, n_photons):
        calls = {"optical_pulse_kraus": 0, "mw_rotation_kraus": 0}
        for name in calls:
            original = getattr(emitter, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(emitter, name, counted)
        pcfg = ProtocolConfig(n_photons=n_photons, cycle_period_ns=2e6)
        _CycleModel(replace(noisy_emitter(), zpl_fraction=0.3), pcfg, InterferometerConfig(), DetectionParams())
        assert calls["optical_pulse_kraus"] == 1
        assert calls["mw_rotation_kraus"] == (3 if n_photons == 1 else 4)

    def test_single_photon_model_compiles_no_later_operators(self):
        model = _CycleModel(noisy_emitter(), ProtocolConfig(), InterferometerConfig(), DetectionParams())
        assert model.later_ops == []

    def test_two_photon_herald_probability(self):
        n = 20_000
        recs = simulate_cycles(
            n,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0),
            DetectionParams(zpl_efficiency=1.0, seed=13, alternate_preps=False),
        )
        pairs, rejected = pair_coincidences(recs, n_photons=2)
        by_cycle = {}
        for rec, _ in pairs:
            by_cycle.setdefault(rec.cycle_id, []).append(rec.arrival_class)
        heralded = sum(1 for v in by_cycle.values() if len(v) == 2 and set(v) == {"Erased"})
        p = heralded / n
        assert abs(p - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / n)

    def test_noisy_chain_heralding_and_readout_match_exact_state(self):
        # a cycle is heralded when each photon gives exactly one click, path-erased
        params = noisy_emitter()
        ifm = InterferometerConfig(phase=0.9, phase_mode="static", phase_readout_sigma=0.0, erasure_visibility=0.8)
        pcfg = ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0)
        n = 40_000
        recs = simulate_cycles(n, params, ifm, pcfg, DetectionParams(zpl_efficiency=1.0, seed=31, alternate_preps=False))

        steps = build_sequence(pcfg, ifm)
        times = pulse_times(steps)
        offsets = recs["t_ns"] - recs["cycle_id"] * pcfg.cycle_period_ns
        erased = recs["arrival_class"] == ERASED
        _, first, counts = np.unique(recs["cycle_id"], return_index=True, return_counts=True)
        in_window = [np.add.reduceat((erased & np.isclose(offsets, times[j])).astype(int), first) for j in (1, 3)]
        heralded = first[(counts == 2) & (in_window[0] == 1) & (in_window[1] == 1)]

        exact = run_noisy(steps, params, ifm)
        p = exact.trace()
        assert abs(len(heralded) / n - p) <= 4 * np.sqrt(p * (1 - p) / n)

        rotated = apply(exact.normalized(), ry(pcfg.tomo_theta, "spin", 7, (0, 1)))
        q = float(np.real(partial_trace(rotated, ["spin"]).data[0, 0]))
        clicks = recs["readout_click"][heralded]
        assert abs(clicks.mean() - q) <= 4 * np.sqrt(q * (1 - q) / len(heralded))


class TestBackground:
    def test_uniform_over_ports_and_windows(self):
        # expected clicks = rate * 4 ports * span(564 ns) * cycles ~ 0.0045/cycle
        ifm = InterferometerConfig()
        recs = simulate_cycles(
            50_000,
            ideal_emitter(),
            ifm,
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1e-300, background_rate_hz=20_000.0, seed=14),
        )
        assert len(recs) > 1_500
        # ports uniform: chi-square over 4 cells
        ports, counts = np.unique(recs["port"], return_counts=True)
        assert set(ports.tolist()) == set(CODES["port"].values())
        n = counts.sum()
        chi2 = (((counts - n / 4.0) ** 2) / (n / 4.0)).sum()
        assert chi2 < 16.27  # 0.999 quantile, 3 dof

        # windows populated in proportion to their durations
        w, d = ifm.window_ns, ifm.delay_ns
        span = 2 * d + 2 * w
        expected = {
            "EarlyRevealing": 2 * w / span,
            "Erased": 2 * w / span,
            "LateRevealing": 2 * w / span,
            "Invalid": 2 * (d - 2 * w) / span,
        }
        classes, ccounts = np.unique(recs["arrival_class"], return_counts=True)
        obs = {ARRIVAL_CLASSES[c]: k for c, k in zip(classes, ccounts)}
        chi2 = sum(
            (obs.get(k, 0) - n * p) ** 2 / (n * p) for k, p in expected.items()
        )
        assert chi2 < 16.27

    def test_zero_rate_gives_no_invalid_clicks(self):
        recs = simulate_cycles(
            20_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, background_rate_hz=0.0, seed=15),
        )
        assert not np.any(recs["arrival_class"] == INVALID)
        assert set(recs["arrival_class"].tolist()) == {EARLY, ERASED, LATE}


class TestCoincidencePairing:
    def test_single_click_cycle_pairs_with_readout(self):
        recs = make_records(
            [
                (0, "D", "Erased", 100.0, 0.1, "minus", 1),
                (2, "A", "Erased", 300.0, 0.2, "plus", 0),
            ]
        )
        pairs, rejected = pair_coincidences(recs)
        assert rejected == 0
        assert len(pairs) == 2
        assert pairs[0][1] is True and pairs[1][1] is False

    def test_double_click_cycle_rejected_and_counted(self):
        recs = make_records(
            [
                (0, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "D", "EarlyRevealing", 150.0, 0.1, "minus", 1),
                (1, "A", "Erased", 160.0, 0.1, "minus", 1),
                (2, "R", "LateRevealing", 400.0, 0.3, "plus", 0),
            ]
        )
        pairs, rejected = pair_coincidences(recs)
        assert rejected == 1
        assert [p[0].cycle_id for p in pairs] == [0, 2]

    def test_unsorted_records_rejected(self):
        recs = make_records(
            [
                (5, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "D", "Erased", 150.0, 0.1, "minus", 1),
            ]
        )
        with pytest.raises(EventModelError):
            pair_coincidences(recs)

    def test_summary_counts(self):
        recs = make_records(
            [
                (0, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "A", "EarlyRevealing", 120.0, 0.1, "plus", 0),
            ]
        )
        stats = summarize(recs)
        assert stats == {"records": 2, "heralded": 1, "coincidences": 1, "rejected_cycles": 0}

    def test_summary_accepts_any_order(self):
        # the two clicks of cycle 5 are apart, and that cycle is still rejected whole
        recs = make_records(
            [
                (5, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "D", "Erased", 150.0, 0.1, "minus", 1),
                (5, "A", "LateRevealing", 400.0, 0.1, "minus", 1),
            ]
        )
        assert summarize(recs) == {"records": 3, "heralded": 2, "coincidences": 1, "rejected_cycles": 1}


@dataclass
class Pin:
    """A pinned record file: the run that writes it, the facts that show which
    path it covers, and the sha256 of its bytes. A fact left at None is not stated."""

    id: str
    config: tuple | str  # (emitter, interferometer, protocol, detection), or a config file run by `tpcsim simulate`
    cycles: int
    block_size: int  # events._BLOCK_SIZE
    workers: tuple  # each worker count writes the same bytes
    seed: int | None = None  # the --seed of a config file
    # the facts, which only a row of config objects states
    records: int | None = None
    classes: set | None = None  # the arrival classes of the records
    preps: set | None = None  # the preparations of the records
    doubles: bool | None = None  # some cycle has more clicks than photons
    record_blocks: int | None = None  # the blocks that hold a record
    counter_blocks: range | None = None  # the blocks read by counter at one worker, in fewer reads than blocks
    pulse_branches: int | None = None  # the Kraus branches of the optical pulse
    _: KW_ONLY
    digest: str


# how test_record_pins reads each stated fact from a row's records
RECORD_FACTS = {
    "records": lambda pin, recs: len(recs),
    "classes": lambda pin, recs: set(recs["arrival_class"].tolist()),
    "preps": lambda pin, recs: set(recs["prep_sign"].tolist()),
    "doubles": lambda pin, recs: bool(np.unique(recs["cycle_id"], return_counts=True)[1].max() > pin.config[2].n_photons),
    "record_blocks": lambda pin, recs: np.unique(recs["cycle_id"] // pin.block_size).size,
}
ALL_CLASSES, PHOTON_CLASSES, BOTH_PREPS = {EARLY, ERASED, LATE, INVALID}, {EARLY, ERASED, LATE}, {MINUS, PLUS}
WALK = InterferometerConfig(phase_mode="walk")  # a walk phase with readout noise
WALK_08 = replace(WALK, erasure_visibility=0.8)
# The pinned record files, one row per path. A change that moves record bytes on
# purpose replaces the digest column, and a record or block count that moves with
# the draws; any other fact that fails means the row no longer covers its path.
PINS = [
    # the criterion-4 fixture through the command line: dense n = 1 records in a scanned phase, the hardware ingestion contract
    Pin("criterion_4_fixture", "fixture.ini", 5_000, 65_536, (1,),
        digest="951619daf302abf5ec02cf0d844bf08bc480781c98d4b5cd616d4d6d114af683"),
    # background of every class, Invalid included, with the doubles and singles of a walk phase in short blocks
    Pin("walk_background", (noisy_emitter(), WALK, ProtocolConfig(), DetectionParams(zpl_efficiency=1.0, background_rate_hz=200_000.0, seed=61)),
        4_000, 1_024, (1, 2), classes=ALL_CLASSES,
        digest="3eb19d7e5f26bb85d9de28421e40c6c3745335b2e30d2fa77b64b77ea63e969e"),
    # thinning to 1 in 15 drops most cycles before they are sampled; 12 full blocks and a short one, background of every class
    Pin("thinned_walk_background",
        (replace(noisy_emitter(), zpl_fraction=0.03), WALK, ProtocolConfig(), DetectionParams(zpl_efficiency=2e-3, background_rate_hz=3e4, seed=83)),
        50_000, 4_096, (1, 2), classes=ALL_CLASSES,
        digest="b0026897820298ae0012c2c28704df3a4c4c819d0652c34f8ad322b4194f7f02"),
    # doubles at thinning 0.3, where a double often keeps only its second photon's click and must still be sampled
    Pin("balanced", (noisy_emitter(), replace(WALK_08, split_ratio=0.5), ProtocolConfig(), DetectionParams(zpl_efficiency=0.3, seed=97)),
        20_000, 2_048, (1, 2), doubles=True,
        digest="34c1af4872f7244a5a695aa2dbb74879e99b9012ecf4f4b9e3837eaacc293dc6"),
    # doubles at an unbalanced splitter: a double's first photon takes the erasing arm with e1 = 0.3, its second with e2 = 0.7
    Pin("split_0.3", (noisy_emitter(), replace(WALK_08, split_ratio=0.3), ProtocolConfig(), DetectionParams(zpl_efficiency=0.3, seed=97)),
        20_000, 2_048, (1, 2), doubles=True,
        digest="f56743b6c9dd3cf40fd8b7ed29c3ad409f6cef0fd688cfb81d75b40f14c109d8"),
    # doubles of either photon of a noisy chain, and photon 1's late click at the time of photon 2's early click
    Pin("split_0.3_n2",
        (noisy_emitter(), replace(WALK_08, split_ratio=0.3), ProtocolConfig(n_photons=2), DetectionParams(zpl_efficiency=0.3, seed=97)),
        20_000, 2_048, (1, 2), doubles=True,
        digest="c23a586d14dc275d81f74df09b52cf9aacd3abb7185c14e83b545a88337960f9"),
    # the default config's efficiency: the walk, and at two workers a shard cut, run through 98 blocks that are nearly all empty
    Pin("default_sparse", (EmitterParams(), InterferometerConfig(), ProtocolConfig(), DetectionParams()),
        100_000, 1_024, (1, 2), record_blocks=2,
        digest="bbf0dfb787eda2ca63b8b6512e8ccad107c806836df00664272ae380aa62ce27"),
    # counter reads: about 1 cycle in 120 is active, so every block, the short last one too, reads photon 1's other uniforms by counter
    Pin("counter_path", (noisy_emitter(), WALK_08, ProtocolConfig(), DetectionParams(zpl_efficiency=2e-3, background_rate_hz=2_000.0, seed=83)),
        60_001, 4_096, (1, 2), records=387, classes=ALL_CLASSES, counter_blocks=range(15),
        digest="8bf54b3acb647f3e0b23b9cf7390bf24653ba1513f79c2854e96e06aa85d969a"),
    # a short noisy n = 2 chain: a walk with readout noise, both preparations, partial erasure and detection
    Pin("chain_n2", (noisy_emitter(), WALK_08, ProtocolConfig(n_photons=2), DetectionParams(zpl_efficiency=0.8, seed=73)),
        40, 65_536, (1,), classes=PHOTON_CLASSES, preps=BOTH_PREPS,
        digest="00be89147456b6f704902b92c232fdfaff59ca1d596cc4fbcef9edbf044c1e18"),
    # the same for a short noisy n = 3 chain
    Pin("chain_n3", (noisy_emitter(), WALK_08, ProtocolConfig(n_photons=3), DetectionParams(zpl_efficiency=0.8, seed=73)),
        24, 65_536, (1,), classes=PHOTON_CLASSES, preps=BOTH_PREPS,
        digest="facf7ba3ff5e5ffcab92b606ae048baa4e08e9972ac71c903acbeb15268cba7c"),
    # a thinned n = 2 chain: a cycle whose only surviving click is a later photon's must be kept
    Pin("thinned_chain_n2", (noisy_emitter(), WALK_08, ProtocolConfig(n_photons=2), DetectionParams(zpl_efficiency=0.05, seed=89)),
        20_000, 2_048, (1, 2), records=1_865,
        digest="b45b98af68f89a714f5311b1d908305b7470fc69d30ed7d8f15a6db736a13071"),
    # the same for a thinned n = 3 chain
    Pin("thinned_chain_n3", (noisy_emitter(), WALK_08, ProtocolConfig(n_photons=3), DetectionParams(zpl_efficiency=0.05, seed=89)),
        12_000, 2_048, (1, 2), records=1_642,
        digest="e43e8dbe53bc55a666ddbc4f8672282e02d4b1d7560a1b5bf1c1bde074247f53"),
    # the benchmark's n = 2 leg as its command line makes it: one block, so two workers run it in one process
    Pin("bench_chain_n2", "chain_n2.ini", 1_500, 65_536, (1, 2), seed=800,
        digest="ef30fa03babfa6c13b58b45f2f23f2f0b46e953d2e675b010bba9616f6bc8d0b"),
    # the benchmark's n = 3 leg, one block
    Pin("bench_chain_n3", "chain_n3.ini", 250, 65_536, (1, 2), seed=800,
        digest="6e63d9106b0873815298080a9dcbf537bff9660619a475bae91a1282935e1e07"),
    # the n = 2 leg over two full blocks and a short one, which two workers split
    Pin("bench_chain_n2_long", "chain_n2.ini", 140_000, 65_536, (1, 2), seed=800,
        digest="3af769f1c7e32ba5bd65523071f4c8064ffe511276028f974b746756a0df4180"),
    # the n = 3 leg over a full block and a short one, which two workers split
    Pin("bench_chain_n3_long", "chain_n3.ini", 70_000, 65_536, (1, 2), seed=800,
        digest="11c65881ff359fb1e7cdd73c440ad653d5dd8e79eb06b715cfcc27e0fe05aff9"),
    # every pulse branch: at zpl_fraction 0.3 the later photon's Kraus sampling picks among all 12 incoherent branches in order
    Pin("every_branch_n2",
        (replace(noisy_emitter(), zpl_fraction=0.3), WALK_08, ProtocolConfig(n_photons=2), DetectionParams(zpl_efficiency=0.3, seed=101)),
        6_000, 2_048, (1, 2), records=3_472, pulse_branches=13,
        digest="c9f681fdda8618137d6eff58db244b898f83b0e4f61e92528faaad48b3056136"),
    # every pulse branch for two later photons, over three blocks cut 1 + 2 at two workers
    Pin("every_branch_n3",
        (replace(noisy_emitter(), zpl_fraction=0.3), WALK_08, ProtocolConfig(n_photons=3), DetectionParams(zpl_efficiency=0.3, seed=101)),
        6_000, 2_048, (1, 2), records=4_995,
        digest="d659945dde06bf46885f0d7ad42e29e10c2a34caf1ba4de2bbd54ef3bd3a29cd"),
    # the ideal ghz chain: each later photon goes through one product of one-operator steps, a pi rotation between blocks, split 0.3
    Pin("ideal_ghz_n3", (load_config(BENCH_CONFIGS / "chain_n3.ini").emitter, replace(WALK_08, split_ratio=0.3),
                         ProtocolConfig(n_photons=3, chain_mode="ghz", cycle_period_ns=2e6), DetectionParams(zpl_efficiency=0.3, seed=107)),
        6_000, 2_048, (1, 2), records=5_321, classes=PHOTON_CLASSES, preps=BOTH_PREPS,
        digest="7f3993ede759bc6cc3941839a4e7549b5eb9a73093258d89b321e39059bd7b0e"),
]
# a row that pins the same bytes as another covers no path of its own
assert len({pin.id for pin in PINS}) == len(PINS), "row ids repeat"
assert len({pin.digest for pin in PINS}) == len(PINS), "digests repeat"


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        recs = simulate_cycles(
            3_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=16),
        )
        path = tmp_path / "records.csv"
        write_records(path, recs)
        back = read_records(path)
        assert len(back) == len(recs)
        assert np.array_equal(back["cycle_id"], recs["cycle_id"])
        assert np.array_equal(back["readout_click"], recs["readout_click"])
        assert np.allclose(back["phase_rad"], recs["phase_rad"], atol=1e-9)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cycle_id,port,arrival_class,t_ns,phase_rad,prep_sign\n")
        with pytest.raises(RecordFormatError, match="readout_click"):
            read_records(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(RECORD_COLUMNS) + "\n" + "0,D,Erased,1.0,0.5,minus,1\n" + "1,D,Erased,oops,0.5,minus,1\n"
        )
        with pytest.raises(RecordFormatError, match="line 3"):
            read_records(path)

    @pytest.mark.parametrize("body", ["", "\n\n", "\n \n"])
    def test_header_only_or_blank_body_reads_empty_under_warnings_as_errors(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(RECORD_COLUMNS) + "\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_records(path)
        assert back.dtype == RECORD_DTYPE and len(back) == 0

    def test_bad_field_in_second_chunk_names_its_line(self, tmp_path):
        rows = [f"{k},D,Erased,{k}.5,0.25,plus,0\n" for k in range(_CHUNK + 10)]
        rows[_CHUNK + 3] = rows[_CHUNK + 3].replace("0.25", "0.2x5")  # line 1 is the header
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RECORD_COLUMNS) + "\n" + "".join(rows))
        with pytest.raises(RecordFormatError, match=f"^line {_CHUNK + 5}: phase_rad '0.2x5' is not a finite number$"):
            read_records(path)

    def test_only_a_chunk_that_numpy_refuses_goes_to_the_line_parser(self, tmp_path, monkeypatch):
        recs = make_records([(k, "LRAD"[k % 4], ARRIVAL_CLASSES[k % 4], k / 8, -(k % 1000) / 1000, "plus", k % 2) for k in range(2 * _CHUNK + 5)])
        path = tmp_path / "records.csv"
        write_records(path, recs)
        lines = path.read_text().splitlines(keepends=True)
        k = _CHUNK + 6  # on line k + 2, in the second chunk: an id that only Python's int reads
        lines[k + 1] = "_".join(str(k)) + lines[k + 1][len(str(k)) :]
        path.write_text("".join(lines))
        firsts = []
        parse_lines = events._parse_lines
        monkeypatch.setattr(events, "_parse_lines", lambda lines, first: firsts.append(first) or parse_lines(lines, first))
        assert read_records(path).tobytes() == recs.tobytes()
        assert firsts == [_CHUNK + 2]

    def test_label_columns_are_whole_words_wider_than_their_labels(self):
        # a field equals a label exactly when their NUL-padded words do, and a cut field fills its words
        base = "0,D,Erased,1.0,0.5,minus,1".split(",")
        for name, codes in CODES.items():
            width, longest = _TABLE_DTYPE[name].itemsize, max(len(label.encode()) for label in codes)
            assert width % 8 == 0 and longest < width <= longest + 8
            lines = []
            for label, code in codes.items():
                assert _LABEL_WORDS[name][code].tobytes() == label.encode().ljust(width, b"\0")
                lines.append(",".join(label if col == name else f for col, f in zip(RECORD_COLUMNS, base)) + "\n")
            assert _parse_table(lines)[name].tolist() == list(codes.values())

    @pytest.mark.parametrize(
        "line",
        [
            "1,D,EarlyRevealingX,2.0,0.5,minus,1",  # not cut to the longest label
            "1,D,Erased,2.0,0.5,minusss,1",  # not cut to a known prep sign
            "1,D,ErasedErasedErasedEr,2.0,0.5,minus,1",  # not cut to 16 characters
            "1,D,Erased,2.0,0.5,minus,7",
            "1,Q,Erased,2.0,0.5,minus,1",
            "1,D,Erased,2.0,nan,minus,1",
            "1,D,Erased,inf,0.5,minus,1",
            "1.5,D,Erased,2.0,0.5,minus,1",
            "99999999999999999999,D,Erased,2.0,0.5,minus,1",
            "1,D,Er\udcffased,2.0,0.5,minus,1",  # byte 0xff, not UTF-8
            "1,Q,Erased,2.0,0.5,minus,1\nx,D,Erased,2.0,0.5,minus,1",  # the first of two bad lines
            "1,Q,Erased,2.0,0.5,minus,1\n1,D,Erased,2.0,0.5,minus,1,9",
        ],
    )
    def test_field_outside_its_vocabulary_or_range_names_line(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        text = ",".join(RECORD_COLUMNS) + "\n0,D,Erased,1.0,0.5,minus,1\n\n" + line + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(RecordFormatError, match="line 4"):
            read_records(path)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("t_ns", np.nan),
            ("t_ns", np.inf),
            ("phase_rad", -np.inf),
            ("phase_rad", np.nan),
            ("port", 7),
            ("arrival_class", len(ARRIVAL_CLASSES)),
            ("prep_sign", len(PREP_NAMES)),
            ("readout_click", 2),
        ],
    )
    def test_unreadable_record_refused_before_writing(self, tmp_path, name, value):
        recs = make_records([(k, "D", "Erased", 1.0 + k, 0.5, "minus", 1) for k in range(3)])
        recs[name][1] = value
        path = tmp_path / "refused.csv"
        with pytest.raises(RecordFormatError, match=f"record 1: {name} "):
            write_records(path, recs)
        assert not path.exists()

    @pytest.mark.parametrize("pin,workers", [(pin, w) for pin in PINS for w in pin.workers],
                             ids=lambda case: case.id if isinstance(case, Pin) else f"w{case}")
    def test_record_pins(self, tmp_path, monkeypatch, pin, workers):
        # one item per row and worker count; a row's facts come before its
        # digest, so a moved digest also tells whether the row still covers its path
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", pin.block_size)
        reads = []
        if pin.counter_blocks is not None:
            monkeypatch.setattr("tpcsim.events._philox_uniforms", lambda *args: reads.append(args) or _philox_uniforms(*args))
        if pin.pulse_branches is not None:
            assert len(optical_pulse_kraus(pin.config[0])) == pin.pulse_branches
        out = tmp_path / "records.csv"
        if isinstance(pin.config, str):  # states no fact, so the file is not read back
            ini = BENCH_CONFIGS / pin.config
            if pin.config == "fixture.ini":
                write_fixture_ini(ini := tmp_path / pin.config)
            seed = [] if pin.seed is None else ["--seed", str(pin.seed)]
            args = ["simulate", "--config", str(ini), "--cycles", str(pin.cycles), *seed, "--workers", str(workers)]
            assert main([*args, "--out", str(out)]) == 0
        else:
            recs = simulate_cycles(pin.cycles, *pin.config, workers=workers)
            for name, fact in RECORD_FACTS.items():
                if getattr(pin, name) is not None:
                    assert fact(pin, recs) == getattr(pin, name), name
            if pin.counter_blocks is not None and workers == 1:  # the pool's workers read in their own processes
                assert _counter_blocks(reads) == list(pin.counter_blocks)
                assert len(reads) < len(pin.counter_blocks)  # one read serves a batch of blocks
            write_records(out, recs)
        assert sha256(out.read_bytes()).hexdigest() == pin.digest

    def test_counter_and_bulk_reads_give_the_same_records(self, monkeypatch):
        # about 1 cycle in 5 is active: the counter reads every block at
        # share 1, and no block at share 2**62, where the tables are drawn whole
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 4096)
        reads = []
        monkeypatch.setattr("tpcsim.events._philox_uniforms", lambda *args: reads.append(args) or _philox_uniforms(*args))
        args = (
            replace(noisy_emitter(), zpl_fraction=0.03),
            InterferometerConfig(phase_mode="walk"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=2e-3, background_rate_hz=3e4, seed=83),
        )
        runs = {}
        for share in (1, 2**62):
            monkeypatch.setattr("tpcsim.events._COUNTER_SHARE", share)
            reads.clear()
            runs[share] = simulate_cycles(20_001, *args)
            assert len(_counter_blocks(reads)) == (5 if share == 1 else 0)
        assert len(runs[1]) > 1_000
        assert np.array_equal(runs[1], runs[2**62])

    @pytest.mark.parametrize("config", ["background", "chain", "straddling"])
    def test_batch_cap_never_changes_the_records(self, monkeypatch, config):
        # 15 blocks, the last of 2,657 cycles, sampled one block a batch (cap
        # 0), in batches of the model's cap and in batches as long as a shard
        # allows. With background, or the thinned noisy chain, about 1 cycle in
        # 120 is active and every block reads by counter, so one batch takes
        # the shard; a batch across blocks changes the row count of every
        # sampled array, and for the chain of its Kraus and readout matmuls.
        # Straddling the counter cutoff, about 1 cycle in 70, blocks that read
        # by counter open batches that a block drawing its whole table closes
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 4096)
        ifm = InterferometerConfig(phase_mode="walk", erasure_visibility=0.8)
        if config == "chain":
            emitter_params, pcfg, ifm, det = _chain_args("noisy cluster")
            args = (emitter_params, ifm, pcfg, replace(det, zpl_efficiency=6e-4, seed=83))
        else:
            det = DetectionParams(zpl_efficiency=7e-3, seed=83)
            if config == "background":
                det = replace(det, zpl_efficiency=2e-3, background_rate_hz=2_000.0)
            args = (noisy_emitter(), ifm, ProtocolConfig(), det)
        init, sample, batches = _CycleModel.__init__, events._sample_batch, []

        def recording_batch(model, detection, batch):
            # per block, C if it reads by counter (a position per active cycle), else B
            batches.append("".join("C" if drawn[-2].size == drawn[0].size else "B" for drawn in batch))
            return sample(model, detection, batch)

        monkeypatch.setattr(events, "_sample_batch", recording_batch)
        runs = {}
        for cap in (0, None, 2**62):

            def capped(self, *model_args, cap=cap):
                init(self, *model_args)
                self.batch_cap = self.batch_cap if cap is None else cap

            monkeypatch.setattr(_CycleModel, "__init__", capped)
            for workers in (1, 2):
                batches.clear()
                runs[cap, workers] = simulate_cycles(60_001, *args, workers=workers)
                if workers == 1:  # the pool's workers sample in their own processes
                    assert len("".join(batches)) == 15
                    if cap == 0:
                        assert all(len(kinds) == 1 for kinds in batches)
                    elif config == "straddling":
                        assert ("CCB" in batches) == (cap == 2**62)
                    else:
                        assert max(map(len, batches)) == (15 if cap else 2)
        assert len(runs[None, 1]) > 50
        for key, recs in runs.items():
            assert np.array_equal(recs, runs[None, 1]), key

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("drift", [2.4e-9, 0.0])
    def test_every_block_starts_from_the_drawn_walk_offset(self, monkeypatch, drift, workers):
        # five blocks, the last of 1,808 cycles: 2 workers cut them 2 + 3 and
        # 3 workers 1 + 2 + 2, so later shards skip ahead over 1 to 3 blocks
        ifm = InterferometerConfig(phase_mode="walk", phase=0.3, phase_drift_var_per_ns=drift)
        pcfg = ProtocolConfig()
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 2048)
        det = DetectionParams(zpl_efficiency=0.01, seed=19)
        n_cycles = 10_000
        drawn = _walk_block_offsets(ifm, 5, 2048, n_cycles, det.seed, pcfg.cycle_period_ns)
        starts, streams = {}, []

        def recording_block(model, detection, lo, hi, offset, scratch):
            starts[lo // model.block_size] = offset
            return _draw_block(model, detection, lo, hi, offset, scratch)

        def recording_rng(seed, stream, block, position=0):
            streams.append(stream)
            return _keyed_rng(seed, stream, block, position)

        monkeypatch.setattr("tpcsim.events._draw_block", recording_block)
        monkeypatch.setattr("tpcsim.events._keyed_rng", recording_rng)
        monkeypatch.setattr(SerialPool, "sizes", [])
        monkeypatch.setattr("tpcsim.events.ProcessPoolExecutor", SerialPool)
        simulate_cycles(n_cycles, ideal_emitter(), ifm, pcfg, det, workers=workers)
        assert sorted(starts) == list(range(5))
        for block, offset in starts.items():
            assert offset == drawn[block], block
        assert (len(set(drawn)) == 5) == (drift > 0)
        # a phase that does not walk draws no phase step, not even to skip ahead
        assert (_PHASE_STREAM in streams) == (drift > 0)


class TestValidation:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_refused_before_compiling(self, monkeypatch, workers):
        monkeypatch.setattr("tpcsim.events._CycleModel", None)  # compiling would raise TypeError
        args = (ideal_emitter(), InterferometerConfig(), ProtocolConfig(), DetectionParams())
        with pytest.raises(EventModelError, match=f"workers must be >= 1, got {workers}"):
            simulate_cycles(100, *args, workers=workers)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(EventModelError):
            DetectionParams(zpl_efficiency=0.0).validate()
        with pytest.raises(EventModelError):
            DetectionParams(zpl_efficiency=1.5).validate()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the Philox key holds 64 bits of seed; a wider one would alias another
        with pytest.raises(EventModelError, match="seed"):
            DetectionParams(seed=seed).validate()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_64_bit_ends_accepted(self, seed):
        det = DetectionParams(zpl_efficiency=1.0, seed=seed)
        assert len(simulate_cycles(20, ideal_emitter(), InterferometerConfig(), ProtocolConfig(), det)) > 0

    def test_multiphoton_background_unsupported(self):
        with pytest.raises(EventModelError):
            simulate_cycles(
                10,
                ideal_emitter(),
                InterferometerConfig(),
                ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0),
                DetectionParams(zpl_efficiency=1.0, background_rate_hz=10.0),
            )
