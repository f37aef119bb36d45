"""Pinned outputs of the exact executors.

The values were computed once with an independent implementation of the
executors (a labelled tensor layout grown one time bin at a time) and are
held here to 1e-12, so that any rewrite of run_noisy / run_ideal must
reproduce the same states, herald probabilities and stabilizer values.
"""
import numpy as np
import pytest

from tpcsim.emitter import EmitterParams
from tpcsim.optics import InterferometerConfig
from tpcsim.protocol import ProtocolConfig, as_qubit_pair, build_sequence, run_ideal, run_noisy, stabilizer_check

from conftest import FIXTURE
from test_events import noisy_emitter

TOL = 1e-12

FIXTURE_IFM = dict(phase_mode="scan", phase_readout_sigma=0.0, erasure_visibility=0.695814665779)
CHAIN_IFM = dict(phase=0.9, erasure_visibility=0.8, split_ratio=0.3)

# as_qubit_pair of the normalized n = 1 fixture state, minus preparation
_FIXTURE_PAIR = np.array(
    [
        (0.00316675905407677, 0.0, 0.0, 0.0),
        (0.0, 0.439050857958691, 0.203499999999994, 0.0),
        (0.0, 0.203499999999994, 0.479449142041488, 0.0),
        (0.0, 0.0, 0.0, 0.0783332409457442),
    ],
    dtype=complex,
)
_FLIP = np.diag([1.0, -1.0, 1.0, 1.0])  # the sign of the |0,V> amplitude
_NOISY_PAIR = np.array(
    [
        (0.00207255829632078, 0.0, 0.0, 0.0),
        (0.0, 0.610971564331242, complex(0.152558935467068, -0.192248396189557), 0.0),
        (0.0, complex(0.152558935467068, 0.192248396189557), 0.284528291587494, 0.0),
        (0.0, 0.0, 0.0, 0.102427585784943),
    ],
    dtype=complex,
)


def heralded(params, ifm, n, prep="minus", mode="cluster"):
    pcfg = ProtocolConfig(n_photons=n, prep_sign=prep, chain_mode=mode, cycle_period_ns=2_000_000.0)
    return run_noisy(build_sequence(pcfg, ifm), params, ifm)


@pytest.mark.parametrize(
    "prep,pair", [("minus", _FIXTURE_PAIR), ("plus", _FLIP @ _FIXTURE_PAIR @ _FLIP)]
)
def test_fixture_single_photon_state(prep, pair):
    state = heralded(EmitterParams(**FIXTURE), InterferometerConfig(**FIXTURE_IFM), 1, prep)
    assert abs(state.trace() - 0.4660026362464718) < TOL
    assert np.max(np.abs(as_qubit_pair(state.normalized()).data - pair)) < TOL


@pytest.mark.parametrize("prep", ["minus", "plus"])
@pytest.mark.parametrize(
    "n,trace,stabilizers",
    [
        (2, 0.20200127850924932, [0.369561867636835, 0.377575083145739, 0.835768336390433]),
        (3, 0.08756284481143908, [0.166956974588335, 0.342843618920091, 0.377575083145739, 0.835768336390433]),
    ],
)
def test_fixture_chain_stabilizers(prep, n, trace, stabilizers):
    state = heralded(EmitterParams(**FIXTURE), InterferometerConfig(**FIXTURE_IFM), n, prep)
    assert abs(state.trace() - trace) < TOL
    assert np.max(np.abs(np.array(stabilizer_check(state.normalized(), n, "cluster", prep)) - stabilizers)) < TOL


def test_noisy_single_photon_state_with_phase_and_split():
    state = heralded(noisy_emitter(), InterferometerConfig(**CHAIN_IFM), 1)
    assert abs(state.trace() - 0.46854449295171885) < TOL
    assert np.max(np.abs(as_qubit_pair(state.normalized()).data - _NOISY_PAIR)) < TOL


@pytest.mark.parametrize(
    "mode,trace,stabilizers",
    [
        ("cluster", 0.20546843253973707, [0.270005965935083, 0.275860509336876, 0.81953016928441]),
        ("ghz", 0.23387433807229646, [-0.0530555914287557, 0.750476348890543, 0.80536133056242]),
    ],
)
def test_noisy_chain_stabilizers(mode, trace, stabilizers):
    state = heralded(noisy_emitter(), InterferometerConfig(**CHAIN_IFM), 2, mode=mode)
    assert abs(state.trace() - trace) < TOL
    assert np.max(np.abs(np.array(stabilizer_check(state.normalized(), 2, mode)) - stabilizers)) < TOL


@pytest.mark.parametrize("mode", ["cluster", "ghz"])
@pytest.mark.parametrize("prep", ["minus", "plus"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ideal_stabilizers(n, prep, mode):
    pcfg = ProtocolConfig(n_photons=n, prep_sign=prep, chain_mode=mode, cycle_period_ns=2_000_000.0)
    state = run_ideal(build_sequence(pcfg, InterferometerConfig()), phi=0.0)
    assert np.max(np.abs(np.array(stabilizer_check(state, n, mode, prep)) - 1.0)) < TOL
