"""Property tests of the record path and the analysis: the records' invariance
under the cut of the blocks into worker shards, the CSV round trip, the
writer against its one-row reference format, multi-click rejection, and the
report's invariance under a common phase shift, over arbitrary valid inputs."""
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpcsim.analysis import AnalysisParams, analyze_records
from tpcsim.emitter import EmitterParams
from tpcsim.events import (
    ARRIVAL_CLASSES,
    PORT_LETTERS,
    PREP_NAMES,
    RECORD_COLUMNS,
    RECORD_DTYPE,
    _CHUNK,
    _CSV_LABELS,
    _ROW_FORMAT,
    DetectionParams,
    _columns,
    multiclick_cycles,
    read_records,
    simulate_cycles,
    write_records,
)
from tpcsim.optics import InterferometerConfig
from tpcsim.protocol import ProtocolConfig

from conftest import SerialPool, ideal_emitter

PROPERTY = settings(max_examples=200, deadline=None, database=None)


@settings(max_examples=60, deadline=None, database=None)
@given(
    cycles=st.integers(1, 600),
    block_size=st.integers(1, 200),
    workers=st.integers(1, 5),
    phase_mode=st.sampled_from(["walk", "scan", "static"]),
)
def test_shard_cuts_never_change_the_records(cycles, block_size, workers, phase_mode):
    args = (
        ideal_emitter(),
        InterferometerConfig(phase_mode=phase_mode, phase=0.3),
        ProtocolConfig(),
        DetectionParams(zpl_efficiency=0.3, seed=11, block_size=block_size),
    )
    one = simulate_cycles(cycles, *args)
    # the pool maps in this process, so the test starts no process
    pools = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SerialPool, "sizes", pools)
        mp.setattr("tpcsim.events.ProcessPoolExecutor", SerialPool)
        sharded = simulate_cycles(cycles, *args, workers=workers)
    shards = min(workers, -(-cycles // block_size))
    assert pools == [shards] * (shards > 1)
    assert np.array_equal(sharded, one)


records = st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.integers(0, len(PORT_LETTERS) - 1),
        st.integers(0, len(ARRIVAL_CLASSES) - 1),
        st.floats(-1e15, 1e15),
        st.floats(-1e3, 1e3),
        st.integers(0, len(PREP_NAMES) - 1),
        st.integers(0, 1),
    ),
    max_size=50,
).map(lambda rows: np.array(rows, dtype=RECORD_DTYPE))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@PROPERTY
@given(recs=records)
def test_write_read_round_trip(scratch, recs):
    first, second = scratch / "first.csv", scratch / "second.csv"
    write_records(first, recs)
    back = read_records(first)
    for name in ("cycle_id", "port", "arrival_class", "prep_sign", "readout_click"):
        assert np.array_equal(back[name], recs[name])
    # t_ns is written with three decimals and phase_rad with nine; reading
    # rounds once more, to the nearest double
    for name, tol in (("t_ns", 5e-4), ("phase_rad", 5e-10)):
        assert np.all(np.abs(back[name] - recs[name]) <= tol + np.spacing(np.abs(recs[name])))
    write_records(second, back)
    assert second.read_bytes() == first.read_bytes()


def rows(t_ns, phase_rad, cycle_id=None):
    """Records with the given numeric columns and every code cycled through its vocabulary."""
    n = len(t_ns)
    k = np.arange(n)
    recs = np.zeros(n, dtype=RECORD_DTYPE)
    recs["cycle_id"] = k if cycle_id is None else cycle_id
    for name, labels in _CSV_LABELS.items():
        recs[name] = k % len(labels)
    recs["t_ns"], recs["phase_rad"] = t_ns, phase_rad
    return recs


def ulps(x):
    """x and its two neighbouring doubles."""
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# a value x with x * 10**d an exact half-integer, and one either side of it
ties = st.one_of(
    st.integers(-(2**40), 2**40).map(lambda m: (2 * m + 1) / 16),  # ties at 3 decimals
    st.integers(-(2**30), 2**30).map(lambda m: (2 * m + 1) / 1024),  # ties at 9 decimals
).flatmap(lambda x: st.sampled_from(ulps(x)))
numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e7, 1e7), ties)
wide_records = st.lists(
    st.tuples(st.integers(-(2**63), 2**63 - 1), numbers, numbers), max_size=60
).map(lambda r: rows([t for _, t, _ in r], [p for *_, p in r], [c for c, *_ in r]))
# x * 10**d is below 2**52 for the first of each three and not for the others:
# the first row's chunk takes the vectorized path, a chunk with any other the fallback
EDGE_T, EDGE_PHASE = ulps(2.0**52 / 1e3), ulps(2.0**52 / 1e9)
long_with_fallback = rows(np.linspace(-5e4, 5e4, _CHUNK + 5), np.linspace(-7.0, 7.0, _CHUNK + 5))
long_with_fallback["t_ns"][_CHUNK + 2] = 1e16


@PROPERTY
@example(recs=rows([0.0625, 0.1875, -0.3125, 2.5, -7.5], [1 / 1024, 3 / 1024, -5 / 1024, 0.0625, 2.5]))
@example(recs=rows([-0.0004, -0.0, -5e-324, 0.0, -0.0005], [-4e-10, -0.0, -5e-324, 0.0, -5e-10]))
@example(recs=rows(EDGE_T[:1] + [-EDGE_T[0]], EDGE_PHASE[:1] + [-EDGE_PHASE[0]]))
@example(recs=rows(EDGE_T[1:] + [-EDGE_T[2]], [0.0, 0.0, 0.0]))
@example(recs=rows([0.0, 0.0, 0.0], EDGE_PHASE[1:] + [-EDGE_PHASE[2]]))
@example(recs=rows([1.0, -1.0, 0.5], [0.5, -0.5, 0.0], [-(2**63), 2**63 - 1, -1]))
@example(recs=long_with_fallback)
@given(recs=wide_records)
def test_writer_bytes_equal_row_format(scratch, recs):
    path = scratch / "rows.csv"
    write_records(path, recs)
    reference = ",".join(RECORD_COLUMNS) + "\n" + "".join(map(_ROW_FORMAT, *_columns(recs, _CSV_LABELS)))
    assert path.read_bytes() == reference.encode()


@PROPERTY
@given(data=st.data(), n_photons=st.integers(1, 3))
def test_multiclick_rejection_follows_record_permutation(data, n_photons):
    ids = np.array(data.draw(st.lists(st.integers(0, 8), max_size=40)), dtype=np.int64)
    perm = np.array(data.draw(st.permutations(range(len(ids)))), dtype=np.int64)
    mask, count = multiclick_cycles(ids, n_photons)
    permuted_mask, permuted_count = multiclick_cycles(ids[perm], n_photons)
    assert np.array_equal(permuted_mask, mask[perm])
    assert permuted_count == count


@pytest.fixture(scope="module")
def centred():
    """Simulated records whose effective phases (phase_rad plus port offset) all
    sit at centres of the analysis phase bins."""
    params = AnalysisParams()
    ifm = InterferometerConfig(phase_mode="scan", erasure_visibility=0.8)
    recs = simulate_cycles(20_000, EmitterParams(), ifm, ProtocolConfig(), DetectionParams(zpl_efficiency=1.0, seed=9))
    width = 2.0 * pi / params.n_phase_bins
    # every port offset is a whole number of bins, so centred phases stay centred
    assert np.allclose(np.array([pi, ifm.quadrature_offset]) / width % 1.0, 0.0)
    recs["phase_rad"] = (np.floor(recs["phase_rad"] / width) + 0.5) * width
    return recs, params, ifm, analyze_records(recs, params, ifm)


@PROPERTY
@given(k=st.integers(-40, 40))
def test_report_invariant_under_common_phase_shift(centred, k):
    # fit_equatorial's contract: a common shift of the phase origin moves the
    # fringes, not the correlations or the bound
    recs, params, ifm, report = centred
    shifted = recs.copy()
    shifted["phase_rad"] += k * 2.0 * pi / params.n_phase_bins
    moved = analyze_records(shifted, params, ifm)
    for name in ("c_xx", "c_zz", "f_bound_raw"):
        assert abs(getattr(moved, name) - getattr(report, name)) <= 1e-9, name
