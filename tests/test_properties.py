"""Property tests of the record path: the CSV round trip and multi-click
rejection, over arbitrary valid records."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpcsim.events import (
    ARRIVAL_CLASSES,
    PORT_LETTERS,
    PREP_NAMES,
    RECORD_DTYPE,
    multiclick_cycles,
    read_records,
    write_records,
)

PROPERTY = settings(max_examples=200, deadline=None, database=None)

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


@PROPERTY
@given(data=st.data(), n_photons=st.integers(1, 3))
def test_multiclick_rejection_follows_record_permutation(data, n_photons):
    ids = np.array(data.draw(st.lists(st.integers(0, 8), max_size=40)), dtype=np.int64)
    perm = np.array(data.draw(st.permutations(range(len(ids)))), dtype=np.int64)
    mask, count = multiclick_cycles(ids, n_photons)
    permuted_mask, permuted_count = multiclick_cycles(ids[perm], n_photons)
    assert np.array_equal(permuted_mask, mask[perm])
    assert permuted_count == count
