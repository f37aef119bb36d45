"""Property tests of the record path and the analysis: the records' invariance
under the cut of the blocks into worker shards, the CSV round trip, the
writer against its one-row reference format, the reader against its line
parser on edited files, multi-click rejection, the
analysis tally against a count by hand, and the report's invariance under a
common phase shift, over arbitrary valid inputs."""
from collections import Counter
from itertools import product
from math import pi
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpcsim.analysis import AnalysisParams, analyze_records, tally_records
from tpcsim.emitter import EmitterParams
from tpcsim.events import (
    ARRIVAL_CLASSES,
    EARLY,
    ERASED,
    PREP_NAMES,
    RECORD_COLUMNS,
    RECORD_DTYPE,
    _CHUNK,
    _CSV_LABELS,
    _ROW_FORMAT,
    DetectionParams,
    RecordFormatError,
    _columns,
    _parse_lines,
    multiclick_cycles,
    read_records,
    simulate_cycles,
    write_records,
)
from tpcsim.optics import PORT_NAMES, InterferometerConfig
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
        DetectionParams(zpl_efficiency=0.3, seed=11),
    )
    pools = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("tpcsim.events._BLOCK_SIZE", block_size)
        one = simulate_cycles(cycles, *args)
        # the pool maps in this process, so the test starts no process
        mp.setattr(SerialPool, "sizes", pools)
        mp.setattr("tpcsim.events.ProcessPoolExecutor", SerialPool)
        sharded = simulate_cycles(cycles, *args, workers=workers)
    shards = min(workers, -(-cycles // block_size))
    assert pools == [shards] * (shards > 1)
    assert np.array_equal(sharded, one)


records = st.lists(
    st.tuples(
        st.integers(-(2**63), 2**63 - 1),
        st.integers(0, len(PORT_NAMES) - 1),
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


# edits of one field of a written line, and of a whole line; read_records must
# read each edited file exactly as _parse_lines does
FIELD_EDITS = {
    "space before": lambda f: " " + f,
    "space after": lambda f: f + " ",
    "one more character": lambda f: f + "X",
    "two more characters": lambda f: f + "XX",
    "three more characters": lambda f: f + "XXX",
    "seven more characters": lambda f: f + "X" * 7,  # fills an 8-byte word after a one-letter label
    "swapped case": str.swapcase,
    "NUL after": lambda f: f + "\0",
    "lone surrogate": lambda f: f[:1] + "\udcff" + f[1:],
    **{f"= {v!r}": (lambda f, v=v: v) for v in ("nan", "inf", "1e400", "1_0", "\u0663", "5.0", "+5", str(2**63), "")},
    **{f"= {v!r}": (lambda f, v=v: v) for v in ("Erased", "Early")},  # another column's label, a strict prefix
}
LINE_EDITS = {
    "blanked": lambda line: "\n",
    "blank line before": lambda line: "\n" + line,
    "whitespace line before": lambda line: " \t\n" + line,
    "seventh comma": lambda line: line[:-1] + ",\n",
}
edits = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, len(RECORD_COLUMNS) - 1), st.sampled_from(sorted(FIELD_EDITS) + sorted(LINE_EDITS))),
    max_size=3,
)
ONE_ROW = np.array([(7, 0, 0, 2.5, 0.25, 1, 1)], dtype=RECORD_DTYPE)  # D, EarlyRevealing, plus


def edited(lines, changes):
    lines = list(lines)
    for row, column, name in changes:
        if not lines:
            break
        k = row % len(lines)
        if name in LINE_EDITS:
            lines[k] = LINE_EDITS[name](lines[k])
        else:
            fields = lines[k][:-1].split(",")
            column %= len(fields)  # an edited line may hold fewer fields
            fields[column] = FIELD_EDITS[name](fields[column])
            lines[k] = ",".join(fields) + "\n"
    return lines


@PROPERTY
@example(recs=ONE_ROW[:0], changes=[]).via("a header-only file")
@example(recs=ONE_ROW, changes=[(0, 0, "blanked")]).via("numpy finds no rows")
@example(recs=ONE_ROW, changes=[(0, 2, "one more character")]).via("the longest label plus one")
@example(recs=ONE_ROW, changes=[(0, 1, "one more character")]).via("a one-letter label plus one")
@example(recs=ONE_ROW, changes=[(0, 2, "two more characters")]).via("the longest label plus two: 16 bytes")
@example(recs=ONE_ROW, changes=[(0, 2, "three more characters")]).via("the longest label plus three, cut to 16 bytes")
@example(recs=ONE_ROW, changes=[(0, 1, "seven more characters")]).via("a one-letter label filling its word")
@example(recs=ONE_ROW, changes=[(0, 1, "= 'Erased'")]).via("another column's label")
@example(recs=ONE_ROW, changes=[(0, 2, "= 'Early'")]).via("a strict prefix of a label")
@example(recs=ONE_ROW, changes=[(0, 2, "swapped case")]).via("a label in another case")
@example(recs=ONE_ROW, changes=[(0, 5, "NUL after")]).via("a NUL cut from a label")
@example(recs=ONE_ROW, changes=[(0, 3, "= 'nan'")]).via("a non-finite t_ns")
@example(recs=ONE_ROW, changes=[(0, 4, "= '1e400'")]).via("an overflowing phase_rad")
@example(recs=ONE_ROW, changes=[(0, 0, "= '1_0'")]).via("an id only Python's int reads")
@given(recs=records, changes=edits)
def test_reader_equals_line_parser_on_edited_files(scratch, recs, changes):
    path = scratch / "edited.csv"
    write_records(path, recs)
    header, *lines = path.read_text().splitlines(keepends=True)
    path.write_bytes((header + "".join(edited(lines, changes))).encode("utf-8", "surrogateescape"))
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = fh.readlines()[1:]  # the lines as read_records reads them
    try:
        expected = _parse_lines(lines, 2)
    except RecordFormatError as error:
        with pytest.raises(RecordFormatError) as refused:
            read_records(path)
        assert str(refused.value) == str(error)
    else:
        assert read_records(path).tobytes() == expected.tobytes()


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


N_BINS = (4, 5, 16)
# bin edges of every bin count above, multiples of 2 pi among them, and values
# that wrap to just below 2 pi or sit next to 0
BIN_EDGES = sorted({k * 2.0 * pi / nb for nb in N_BINS for k in range(-2 * nb, 2 * nb + 1)}) + [-0.0, -1e-300, 1e-300]
tally_rows = st.lists(
    st.tuples(
        st.integers(0, 7),  # few cycle ids, so cycles of two and three clicks occur
        st.integers(0, len(PORT_NAMES) - 1),
        st.integers(0, len(ARRIVAL_CLASSES) - 1),
        st.one_of(st.sampled_from(BIN_EDGES), st.floats(-30.0, 30.0)),
        st.integers(0, len(PREP_NAMES) - 1),
        st.integers(0, 1),
    ),
    max_size=40,
)
# every class, port and prep once each in cycles of their own, then a cycle of
# two clicks and one of three; the erased records take the phases from -1e-300 on
WRAPS = (-0.0, 1e-300, -1e-300, -1.0, 2.0 * pi, -2.0 * pi, 3 * 2.0 * pi / 16)
EVERY_CELL = [
    (100 + k, port, cls, WRAPS[k % len(WRAPS)], prep, k % 2)
    for k, (port, cls, prep) in enumerate(product(range(len(PORT_NAMES)), range(len(ARRIVAL_CLASSES)), range(len(PREP_NAMES))))
] + [(0, 0, ERASED, -1.0, 0, 1), (0, 1, EARLY, 2.0 * pi, 1, 0)] + [(1, 2, ERASED, -2.0 * pi, 1, 1)] * 3


def counted_by_hand(rows, n_bins, quadrature_offset):
    """Tally cells, fringe, record count and rejected cycles, one record at a time."""
    clicks = Counter(row[0] for row in rows)
    offsets = (0.0, pi, quadrature_offset, quadrature_offset + pi)  # D, A, R, L
    width = 2.0 * pi / n_bins
    cells = np.zeros((len(PREP_NAMES), len(ARRIVAL_CLASSES), len(PORT_NAMES), 2), dtype=np.int64)
    fringe = np.zeros((len(PREP_NAMES), n_bins, 2), dtype=np.int64)
    for cycle, port, cls, phase, prep, click in rows:
        if clicks[cycle] > 1:
            continue
        cells[prep, cls, port, click] += 1
        if cls == ERASED:
            fringe[prep, min(int((phase + offsets[port]) % (2.0 * pi) / width), n_bins - 1), click] += 1
    return cells, fringe, sum(n for n in clicks.values() if n == 1), sum(n > 1 for n in clicks.values())


@PROPERTY
@example(rows=EVERY_CELL, n_bins=16, quadrature_offset=pi / 4, order=Random(0))
@example(rows=EVERY_CELL, n_bins=5, quadrature_offset=1.0, order=Random(1))
@given(
    rows=tally_rows,
    n_bins=st.sampled_from(N_BINS),
    quadrature_offset=st.sampled_from((pi / 4, 1.0)),
    order=st.randoms(use_true_random=False),
)
def test_tally_equals_hand_count_in_any_order(rows, n_bins, quadrature_offset, order):
    recs = np.array([(c, port, cls, 0.0, phase, prep, click) for c, port, cls, phase, prep, click in rows], dtype=RECORD_DTYPE)
    params, ifm = AnalysisParams(n_phase_bins=n_bins), InterferometerConfig(quadrature_offset=quadrature_offset)
    cells, fringe, n_records, rejected = counted_by_hand(rows, n_bins, quadrature_offset)
    perm = list(range(len(recs)))
    order.shuffle(perm)
    for tally in (tally_records(recs, params, ifm), tally_records(recs[perm], params, ifm)):
        assert np.array_equal(tally.cells, cells)
        assert np.array_equal(tally.fringe, fringe)
        assert (tally.n_records, tally.n_rejected_cycles) == (n_records, rejected)


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
