"""Table formatting: one format per distinct value, the same bytes as one per
cell; and state snapshots that round-trip bit for bit."""

import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qca import serialize
from qca.cayley import build_presentation
from qca.evolution import FieldState, LatticeSpec

from oracles import stream_snapshot

NAN_NEGATIVE = math.copysign(math.nan, -1.0)
# Signed zeros and subnormals, both sides of the "%.17g" switch to exponent
# notation, the largest double, NaN with either sign bit, and the infinities.
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0,
    sys.float_info.max, -sys.float_info.max, math.nan, NAN_NEGATIVE, math.inf, -math.inf,
)
VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())
FINITE = st.one_of(st.sampled_from([v for v in EDGE_VALUES if math.isfinite(v)]),
                   st.floats(allow_nan=False, allow_infinity=False))


def _tables(values):
    """(column count, rows) with every row that many values long."""
    return st.integers(1, 6).flatmap(lambda cols: st.tuples(
        st.just(cols), st.lists(st.lists(values, min_size=cols, max_size=cols), max_size=12)))


@given(_tables(FINITE))
def test_csv_document_matches_per_value_format(table):
    cols, rows = table
    header = [f"c{j}" for j in range(cols)]
    expected = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in rows]
    assert "".join(serialize.csv_document(header, rows)) == "\n".join(expected) + "\n"


@pytest.mark.parametrize("piece_rows", [1, 2, 3, 1024])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
def test_csv_document_pieces_split_at_row_boundaries(monkeypatch, piece_rows, count):
    monkeypatch.setattr(serialize, "_PIECE_ROWS", piece_rows)
    rows = np.arange(2.0 * count).reshape(count, 2) / 3.0
    pieces = list(serialize.csv_document(["a", "b"], rows))
    assert pieces[0] == "a,b\n"
    lines = [piece.count("\n") for piece in pieces[1:]]
    assert sum(lines) == count
    assert all(n == piece_rows for n in lines[:-1]) and lines[-1] <= piece_rows
    assert "".join(pieces) == "a,b\n" + "".join("%.17g,%.17g\n" % tuple(r) for r in rows)


@pytest.mark.parametrize("piece_rows", [1, 2, 3, 1024])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
def test_report_pieces_split_a_table_at_row_boundaries(monkeypatch, piece_rows, count):
    # A 2-D float array in the report streams in pieces of _PIECE_ROWS rows,
    # between pieces "[" and "]"; the bytes are report_document's, which formats
    # the same rows given as nested lists.
    monkeypatch.setattr(serialize, "_PIECE_ROWS", piece_rows)
    rows = np.arange(2.0 * count).reshape(count, 2) / 3.0
    payload = {"grid": 4, "rows": rows, "variant": "weyl-1d"}
    pieces = list(serialize.report_pieces(payload))
    assert "".join(pieces) == serialize.report_document(payload)
    assert "".join(pieces) == serialize.report_document(dict(payload, rows=rows.tolist()))
    start = pieces.index("[")
    table = pieces[start + 1:start + pieces[start:].index("]")]
    lines = [piece.count("[") for piece in table]
    assert sum(lines) == count
    assert all(n == piece_rows for n in lines[:-1]) and lines[-1] <= piece_rows
    assert all(piece.startswith(",") for piece in table[1:])


@pytest.mark.parametrize("bad", [math.nan, NAN_NEGATIVE, math.inf, -math.inf],
                         ids=["nan", "-nan", "inf", "-inf"])
def test_non_finite_table_cell_raises_on_the_call(bad):
    # Raised before the first piece, so a file opened for the table gets none.
    rows = np.full((3 * serialize._PIECE_ROWS, 2), 0.5)
    rows[-1, 1] = bad
    with pytest.raises(FloatingPointError, match="non-finite value in a table"):
        serialize.csv_document(["a", "b"], rows)
    with pytest.raises(FloatingPointError, match="non-finite value in a report"):
        serialize.report_pieces({"a": 1, "rows": rows})


@given(_tables(FINITE))
def test_dumps_stable_table_matches_nested_lists(table):
    cols, rows = table
    array = np.array(rows, dtype=float).reshape(len(rows), cols)
    assert serialize.dumps_stable(array) == serialize.dumps_stable(rows)


def test_sign_bit_of_zero_survives_deduplication():
    pieces = serialize.csv_document(["a", "b"], [[0.0, -0.0], [-0.0, 0.0]])
    assert "".join(pieces) == "a,b\n0,-0\n-0,0\n"


@pytest.mark.parametrize("bad", [math.nan, NAN_NEGATIVE, math.inf, -math.inf],
                         ids=["nan", "-nan", "inf", "-inf"])
def test_non_finite_report_value_is_not_a_usage_error(bad):
    # cli.main maps ValueError to exit 2 (a usage error); a non-finite report
    # value is a bug, so it must raise something else.
    for value in (bad, np.array([[1.0, bad]])):
        with pytest.raises(FloatingPointError, match="non-finite"):
            serialize.report_document({"value": value})
    assert not issubclass(FloatingPointError, ValueError)


PRESENTATIONS = {1: "line", 2: "square_2d", 3: "bcc_3d"}


@given(
    st.integers(1, 3).flatmap(lambda d: st.lists(st.integers(2, 4), min_size=d, max_size=d)),
    st.sampled_from([2, 4]),
    st.one_of(st.sampled_from([-2 ** 63, -1, 0, 2 ** 63 - 1]), st.integers(-2 ** 63, 2 ** 63 - 1)),
    st.lists(VALUES, max_size=8),
    st.integers(0, 2 ** 32 - 1),
)
def test_snapshot_round_trips_bit_for_bit(sizes, s, time, special, seed):
    # Random parts over many magnitudes, about a third of them +-0.0, and the
    # drawn edge values (NaN, infinities, subnormals) first.
    sizes = tuple(sizes)
    rng = np.random.default_rng(seed)
    parts = rng.normal(size=2 * math.prod(sizes) * s) * 10.0 ** rng.integers(-300, 300, size=1)
    parts[rng.random(parts.size) < 0.3] = rng.choice([0.0, -0.0])
    parts[:len(special)] = special[:parts.size]
    presentation = build_presentation(PRESENTATIONS[len(sizes)])
    state = FieldState(LatticeSpec(presentation, sizes), s,
                       parts.view(complex).reshape(sizes + (s,)), time)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.qcas")
        stream_snapshot(state, path)
        with open(path, "rb") as fh:
            written = fh.read()
        back = serialize.load_snapshot(path, presentation)
        stream_snapshot(back, path)
        with open(path, "rb") as fh:
            assert fh.read() == written
    assert (back.lattice.sizes, back.internal_dim, back.time) == (sizes, s, time)
    assert back.amplitudes.dtype == complex
    assert back.amplitudes.tobytes() == state.amplitudes.tobytes()
