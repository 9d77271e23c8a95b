"""Property test: the columnar CSV readers against the row-wise oracles.

Generated driver and observation files mix well-formed records with the
fields and lines the two parsers treat apart: tokens that only Python's
``float`` reads (``1_0``, non-ASCII digits and spaces), unparsable and
non-finite tokens, blank and whitespace-only lines, wrong field counts,
and LF, CRLF or CR line endings. No file holds a quote, a NUL or a
byte-order mark. On every file both readers give bit-equal columns, or
both raise a DataError with the same message.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auroracast.errors import DataError
from auroracast.geomodel import DRIVER_NAMES
from auroracast.ingest import read_drivers_csv, read_observations_csv

from _reference import obs_table, read_drivers_rows, read_observations_rows

SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))

PAD = st.sampled_from(["", "", "", " ", "\t", "\u00a0", "\u2003"])
NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["-0", "0.0", "-0.0", "5e-324", "1e-400", "1e308", "1.7976931348623157e308"]),
)
FLOAT_ONLY = st.sampled_from(["1_0", "0_0.5", "1_000e-2", "\u0663", "\u0663.\u0665", "-\u0667e\u0662"])
UNPARSABLE = st.sampled_from(["", "x", "1..2", "1e", "--1", "3#0", "0x10", "1 2", "_1", "1_", "\u0663x"])
NON_FINITE = st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e999"])
BLANK = st.sampled_from(["", " ", "\t \t", "\u00a0", "\x0c"])
END = st.sampled_from(["\n", "\r\n", "\r"])


def _spelled(value: int) -> st.SearchStrategy:
    """``value`` as ``float`` reads it in several spellings."""
    return st.sampled_from([str(value), f"{value}.0", f"{value:_}", str(value).translate(_ARABIC_INDIC)])


@st.composite
def _records(draw, header: list[str], field):
    """The lines of a file under ``header``: records whose field ``j`` is
    drawn from ``field(j, k)`` for record ``k``, one field padded with
    spaces, then blank lines, records with one field too many or too few,
    and records with one bad token."""
    lines = [",".join(header)]
    for k in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["record"] * 6 + ["blank", "count", "token"]))
        if kind == "blank":
            lines.append(draw(BLANK))
            continue
        fields = [draw(field(j, k)) for j in range(len(header))]
        if kind == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.one_of(UNPARSABLE, NON_FINITE))
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = draw(PAD) + fields[j] + draw(PAD)
        if kind == "count":
            fields = fields[:-1] if draw(st.booleans()) else fields + [draw(NUMBER)]
        lines.append(",".join(fields))
    end = draw(END)
    return end.join(lines) + (end if draw(st.booleans()) else "")


@st.composite
def driver_files(draw) -> str:
    """Drivers on a 300 s cadence whose steps are mostly one or two
    cadences, so that gap filling and its faults both occur."""
    header = ["t", *draw(st.permutations(DRIVER_NAMES))] + draw(st.sampled_from([[], ["note"]]))
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 0]), min_size=8, max_size=8))
    times = 300 * np.cumsum(steps)

    def field(j, k):
        if j == 0:
            return _spelled(int(times[k]))
        return st.one_of(NUMBER, NUMBER, NUMBER, FLOAT_ONLY)

    return draw(_records(header, field))


@st.composite
def observation_files(draw) -> str:
    header = draw(st.permutations(["t", "sat_id", "mlat", "mlt", "eflux"] + draw(st.sampled_from([[], ["region"]]))))
    values = {
        "t": st.one_of(NUMBER, FLOAT_ONLY),
        "sat_id": st.one_of(_spelled(2), st.sampled_from(["0", "-0", "1.5", "-1", "1e30", "9.3e18", "-9.3e18"])),
        "mlat": st.one_of(st.floats(45.0, 90.0).map(repr), st.sampled_from(["6_5", "30", "90.5", "-0"])),
        "mlt": st.one_of(NUMBER, FLOAT_ONLY),
        "eflux": st.one_of(st.floats(1e-3, 1e15).map(repr), st.sampled_from(["0", "-5", "1_0e9", "1e400", "nan"])),
        "region": st.sampled_from(["", " ", "AUR", "sub", " POL ", "XYZ"]),
    }
    return draw(_records(header, lambda j, k: values[header[j]]))


def _outcome(reader, path):
    """(result, None), or (None, message) for a DataError."""
    try:
        return reader(path), None
    except DataError as exc:
        return None, str(exc)


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


@given(text=driver_files())
@SETTINGS
def test_drivers_reader_matches_row_oracle(tmp_path, text):
    path = tmp_path / "drivers.csv"
    path.write_bytes(text.encode())
    (got, error), (ref, ref_error) = _outcome(read_drivers_csv, path), _outcome(read_drivers_rows, path)
    assert error == ref_error
    if got is not None:
        assert (got.t0, got.cadence) == (ref.t0, ref.cadence)
        assert _bits(got.values) == _bits(ref.values)


@given(text=observation_files())
@SETTINGS
def test_observations_reader_matches_row_oracle(tmp_path, text):
    path = tmp_path / "observations.csv"
    path.write_bytes(text.encode())
    (got, error), (ref, ref_error) = _outcome(read_observations_csv, path), _outcome(read_observations_rows, path)
    assert error == ref_error
    if got is not None:
        (table, dropped), (rows, ref_dropped) = got, ref
        ref_table = obs_table(rows)
        assert dropped == ref_dropped
        for name in ("t", "sat_id", "mlat", "mlt", "eflux"):
            assert _bits(getattr(table, name)) == _bits(getattr(ref_table, name)), name
        assert (table.region is None) == (ref_table.region is None)
        if table.region is not None:
            assert _bits(table.region) == _bits(ref_table.region)
