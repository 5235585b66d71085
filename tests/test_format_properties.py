"""DIRD/DIRM round trips and reader agreement over generated contents.

Every finite float64 (negative zero, subnormals and the extremes
included) and every info string must come back bit for bit, and writing
what was read back must reproduce the first file byte for byte. On
mutated bodies the one-pass row reader must agree with a line-by-line
reference, which reads every row through `values`, on the values or on
the error and its line.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dirkit import (
    BasisFamily,
    BasisSpectrumModel,
    RawIRs,
    read_dird,
    read_dirm,
    write_dird,
    write_dirm,
)
from dirkit import formats
from dirkit.errors import FormatError

PROPERTY = settings(max_examples=100, deadline=None)

values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308]),
)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
directions = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=360.0, exclude_max=True),
        st.floats(min_value=-90.0, max_value=90.0),
    ),
    min_size=1,
    max_size=4,
    unique=True,
)
distances = st.lists(positive, min_size=1, max_size=3, unique=True).map(sorted)


def _assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
    assert a.tobytes() == b.tobytes()


def _round_trip(write, read, obj):
    """Write, read back, write again; the two files must be equal bytes.

    RawIRs computes its spectra on the first spectral read, and a round
    trip makes none, so samples near 1e308, whose spectra overflow, need
    no floating-point error suppression here.
    """
    with tempfile.TemporaryDirectory() as directory:
        first = os.path.join(directory, "first")
        second = os.path.join(directory, "second")
        write(obj, first)
        back = read(first)
        write(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert back.info == obj.info
    assert back.coords.directions == obj.coords.directions
    _assert_bits_equal(back.coords.distances, obj.coords.distances)
    return back


@st.composite
def raw_sets(draw):
    dirs, dists = draw(directions), draw(distances)
    length = draw(st.integers(min_value=2, max_value=6))
    irs = draw(hnp.arrays(np.float64, (len(dirs), length, len(dists)), elements=values))
    # The frequency bins k * fs / L must stay strictly ascending.
    rate = draw(st.floats(min_value=1.0, max_value=1e300))
    return RawIRs(draw(st.text()), irs, rate, dirs, dists)


@st.composite
def models(draw):
    dirs, dists = draw(directions), draw(distances)
    bins = draw(
        st.lists(
            st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=6,
            unique=True,
        ).map(sorted)
    )
    order = draw(st.integers(min_value=1, max_value=len(bins)))
    coef = draw(hnp.arrays(np.float64, (len(dirs), order, len(dists)), elements=values))
    family = draw(st.sampled_from(list(BasisFamily)))
    return BasisSpectrumModel(draw(st.text()), family, coef, bins, dirs, dists)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(raw=raw_sets())
def test_dird_round_trip_is_exact(raw):
    back = _round_trip(write_dird, read_dird, raw)
    assert back.sample_rate == raw.sample_rate
    _assert_bits_equal(back.irs, raw.irs)


@PROPERTY
@given(model=models())
def test_dirm_round_trip_is_exact(model):
    back = _round_trip(write_dirm, read_dirm, model)
    assert back.family is model.family
    _assert_bits_equal(back.source_bins, model.source_bins)
    _assert_bits_equal(back.coefficients, model.coefficients)


# Tokens that `float` reads (hex floats are not among them), tokens it
# rejects, and ones it reads as non-finite.
TOKENS = ("0", "0x1p3", "1_0", "\u0661\u0662", "nan", "inf", "-inf", "1e400", "+1", ".5",
          "ir", "1\r", "1\t", "")
KEYWORDS = ("ir", "coef", "dir", "IR", "ir\r", "", "dist")
SHAPES = ("missing", "doubled", "leading", "trailing", "tab", "cr", "drop line",
          "repeat line")
picks = st.integers(0, 7)
mutations = st.one_of(
    st.tuples(st.sampled_from(("value", "extra")), st.sampled_from(TOKENS), picks),
    st.tuples(st.just("keyword"), st.sampled_from(KEYWORDS), picks),
    st.tuples(st.sampled_from(SHAPES), st.just(""), picks),
)


def _mutate(lines, at, mutation):
    """Apply one mutation to `lines[at]`, a body line, in place."""
    kind, token, pick = mutation
    if kind == "drop line":
        del lines[at]
        return
    if kind == "repeat line":
        lines.insert(at, lines[at])
        return
    tokens = lines[at].split(" ")
    i = 1 + pick % (len(tokens) - 1)  # a value token
    if kind == "value":
        tokens[i] = token
    elif kind == "keyword":
        tokens[0] = token
    elif kind == "missing":
        del tokens[i]
    elif kind == "extra":
        tokens.insert(i, token)
    elif kind == "doubled":
        tokens.insert(i, "")
    elif kind == "leading":
        tokens.insert(0, "")
    elif kind == "trailing":
        tokens.append("")
    elif kind == "tab":
        tokens[i - 1:i + 1] = [tokens[i - 1] + "\t" + tokens[i]]
    else:
        tokens[i] += "\r"
    lines[at] = " ".join(tokens)


def _outcome(read, path):
    try:
        back = read(path)
    except FormatError as exc:
        return exc
    body = back.irs if isinstance(back, RawIRs) else back.coefficients
    values = (back.coords.directions.pairs, back.coords.distance_array, body)
    return tuple(np.asarray(v).tobytes() for v in values) + (body.shape, back.info)


def _line_by_line_rows(self, count, planes, expected, keyword, width, what):
    """The reference body reader: `values` on each row in turn, plane slow
    and row fast, into a (count, width, planes) array."""
    parsed = [self.values(expected, keyword, width, what) for _ in range(count * planes)]
    return np.ascontiguousarray(np.reshape(parsed, (planes, count, width)).transpose(1, 2, 0))


def _agree(read, text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "mutated")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        fast = _outcome(read, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(formats._LineReader, "rows", _line_by_line_rows)
            strict = _outcome(read, path)
    if isinstance(strict, FormatError):
        assert isinstance(fast, FormatError), f"only the strict reader rejects: {strict}"
        assert (str(fast), fast.line) == (str(strict), strict.line)
    else:
        assert fast == strict


@settings(max_examples=400, deadline=None)
@given(
    obj=st.one_of(raw_sets(), models()),
    defects=st.lists(mutations, min_size=1, max_size=2),
    where=st.data(),
)
def test_fast_rows_and_strict_reader_agree_on_mutated_bodies(obj, defects, where):
    write, read, start = (
        (write_dird, read_dird, 4) if isinstance(obj, RawIRs) else (write_dirm, read_dirm, 5)
    )
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "valid")
        write(obj, path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")[:-1]
    # As many defects on `dir` lines as on `ir`/`coef` rows.
    body = start + len(obj.coords.directions)
    line = st.one_of(st.integers(start, body - 1), st.integers(body, len(lines) - 1))
    rows = where.draw(
        st.lists(line, min_size=len(defects), max_size=len(defects), unique=True).map(sorted)
    )
    # With two defects, each one goes first in the file once. The later
    # line is mutated first so that a dropped or repeated line moves none.
    for order in (defects, defects[::-1])[: len(defects)]:
        mutated = lines.copy()
        for at, mutation in reversed(list(zip(rows, order))):
            _mutate(mutated, at, mutation)
        _agree(read, "\n".join(mutated) + "\n")
