"""DIRD/DIRM round trips over generated contents.

Every finite float64 (negative zero, subnormals and the extremes
included) and every info string must come back bit for bit, and writing
what was read back must reproduce the first file byte for byte.
"""

import os
import tempfile

import numpy as np
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
    """Write, read back, write again; the two files must be equal bytes."""
    # RawIRs computes its spectra on construction, and those of samples
    # near 1e308 overflow; the spectra are not under test here.
    with tempfile.TemporaryDirectory() as directory, np.errstate(all="ignore"):
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
    with np.errstate(all="ignore"):
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
