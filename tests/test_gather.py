"""`core.gather` against fancy indexing, over generated inputs.

A read's values are `gather(values, d_idx, f_idx, r_idx)`; it must equal
`values[np.ix_(d_idx, f_idx, r_idx)]` exactly and return a new
C-contiguous array, whatever the indices and the input's memory layout.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirkit import core
from dirkit.core import gather

PROPERTY = settings(max_examples=150, deadline=None)


def _indices(size):
    """Any indices into an axis of `size`: repeated, unsorted, or none;
    only none on an empty axis."""
    if size == 0:
        return st.just([])
    return st.lists(st.integers(min_value=0, max_value=size - 1), max_size=12)


@st.composite
def _runs(draw, size):
    """An ascending run of consecutive indices into an axis of `size`: one
    index, part of the axis, or all of it (none on an empty axis)."""
    kind = draw(st.sampled_from(["unit", "part", "whole"]))
    if size == 0 or kind == "whole":
        return list(range(size))
    start = draw(st.integers(min_value=0, max_value=size - 1))
    stop = start + 1 if kind == "unit" else draw(
        st.integers(min_value=start + 1, max_value=size)
    )
    return list(range(start, stop))


def _bin_indices(size):
    """Frequency or distance indices: any list, or a run, which gathers by
    slicing."""
    return st.one_of(_indices(size), _runs(size))


LAYOUTS = ["c", "fortran", "transposed", "strided"]


def _laid_out(values, layout):
    """`values` with the same contents in one of the LAYOUTS."""
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "transposed":
        # A (D, K, R) view of a (K, D, R) array, as a fit's solve returns.
        return np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2)
    if layout == "strided":
        d, f, r = values.shape
        wide = np.zeros((d, 2 * f, r), dtype=values.dtype)
        wide[:, ::2] = values
        return wide[:, ::2]
    return values


@st.composite
def _cases(draw):
    shape = tuple(draw(st.integers(min_value=0, max_value=7)) for _ in range(3))
    dtype = draw(st.sampled_from([np.float64, np.complex128]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]
    values = values.real.copy() if dtype is np.float64 else values.copy()
    values = _laid_out(values, draw(st.sampled_from(LAYOUTS)))
    idx = (
        draw(_indices(shape[0])),
        draw(_bin_indices(shape[1])),
        draw(_bin_indices(shape[2])),
    )
    step = draw(st.sampled_from([1, 3, 7, 64, 1 << 16]))
    return values, idx, step


@PROPERTY
@given(case=_cases())
def test_gather_equals_fancy_indexing(case):
    values, (d_idx, f_idx, r_idx), step = case
    expected = values[np.ix_(d_idx, f_idx, r_idx)]
    with mock.patch.object(core, "_GATHER_STEP", step):
        got = gather(values, d_idx, f_idx, r_idx)
    assert got.dtype == values.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert got.flags.c_contiguous and got.flags.owndata


@pytest.mark.parametrize("layout", LAYOUTS)
def test_gather_of_runs_is_a_new_c_contiguous_array_in_every_layout(layout):
    base = np.arange(5 * 6 * 3, dtype=np.float64).reshape(5, 6, 3)
    values = _laid_out(base, layout)
    for f_idx, r_idx in [(range(6), range(3)), (range(1, 4), range(1, 3)),
                         ([2], range(3)), (range(6), [1])]:
        got = gather(values, [4, 0, 0, 2], f_idx, r_idx)
        assert np.array_equal(got, base[np.ix_([4, 0, 0, 2], f_idx, r_idx)])
        assert got.flags.c_contiguous and got.flags.owndata
        assert not np.shares_memory(got, values)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_gather_spans_uneven_chunks_at_full_size(dtype):
    # 1944 directions x 128 bins x 2 distances: 256 cells a row, so a
    # 64k-element step takes 256 rows a chunk and the last chunk has 152.
    rng = np.random.default_rng(20240815)
    values = rng.standard_normal((1944, 129, 2)).astype(dtype)
    d_idx = np.arange(1944)
    d_idx[-72:] = 1872
    f_idx = np.arange(1, 129)
    r_idx = np.arange(2)
    assert len(d_idx) % (core._GATHER_STEP // (len(f_idx) * len(r_idx))) != 0
    got = gather(values, d_idx, f_idx, r_idx)
    assert np.array_equal(got, values[np.ix_(d_idx, f_idx, r_idx)])
    assert got.flags.c_contiguous and got.flags.owndata


@pytest.mark.parametrize("bins", ["reversed", "every-second"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_gather_spans_uneven_chunks_at_full_size_off_a_run(dtype, bins):
    # Bins that are no run take the chunked path, 256 rows a chunk as above.
    rng = np.random.default_rng(20240816)
    values = rng.standard_normal((1944, 257, 2)).astype(dtype)
    d_idx = np.arange(1944)
    d_idx[-72:] = 1872
    f_idx = np.arange(128, 0, -1) if bins == "reversed" else np.arange(1, 257, 2)
    r_idx = np.arange(2)
    assert core._run(f_idx) is None
    assert len(d_idx) % (core._GATHER_STEP // (len(f_idx) * len(r_idx))) != 0
    got = gather(values, d_idx, f_idx, r_idx)
    assert np.array_equal(got, values[np.ix_(d_idx, f_idx, r_idx)])
    assert got.flags.c_contiguous and got.flags.owndata


def test_gather_leaves_its_input_alone():
    values = np.arange(24.0).reshape(2, 3, 4)
    values.setflags(write=False)
    got = gather(values, [1, 0], [2], [3, 0])
    got[...] = -1.0
    assert np.array_equal(values, np.arange(24.0).reshape(2, 3, 4))
