"""Guards on the fixed cost of a small read, counted in calls.

A one-direction read of every stored bin and a 64-request direction
search each make about the same calls whatever the size of the set, and
on a set of 11880 directions those calls, not the arithmetic, are most
of their time. So a change that adds calls shows here as a count before
it shows as time.

The counts come from `sys.setprofile`: "call" events are calls of Python
functions, "c_call" events calls of builtin functions and of methods such
as `ndarray.take` or `ufunc.reduce`. A ufunc itself is not a builtin
function, so the events miss every ufunc call, whether written as an
operator (`a + b`, `a > b`) or by name (`np.add(a, b)`): the counts bound
the calls around the arithmetic, not the arithmetic. They hold for the
numpy and Python this repository is tested with; the parent of the
change that set these bounds counted 147 C-level and 105 Python calls
for the series read and 64 and 28 for the search.
"""

import sys

import numpy as np
import pytest

from dirkit import SynthSpec, kernels, synth_test_set

# Counts of the current code plus a margin of a few calls.
SERIES_C_CALLS, SERIES_PY_CALLS = 97, 66
SEARCH_C_CALLS, SEARCH_PY_CALLS = 42, 18


def _calls(fn):
    """(C-level calls, Python calls) made by fn(), as sys.setprofile sees
    them."""
    counts = {"c_call": 0, "call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts["c_call"], counts["call"]


@pytest.fixture(scope="module")
def raw():
    # 256 taps (129 bins) as in the off-grid benchmark, on a coarser grid.
    spec = SynthSpec(mode="lowpass", azimuth_step=10.0, elevation_step=10.0,
                     elevation_limits=(-40.0, 90.0), length=256, sample_rate=48000.0)
    raw = synth_test_set(spec)
    raw.spectrum_series((12.3, 4.5))  # spectra, magnitudes and the search index
    return raw


def test_a_one_direction_series_makes_few_calls(raw):
    c_calls, py_calls = _calls(lambda: raw.spectrum_series((201.7, -33.3), 1.7))
    assert c_calls <= SERIES_C_CALLS
    assert py_calls <= SERIES_PY_CALLS


def test_a_64_request_search_makes_few_calls(raw):
    rng = np.random.default_rng(20241019)
    az, el = rng.uniform(0.0, 360.0, 64), rng.uniform(-90.0, 90.0, 64)
    index = raw.coords.directions.search_index
    c_calls, py_calls = _calls(lambda: kernels.nearest_direction(index, az, el))
    assert c_calls <= SEARCH_C_CALLS
    assert py_calls <= SEARCH_PY_CALLS

