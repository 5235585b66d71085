"""Whole-set stages peak near the arrays they keep.

Each stage's `tracemalloc` peak is bounded as a multiple of the output the
stage keeps. The peaks were measured with numpy 2.4.6; they depend on
numpy's own temporaries (pocketfft's buffers, the text parsing in
`read_dird`), so each bound sits partway between the measured value and
the earlier layout's figure rather than just above the measurement. Every
bound fails when a stage makes a second whole-set array: the earlier
layout (a whole-set complex spectrum under every magnitude build, a copy
of every handed-over response array) measured the figures on the right.

    stage                                         measured  bound   before
    synth_test_set, 11880 x 256 x 1               1.17      1.6     2.17
    first lin build, 11880 x 129 x 1              1.19      1.7     3.01
    first pow build                               1.18      1.7     4.00
    first log build                               1.18      1.7     5.00
    kept after the first log read                 1.00      1.5     3.00
    read_dird, lowpass 1944 x 256 x 2             1.44      1.9     2.44

The builds are measured on a read of one direction, after a response read
of the same request has built the coordinate caches, so the peak is the
build's own. `read_dird`'s 0.44 is the file's text and line list.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import traced_peak

from dirkit import (
    CoordinateSet,
    DataType,
    RawIRs,
    SynthSpec,
    read_dird,
    synth_test_set,
    write_dird,
)

DENSE = SynthSpec(mode="lowpass", azimuth_step=2.0, elevation_step=2.0,
                  elevation_limits=(-40.0, 90.0), length=256)


def _dense_set_and_request():
    """The 11880-direction set and a one-direction request, its holder's
    search caches built by a response read."""
    raw = synth_test_set(DENSE)
    request = CoordinateSet(directions=[raw.coords.directions[0]],
                            frequencies=(raw.coords.frequencies[3],),
                            distances=raw.coords.distances)
    raw.get_data_matrix(request, DataType.IMPULSE_RESPONSES)
    return raw, request


def _magnitude_bytes(raw):
    d_count, length, r_count = raw.irs.shape
    return d_count * (length // 2 + 1) * r_count * 8


def test_synth_test_set_peaks_near_the_responses_it_keeps():
    raw, peak = traced_peak(lambda: synth_test_set(DENSE))
    assert raw.irs.shape == (11880, 256, 1)
    assert peak / raw.irs.nbytes < 1.6


@pytest.mark.parametrize("datatype", [
    DataType.LINEAR_MAGNITUDE, DataType.POWER_SPECTRUM, DataType.LOG_MAGNITUDE,
], ids=lambda v: v.value)
def test_first_magnitude_build_peaks_near_the_magnitudes_it_keeps(datatype):
    raw, request = _dense_set_and_request()
    _, peak = traced_peak(lambda: raw.get_data_matrix(request, datatype))
    assert peak / _magnitude_bytes(raw) < 1.7


def test_first_log_read_keeps_one_magnitude_and_no_spectrum():
    raw, request = _dense_set_and_request()

    def kept_by_read():
        before, _ = tracemalloc.get_traced_memory()
        raw.get_data_matrix(request, DataType.LOG_MAGNITUDE)
        after, _ = tracemalloc.get_traced_memory()
        return after - before

    kept, _ = traced_peak(kept_by_read)
    assert kept / _magnitude_bytes(raw) < 1.5
    assert set(raw._store) == {DataType.IMPULSE_RESPONSES, DataType.LOG_MAGNITUDE}


def test_read_dird_peaks_near_the_responses_it_keeps(tmp_path):
    near = synth_test_set(SynthSpec(mode="lowpass", azimuth_step=5.0, elevation_step=5.0,
                                    elevation_limits=(-40.0, 90.0), length=256))
    two = RawIRs("two distances", np.concatenate([near.irs, 0.5 * near.irs], axis=2),
                 near.sample_rate, near.coords.directions, (1.0, 2.0))
    write_dird(two, tmp_path / "set.dird")
    raw, peak = traced_peak(lambda: read_dird(tmp_path / "set.dird"))
    assert raw.irs.shape == (1944, 256, 2)
    assert peak / raw.irs.nbytes < 1.9
