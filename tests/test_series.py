"""Spectrum-series and balloon-grid sampling on top of matrix reads."""

import re

import numpy as np
import pytest
from conftest import traced_peak

from dirkit import (
    BasisFamily,
    BasisSpectrumModel,
    Continuity,
    CoordinateSet,
    DataType,
    Directivity,
    DirectivityDiff,
    RawIRs,
    SynthSpec,
    fit_basis_model,
    synth_test_set,
)
from dirkit import kernels
from dirkit.coords import discrete_read_indices
from dirkit.core import DataVolume

SEED = 20240817


class AnalyticLobe(Directivity):
    """Continuous test double: value = elevation + log10(frequency)."""

    def __init__(self, elevation_limits=(-30.0, 90.0), frequency_limits=(100.0, 10000.0)):
        coords = CoordinateSet(
            directions=elevation_limits,
            frequencies=frequency_limits,
            distances=(1.0,),
            continuity=Continuity(True, True, False),
        )
        super().__init__("analytic lobe", coords)

    @property
    def supported_datatypes(self):
        return frozenset({DataType.LOG_MAGNITUDE})

    def get_data_matrix(self, requested, datatype):
        self._check_datatype(datatype)
        actual = self.coerce_onto(requested).coords
        elevations = actual.elevation_array
        freqs = np.maximum(actual.frequency_array, 1e-6)
        values = elevations[:, None, None] + np.log10(freqs)[None, :, None]
        values = np.broadcast_to(values, (*values.shape[:2], len(actual.distances)))
        return DataVolume(values.copy(), actual, datatype)


# --------------------------------------------------------------------------
# spectrum_series
# --------------------------------------------------------------------------

def test_discrete_series_reports_every_stored_bin():
    raw = synth_test_set(SynthSpec(length=64))
    series = raw.spectrum_series((90.0, 0.0))
    np.testing.assert_array_equal(series.frequencies, raw.coords.frequency_array)
    assert series.values.shape == (33,)
    # unit gain at (90, 0) in the flat set
    np.testing.assert_allclose(series.values, 0.0, atol=1e-12)


def test_a_long_series_keeps_its_memory_bounded():
    # A read of all 8193 bins at a copy of them asks, per bin, for the
    # nearest stored one: a whole comparison matrix would take 537 MB per
    # temporary.
    rng = np.random.default_rng(SEED)
    raw = RawIRs("long", rng.standard_normal((2, 16384)), 48000.0, [(0.0, 0.0), (90.0, 0.0)])
    copy = CoordinateSet(directions=[(10.0, 5.0)], frequencies=raw.coords.frequency_array)
    (series, volume), peak = traced_peak(lambda: (
        raw.spectrum_series((10.0, 5.0)), raw.get_data_matrix(copy, DataType.LOG_MAGNITUDE)
    ))
    assert volume.values[0, :, 0].tobytes() == series.values.tobytes()
    assert peak < 16 * 2**20


def _spy_value_searches(monkeypatch):
    """(stored, requested) sizes of every kernels.nearest_value call."""
    calls = []
    search = kernels.nearest_value

    def spy(base, req):
        calls.append((len(base), len(req)))
        return search(base, req)

    monkeypatch.setattr(kernels, "nearest_value", spy)
    return calls


def test_a_series_at_own_ascending_bins_searches_no_value(monkeypatch):
    # A diff's coordinates are a read's, built unchecked; its bins ascend
    # strictly all the same, so its series lands on them as a raw set's does.
    raw = synth_test_set(SynthSpec(mode="lowpass", length=64))
    diff = DirectivityDiff("", raw, fit_basis_model("", raw, "fourier", 4))
    calls = _spy_value_searches(monkeypatch)
    series = [obj.spectrum_series((91.0, 2.0)) for obj in (raw, diff)]
    # One search each, of the requested distance among the stored one.
    assert calls == [(1, 1), (1, 1)]
    for obj, got in zip((raw, diff), series):
        np.testing.assert_array_equal(got.frequencies, obj.coords.frequency_array)
        want = obj.get_data_matrix(got.coords, DataType.LOG_MAGNITUDE).values[0, :, 0]
        assert got.values.tobytes() == want.tobytes()


def test_a_read_at_own_repeated_bins_lands_on_the_first(monkeypatch):
    # Bins every 750 Hz: 700 and 800 Hz both land on 750, so the diff
    # stores that bin twice, and a read at its own bins searches them.
    raw = synth_test_set(SynthSpec(mode="lowpass", length=64))
    at = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=(700.0, 800.0, 1500.0),
        distances=raw.coords.distances,
    )
    diff = DirectivityDiff("", raw, raw, at=at)
    assert diff.coords.frequencies == (750.0, 750.0, 1500.0)
    calls = _spy_value_searches(monkeypatch)
    _, f_idx, _, actual = discrete_read_indices(diff.coords, diff.coords)
    assert f_idx.tolist() == [0, 0, 2]
    assert actual.frequencies == diff.coords.frequencies
    series = diff.spectrum_series((0.0, 0.0))
    assert series.frequencies.tolist() == [750.0, 750.0, 1500.0]
    # The bins twice, and the requested distance among the stored one.
    assert calls == [(3, 3), (3, 3), (1, 1)]


def test_series_direction_is_coerced_and_reported():
    raw = synth_test_set(SynthSpec(length=64))
    series = raw.spectrum_series((91.0, 2.0))
    assert series.coords.directions[0].azimuth == 90.0
    assert series.coords.directions[0].elevation == 0.0


def test_continuous_series_samples_512_log_spaced_points():
    rng = np.random.default_rng(SEED)
    raw = RawIRs(
        info="",
        irs=rng.standard_normal((2, 64)),
        sample_rate=48000.0,
        directions=[(0, 0), (90, 0)],
    )
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 4)
    series = model.spectrum_series((0.0, 0.0))
    lo, hi = model.frequency_limits
    assert len(series.frequencies) == 512
    assert series.frequencies[0] == pytest.approx(lo)
    assert series.frequencies[-1] == pytest.approx(hi)
    # log spacing: constant ratio between neighbors
    ratios = series.frequencies[1:] / series.frequencies[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    # values agree with a direct discrete read at the sampled points
    request = CoordinateSet(
        directions=[(0.0, 0.0)], frequencies=tuple(series.frequencies)
    )
    direct = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values[0, :, 0]
    np.testing.assert_array_equal(series.values, direct)


def test_zero_lower_limit_is_floored_at_twenty_hz():
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.COSINE,
        coefficients=np.ones((1, 2)),
        source_bins=(0.0, 1000.0),
        directions=[(0, 0)],
    )
    series = model.spectrum_series((0.0, 0.0))
    assert series.frequencies[0] == pytest.approx(20.0)
    assert series.frequencies[-1] == pytest.approx(1000.0)


def test_zero_lower_limit_below_twenty_hz_upper_serves_the_upper_limit():
    # The floor stops at the upper limit, so the limits become equal.
    model = BasisSpectrumModel("", BasisFamily.COSINE, np.ones((1, 2)), (0.0, 10.0), [(0, 0)])
    series = model.spectrum_series((0, 0))
    np.testing.assert_array_equal(series.frequencies, [10.0])
    request = CoordinateSet(directions=[(0.0, 0.0)], frequencies=(10.0,))
    direct = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values[0, :, 0]
    np.testing.assert_array_equal(series.values, direct)


def test_a_one_bin_model_serves_its_one_frequency():
    raw = synth_test_set(SynthSpec(mode="lowpass", length=16))  # bins every 3 kHz
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 1, (5000.0, 7000.0))
    assert model.frequency_limits == (6000.0, 6000.0)
    series = model.spectrum_series((30.0, 0.0))
    np.testing.assert_array_equal(series.frequencies, [6000.0])
    request = CoordinateSet(directions=[(30.0, 0.0)], frequencies=(6000.0,))
    direct = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values[0, :, 0]
    np.testing.assert_array_equal(series.values, direct)


def test_limits_a_few_ulps_apart_serve_each_distinct_point_once():
    # 512 log-spaced points between limits 2 ulps apart repeat values.
    limits = (1000.0, 1000.0000000000002)
    model = BasisSpectrumModel("m", "fourier", np.ones((1, 1)), limits, [(0.0, 0.0)])
    series = model.spectrum_series((0.0, 0.0))
    assert series.frequencies[0] == limits[0] and series.frequencies[-1] == limits[1]
    assert np.all(np.diff(series.frequencies) > 0) and len(series.frequencies) <= 3
    request = CoordinateSet(directions=[(0.0, 0.0)], frequencies=series.frequencies)
    direct = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values[0, :, 0]
    np.testing.assert_array_equal(series.values, direct)


def test_series_on_analytic_double_matches_closed_form():
    lobe = AnalyticLobe()
    series = lobe.spectrum_series((0.0, 10.0))
    np.testing.assert_allclose(
        series.values, 10.0 + np.log10(series.frequencies), atol=1e-12
    )


def test_series_rejects_time_domain_datatype():
    raw = synth_test_set(SynthSpec(length=64))
    with pytest.raises(ValueError):
        raw.spectrum_series((0.0, 0.0), datatype=DataType.IMPULSE_RESPONSES)


# --------------------------------------------------------------------------
# balloon_grid
# --------------------------------------------------------------------------

def test_discrete_balloon_reports_every_stored_direction():
    raw = synth_test_set(SynthSpec(length=64))
    grid = raw.balloon_grid(1000.0)
    assert grid.directions == raw.coords.directions
    assert grid.values.shape == (72,)
    assert grid.coords.frequencies == (750.0,)  # nearest stored bin to 1 kHz


def test_balloon_values_match_matrix_read():
    raw = synth_test_set(SynthSpec(mode="lowpass", length=64))
    grid = raw.balloon_grid(5000.0)
    request = CoordinateSet(
        directions=raw.coords.directions, frequencies=(5000.0,)
    )
    direct = raw.get_data_matrix(request, DataType.LOG_MAGNITUDE).values[:, 0, 0]
    np.testing.assert_array_equal(grid.values, direct)


def test_continuous_balloon_samples_five_degree_grid_inside_limits():
    lobe = AnalyticLobe(elevation_limits=(-30.0, 90.0))
    grid = lobe.balloon_grid(1000.0)
    elevations = sorted({d.elevation for d in grid.directions})
    azimuths = sorted({d.azimuth for d in grid.directions})
    assert elevations == [(-30.0 + 5.0 * i) for i in range(25)]
    assert azimuths == [5.0 * i for i in range(72)]
    assert len(grid.directions) == 25 * 72
    expected = np.array([d.elevation + 3.0 for d in grid.directions])
    np.testing.assert_allclose(grid.values, expected, atol=1e-12)


def test_balloon_rejects_time_domain_datatype():
    raw = synth_test_set(SynthSpec(length=64))
    with pytest.raises(ValueError):
        raw.balloon_grid(1000.0, datatype=DataType.IMPULSE_RESPONSES)


@pytest.mark.parametrize(
    "frequency, distance",
    [
        (float("nan"), 1.0), (float("inf"), 1.0), (-float("inf"), 1.0), (-1.0, 1.0),
        (-5e-324, 1.0), (1000.0, 0.0), (1000.0, -0.0), (1000.0, -2.0),
        (1000.0, float("nan")), (1000.0, float("inf")), (-1.0, 0.0),
        (float("nan"), float("nan")), ("1e3x", 1.0), (1000.0, None),
    ],
)
def test_balloon_rejects_a_bad_point_as_a_coordinate_set_does(frequency, distance):
    # The point is checked as scalars; the errors are those of a one-value
    # coordinate set, frequency first.
    raw = synth_test_set(SynthSpec(length=64))
    with pytest.raises((TypeError, ValueError)) as expected:
        CoordinateSet(frequencies=(float(frequency),), distances=(float(distance),))
    with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
        raw.balloon_grid(frequency, distance)


def test_balloon_accepts_the_edges_of_the_point():
    raw = synth_test_set(SynthSpec(length=64))
    for frequency in (0.0, -0.0, 1e300):
        assert raw.balloon_grid(frequency, 5e-324).coords.distances == (1.0,)
