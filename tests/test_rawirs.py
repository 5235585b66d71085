"""Raw impulse-response representation: spectra, datatypes, reads."""

import re

import numpy as np
import pytest

from dirkit import Continuity, CoordinateSet, DataType, RawIRs, read_dird, write_dird

SEED = 20240813


def dft_oneside(ir):
    """Explicit O(L^2) one-sided DFT used as the oracle for rfft-based code."""
    length = len(ir)
    n = np.arange(length)
    return np.array(
        [np.sum(ir * np.exp(-2j * np.pi * k * n / length)) for k in range(length // 2 + 1)]
    )


def dft_full(ir):
    length = len(ir)
    n = np.arange(length)
    return np.array(
        [np.sum(ir * np.exp(-2j * np.pi * k * n / length)) for k in range(length)]
    )


def make_raw(rng, n_dirs=4, length=16, n_dists=1, fs=8000.0):
    irs = rng.standard_normal((n_dirs, length, n_dists))
    if n_dists == 1:
        irs = irs[:, :, 0]
    directions = [(90.0 * i, 10.0 * i - 15.0) for i in range(n_dirs)]
    distances = tuple(1.0 + 0.5 * i for i in range(n_dists)) if n_dists > 1 else ()
    return RawIRs(
        info="test set", irs=irs, sample_rate=fs, directions=directions, distances=distances
    )


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_frequency_bins_are_dft_bins():
    raw = RawIRs(
        info="",
        irs=np.zeros((1, 8)),
        sample_rate=8000.0,
        directions=[(0, 0)],
    )
    assert raw.coords.frequencies == (0.0, 1000.0, 2000.0, 3000.0, 4000.0)
    assert raw.coords.continuity == Continuity(False, False, False)
    assert raw.ir_length == 8
    assert raw.sample_rate == 8000.0


def test_two_dim_input_means_single_distance():
    raw = RawIRs(info="", irs=np.ones((2, 4)), sample_rate=100.0, directions=[(0, 0), (90, 0)])
    assert raw.coords.distances == (1.0,)
    assert raw.coords.shape == (2, 3, 1)


@pytest.mark.parametrize(
    "irs,directions,fs",
    [
        (np.ones((2, 4)), [(0, 0)], 100.0),          # direction count mismatch
        (np.ones((1, 1)), [(0, 0)], 100.0),          # too short
        (np.ones((1, 4)), [(0, 0)], 0.0),            # bad rate
        (np.full((1, 4), np.nan), [(0, 0)], 100.0),  # non-finite samples
    ],
)
def test_invalid_construction_rejected(irs, directions, fs):
    with pytest.raises(ValueError):
        RawIRs(info="", irs=irs, sample_rate=fs, directions=directions)


@pytest.mark.parametrize("fs", [5e-324, 1e-320])
def test_sample_rate_too_small_for_the_length_rejected(fs):
    # 5e-324 / 4 rounds to 0, so every bin is 0 Hz; 3 / 1e-320 overflows,
    # so the last sample time would be infinite.
    message = re.escape(f"sample rate {fs} Hz") + ".* 4 samples"
    with pytest.raises(ValueError, match=message):
        RawIRs("", np.zeros((1, 4)), fs, [(0, 0)])


def test_distance_count_must_match_last_axis():
    with pytest.raises(ValueError):
        RawIRs(
            info="",
            irs=np.ones((1, 4, 2)),
            sample_rate=100.0,
            directions=[(0, 0)],
            distances=(1.0,),
        )


def test_stored_samples_are_isolated_from_the_input_array():
    source = np.ones((1, 4))
    raw = RawIRs(info="", irs=source, sample_rate=100.0, directions=[(0, 0)])
    source[0, 0] = 99.0
    assert raw.irs[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        raw.irs[0, 0, 0] = 5.0  # read-only storage


# --------------------------------------------------------------------------
# spectra against the explicit-summation oracle
# --------------------------------------------------------------------------

def test_complex_spectrum_matches_explicit_summation():
    rng = np.random.default_rng(SEED)
    raw = make_raw(rng, n_dirs=3, length=16, n_dists=2)
    volume = raw.get_data_matrix(raw.coords, DataType.COMPLEX_SPECTRUM)
    for d in range(3):
        for r in range(2):
            expected = dft_oneside(raw.irs[d, :, r])
            np.testing.assert_allclose(volume.values[d, :, r], expected, atol=1e-9)


def test_one_sided_spectrum_consistent_with_full_dft():
    rng = np.random.default_rng(SEED + 1)
    ir = rng.standard_normal(12)
    raw = RawIRs(info="", irs=ir[None, :], sample_rate=1200.0, directions=[(0, 0)])
    one_sided = raw.get_data_matrix(raw.coords, DataType.COMPLEX_SPECTRUM).values[0, :, 0]
    full = dft_full(ir)
    np.testing.assert_allclose(one_sided, full[: len(one_sided)], atol=1e-9)
    # conjugate symmetry of the full spectrum for real input
    np.testing.assert_allclose(full[1:], np.conj(full[1:][::-1]), atol=1e-9)


def test_parseval_energy_balance():
    rng = np.random.default_rng(SEED + 2)
    ir = rng.standard_normal(64)
    raw = RawIRs(info="", irs=ir[None, :], sample_rate=48000.0, directions=[(0, 0)])
    spectrum = raw.get_data_matrix(raw.coords, DataType.COMPLEX_SPECTRUM).values[0, :, 0]
    # rebuild the full spectrum from the one-sided half (L even)
    full = np.concatenate([spectrum, np.conj(spectrum[-2:0:-1])])
    assert len(full) == 64
    time_energy = np.sum(ir**2)
    freq_energy = np.sum(np.abs(full) ** 2) / 64
    assert freq_energy == pytest.approx(time_energy, rel=1e-9)


def test_unit_impulse_is_flat_zero_db():
    ir = np.zeros(32)
    ir[0] = 1.0
    raw = RawIRs(info="", irs=ir[None, :], sample_rate=32000.0, directions=[(0, 0)])
    log_values = raw.get_data_matrix(raw.coords, DataType.LOG_MAGNITUDE).values
    np.testing.assert_allclose(log_values, 0.0, atol=1e-12)


def test_doubled_impulse_is_six_db():
    ir = np.zeros(32)
    ir[0] = 2.0
    raw = RawIRs(info="", irs=ir[None, :], sample_rate=32000.0, directions=[(0, 0)])
    log_values = raw.get_data_matrix(raw.coords, DataType.LOG_MAGNITUDE).values
    np.testing.assert_allclose(log_values, 20 * np.log10(2.0), atol=1e-12)


def test_two_sample_ir_closed_form():
    raw = RawIRs(
        info="", irs=np.array([[1.0, -1.0]]), sample_rate=2.0, directions=[(0, 0)]
    )
    assert raw.coords.frequencies == (0.0, 1.0)
    lin = raw.get_data_matrix(raw.coords, DataType.LINEAR_MAGNITUDE).values[0, :, 0]
    np.testing.assert_allclose(lin, [0.0, 2.0], atol=1e-15)


# --------------------------------------------------------------------------
# datatype algebra
# --------------------------------------------------------------------------

def test_power_is_square_of_linear():
    rng = np.random.default_rng(SEED + 3)
    raw = make_raw(rng)
    lin = raw.get_data_matrix(raw.coords, DataType.LINEAR_MAGNITUDE).values
    power = raw.get_data_matrix(raw.coords, DataType.POWER_SPECTRUM).values
    np.testing.assert_allclose(power, lin**2, rtol=1e-12)


def test_log_is_twenty_log10_of_linear():
    rng = np.random.default_rng(SEED + 4)
    raw = make_raw(rng)
    lin = raw.get_data_matrix(raw.coords, DataType.LINEAR_MAGNITUDE).values
    log_values = raw.get_data_matrix(raw.coords, DataType.LOG_MAGNITUDE).values
    assert np.all(lin > 0)  # gaussian IRs: zero magnitude has probability zero
    np.testing.assert_allclose(log_values, 20 * np.log10(lin), atol=1e-9)


def test_linear_is_abs_of_complex():
    rng = np.random.default_rng(SEED + 5)
    raw = make_raw(rng)
    lin = raw.get_data_matrix(raw.coords, DataType.LINEAR_MAGNITUDE).values
    cplx = raw.get_data_matrix(raw.coords, DataType.COMPLEX_SPECTRUM).values
    np.testing.assert_allclose(lin, np.abs(cplx), rtol=1e-12)


def test_silent_ir_hits_log_floor():
    raw = RawIRs(
        info="", irs=np.zeros((1, 8)), sample_rate=8000.0, directions=[(0, 0)]
    )
    log_values = raw.get_data_matrix(raw.coords, DataType.LOG_MAGNITUDE).values
    np.testing.assert_array_equal(log_values, -300.0)


def test_all_datatypes_supported():
    raw = RawIRs(info="", irs=np.ones((1, 4)), sample_rate=100.0, directions=[(0, 0)])
    assert raw.supported_datatypes == frozenset(DataType)


# --------------------------------------------------------------------------
# reads
# --------------------------------------------------------------------------

def test_ir_read_returns_stored_samples_and_times():
    rng = np.random.default_rng(SEED + 6)
    raw = make_raw(rng, n_dirs=2, length=8, n_dists=2, fs=1000.0)
    request = CoordinateSet(
        directions=[raw.coords.directions[1]],
        frequencies=raw.coords.frequencies,
        distances=(raw.coords.distances[0],),
    )
    volume = raw.get_data_matrix(request, DataType.IMPULSE_RESPONSES)
    assert volume.datatype is DataType.IMPULSE_RESPONSES
    np.testing.assert_array_equal(volume.values[0, :, 0], raw.irs[1, :, 0])
    # time axis replaces frequency bins for impulse-response reads
    np.testing.assert_allclose(
        volume.coords.frequencies, np.arange(8) / 1000.0, atol=1e-15
    )


def test_ir_read_is_full_length_even_for_partial_frequency_request():
    rng = np.random.default_rng(SEED + 7)
    raw = make_raw(rng, n_dirs=1, length=8)
    request = CoordinateSet(
        directions=raw.coords.directions, frequencies=(raw.coords.frequencies[2],)
    )
    volume = raw.get_data_matrix(request, DataType.IMPULSE_RESPONSES)
    assert volume.values.shape == (1, 8, 1)


def test_spectral_read_selects_requested_bins():
    rng = np.random.default_rng(SEED + 8)
    raw = make_raw(rng, n_dirs=3, length=16, n_dists=2)
    request = CoordinateSet(
        directions=[raw.coords.directions[2], raw.coords.directions[0]],
        frequencies=(raw.coords.frequencies[1], raw.coords.frequencies[5]),
        distances=(raw.coords.distances[1],),
    )
    volume = raw.get_data_matrix(request, DataType.COMPLEX_SPECTRUM)
    assert volume.values.shape == (2, 2, 1)
    full = raw.get_data_matrix(raw.coords, DataType.COMPLEX_SPECTRUM).values
    np.testing.assert_array_equal(volume.values[0, 0, 0], full[2, 1, 1])
    np.testing.assert_array_equal(volume.values[1, 1, 0], full[0, 5, 1])
    assert volume.coords.directions == (
        raw.coords.directions[2],
        raw.coords.directions[0],
    )


def test_read_coerces_to_nearest_stored_coordinates():
    rng = np.random.default_rng(SEED + 9)
    raw = RawIRs(
        info="",
        irs=rng.standard_normal((2, 8)),
        sample_rate=8000.0,
        directions=[(0.0, 0.0), (180.0, 0.0)],
    )
    request = CoordinateSet(directions=[(10.0, 5.0)], frequencies=(1100.0,))
    volume = raw.get_data_matrix(request, DataType.LINEAR_MAGNITUDE)
    assert volume.coords.directions == (raw.coords.directions[0],)
    assert volume.coords.frequencies == (1000.0,)
    full = raw.get_data_matrix(raw.coords, DataType.LINEAR_MAGNITUDE).values
    np.testing.assert_array_equal(volume.values[0, 0, 0], full[0, 1, 0])


def test_continuous_request_rejected():
    raw = RawIRs(info="", irs=np.ones((1, 8)), sample_rate=8000.0, directions=[(0, 0)])
    request = CoordinateSet(
        directions=[(0, 0)],
        frequencies=(0.0, 4000.0),
        continuity=Continuity(frequency=True),
    )
    with pytest.raises(ValueError):
        raw.get_data_matrix(request, DataType.LINEAR_MAGNITUDE)


@pytest.mark.filterwarnings("error")
def test_overflowing_spectra_reject_only_spectral_reads(tmp_path):
    # Finite samples whose DFT overflows float64: responses stay readable
    # and storable, spectra are refused instead of served as inf/nan.
    raw = RawIRs("loud", np.full((2, 4), 1e308), 8000.0, [(0, 0), (90, 0)])
    request = CoordinateSet(directions=[(0, 0)], frequencies=(0.0, 2000.0, 4000.0))
    volume = raw.get_data_matrix(request, DataType.IMPULSE_RESPONSES)
    np.testing.assert_array_equal(volume.values, np.full((1, 4, 1), 1e308))
    write_dird(raw, tmp_path / "loud.dird")
    back = read_dird(tmp_path / "loud.dird")
    np.testing.assert_array_equal(back.irs, raw.irs)
    for datatype in (DataType.LOG_MAGNITUDE, DataType.COMPLEX_SPECTRUM):
        with pytest.raises(ValueError, match="spectra overflow float64"):
            raw.get_data_matrix(request, datatype)


def test_vector_read_is_direction_fastest_flatten():
    rng = np.random.default_rng(SEED + 10)
    raw = make_raw(rng, n_dirs=3, length=8, n_dists=2)
    volume = raw.get_data_matrix(raw.coords, DataType.LINEAR_MAGNITUDE)
    vector, actual = raw.get_data_vector(raw.coords, DataType.LINEAR_MAGNITUDE)
    assert actual.shape == volume.values.shape
    d, f, r = volume.values.shape
    assert vector.shape == (d * f * r,)
    for ri in range(r):
        for fi in range(f):
            for di in range(d):
                flat_index = di + fi * d + ri * d * f
                assert vector[flat_index] == volume.values[di, fi, ri]


def test_info_and_coords_are_read_only():
    raw = RawIRs(info="abc", irs=np.ones((1, 4)), sample_rate=10.0, directions=[(0, 0)])
    assert raw.info == "abc"
    with pytest.raises(AttributeError):
        raw.info = "xyz"
    with pytest.raises(AttributeError):
        raw.coords = raw.coords
