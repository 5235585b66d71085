"""Raw impulse-response representation: spectra, datatypes, reads."""

import gc
import pickle
import re
import weakref

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from dirkit import (
    Continuity,
    CoordinateSet,
    DataType,
    DirectivityDiff,
    RawIRs,
    SynthSpec,
    fit_basis_model,
    read_dird,
    synth_test_set,
    write_dird,
)
from dirkit import rawirs
from dirkit.core import magnitude_as

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


def _read_only(array):
    array.setflags(write=False)
    return array


def _not_handed_over(name):
    """Inputs that RawIRs copies, each failing one part of the hand-over rule."""
    base = np.random.default_rng(SEED).standard_normal((4, 8, 2))
    if name == "writeable":
        return base
    if name == "float32":
        return _read_only(base.astype(np.float32))
    if name == "slice view":
        return _read_only(base.copy())[:3]
    if name == "read-only view of a writeable base":
        return _read_only(base.view())
    raise AssertionError(name)


@pytest.mark.parametrize("name", [
    "writeable", "float32", "slice view", "read-only view of a writeable base",
])
def test_inputs_that_are_not_handed_over_are_copied(name):
    source = _not_handed_over(name)
    directions = [(90.0 * i, 0.0) for i in range(len(source))]
    raw = RawIRs("", source, 100.0, directions, (1.0, 2.0))
    assert not np.shares_memory(raw.irs, source)
    assert raw.irs.dtype == np.float64 and not raw.irs.flags.writeable
    assert np.array_equal(raw.irs, source.astype(np.float64))


@pytest.mark.parametrize("shape", [(3, 8, 2), (3, 8)], ids=["3-D", "2-D"])
def test_a_read_only_float64_array_that_owns_its_memory_is_kept(shape):
    source = _read_only(np.random.default_rng(SEED).standard_normal(shape))
    distances = (1.0, 2.0) if len(shape) == 3 else ()
    raw = RawIRs("", source, 100.0, [(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)], distances)
    assert np.shares_memory(raw.irs, source)
    assert raw.irs is source or raw.irs.base is source
    assert not raw.irs.flags.writeable


@pytest.mark.parametrize("producer", ["synth_test_set", "read_dird"])
def test_producers_hand_over_arrays_no_caller_holds(producer, monkeypatch, tmp_path):
    handed_over, verdicts = rawirs._handed_over, []

    def spy(irs):
        verdicts.append(handed_over(irs))
        return verdicts[-1]

    spec = SynthSpec(mode="lowpass", azimuth_step=30.0, elevation_step=30.0, length=16)
    if producer == "read_dird":
        write_dird(synth_test_set(spec), tmp_path / "set.dird")
    monkeypatch.setattr(rawirs, "_handed_over", spy)
    raw = synth_test_set(spec) if producer == "synth_test_set" else read_dird(tmp_path / "set.dird")
    assert verdicts == [True]
    # The set holds the only reference: the array dies with it.
    kept = weakref.ref(raw.irs)
    del raw
    gc.collect()
    assert kept() is None


def test_a_set_stays_read_only_across_a_pickle_round_trip():
    raw = pickle.loads(pickle.dumps(make_raw(np.random.default_rng(SEED))))
    assert not raw.irs.flags.writeable


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


# --------------------------------------------------------------------------
# whole-set magnitudes: exact, isolated and built only when read
# --------------------------------------------------------------------------

def _expected_read(raw, volume, datatype):
    """The read recomputed from the stored responses: rfft, then the
    datatype's conversion, then the gather at the read's coordinates."""
    directions = list(raw.coords.directions)
    d_idx = [directions.index(d) for d in volume.coords.directions]
    r_idx = [raw.coords.distances.index(r) for r in volume.coords.distances]
    if datatype is DataType.IMPULSE_RESPONSES:
        return raw.irs[np.ix_(d_idx, np.arange(raw.ir_length), r_idx)]
    f_idx = [raw.coords.frequencies.index(f) for f in volume.coords.frequencies]
    spectra = np.fft.rfft(raw.irs, axis=1)
    if datatype is not DataType.COMPLEX_SPECTRUM:
        spectra = magnitude_as(datatype, np.abs(spectra))
    return spectra[np.ix_(d_idx, f_idx, r_idx)]


def _exactness_set():
    rng = np.random.default_rng(SEED + 20)
    irs = rng.standard_normal((6, 32, 2))
    irs[2] = 0.0  # a silent response: its log read sits on the floor
    directions = [(30.0 * i, 10.0 * i - 25.0) for i in range(6)]
    return RawIRs("exact", irs, 8000.0, directions, (1.0, 2.0))


EXACTNESS_REQUESTS = {
    "on-grid": None,
    "off-grid": CoordinateSet(
        directions=[(151.0, 24.0), (29.0, -26.0), (61.0, -4.0), (150.0, 25.0)],
        frequencies=(100.0, 1320.0, 2600.0, 3999.0),
        distances=(1.3, 2.6),
    ),
    "single-direction": CoordinateSet(
        directions=[(90.0, 5.0)], frequencies=(750.0,), distances=(2.0,)
    ),
}


@pytest.mark.parametrize("name", sorted(EXACTNESS_REQUESTS))
@pytest.mark.parametrize("datatype", list(DataType), ids=lambda t: t.value)
def test_reads_equal_converting_the_gathered_spectra_exactly(datatype, name):
    raw = _exactness_set()
    request = EXACTNESS_REQUESTS[name] or raw.coords
    for _ in ("first read", "warm read"):
        volume = raw.get_data_matrix(request, datatype)
        assert np.array_equal(volume.values, _expected_read(raw, volume, datatype))


@pytest.mark.parametrize("datatype", list(DataType), ids=lambda t: t.value)
def test_writing_into_a_read_does_not_change_later_reads(datatype):
    raw = _exactness_set()
    first = raw.get_data_matrix(raw.coords, datatype)
    kept = first.values.copy()
    first.values[...] = 7.0
    again = raw.get_data_matrix(raw.coords, datatype)
    assert np.array_equal(again.values, kept)


def test_response_only_use_never_computes_spectra(monkeypatch, tmp_path):
    raw = _exactness_set()

    def refuse(*args, **kwargs):
        raise AssertionError("spectra computed for a response-only use")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    volume = raw.get_data_matrix(raw.coords, DataType.IMPULSE_RESPONSES)
    assert np.array_equal(volume.values, raw.irs)
    write_dird(raw, tmp_path / "set.dird")
    assert np.array_equal(read_dird(tmp_path / "set.dird").irs, raw.irs)
    with pytest.raises(AssertionError, match="response-only"):
        raw.get_data_matrix(raw.coords, DataType.LOG_MAGNITUDE)


_CACHE_SET_DIRECTIONS = [(az, el) for el in (-30.0, 0.0, 30.0, 90.0)
                         for az in (0.0, 90.0, 180.0, 270.0)]

CACHE_REQUESTS = {
    "whole-set": None,
    "off-grid": CoordinateSet(
        directions=[(151.0, 24.0), (29.0, -26.0), (45.0, 89.0), (181.0, 1.0)],
        frequencies=(100.0, 1320.0, 2600.0, 3999.0),
        distances=(1.3, 2.6),
    ),
    "one-direction": CoordinateSet(
        directions=[(300.0, 88.0)], frequencies=(750.0,), distances=(2.0,)
    ),
}

_CACHE_STEPS = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(list(DataType)),
              st.sampled_from(sorted(CACHE_REQUESTS))),
    st.tuples(st.just("write result"), st.integers(0, 20)),
    st.just(("write input",)),
    st.just(("pickle",)),
)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(_CACHE_STEPS, min_size=1, max_size=14))
def test_no_order_of_reads_writes_and_pickles_changes_an_answer(steps):
    # 16 directions with four pole copies, a silent response, two distances.
    irs = np.random.default_rng(SEED + 30).standard_normal((16, 16, 2))
    irs[5] = 0.0
    source = irs.copy()
    raw = RawIRs("caches", source, 8000.0, _CACHE_SET_DIRECTIONS, (1.0, 2.0))
    results, intact, complex_read = [], [], False
    for step in steps:
        if step[0] == "read":
            _, datatype, name = step
            volume = raw.get_data_matrix(CACHE_REQUESTS[name] or raw.coords, datatype)
            results.append(volume)
            intact.append((volume, volume.values.copy()))
            assert np.array_equal(volume.values, _expected_read(raw, volume, datatype))
            complex_read |= datatype is DataType.COMPLEX_SPECTRUM
        elif step[0] == "write result" and results:
            written = results[step[1] % len(results)]
            written.values[...] = 7.0
            intact = [(v, kept) for v, kept in intact if v is not written]
        elif step[0] == "write input":
            source[...] = 7.0
        elif step[0] == "pickle":
            raw = pickle.loads(pickle.dumps(raw))

        assert np.array_equal(raw.irs, irs) and not raw.irs.flags.writeable
        for volume, kept in intact:
            assert np.array_equal(volume.values, kept)
        stored = list(raw._store.values())
        for i, volume in enumerate(results):
            others = stored + [v.values for v in results[:i]]
            assert not any(np.shares_memory(volume.values, other) for other in others)
        assert (DataType.COMPLEX_SPECTRUM in raw._store) == complex_read


def _two_distance_grid_set():
    spec = SynthSpec(mode="lowpass", azimuth_step=5.0, elevation_step=5.0,
                     elevation_limits=(-40.0, 90.0), length=256)
    near = synth_test_set(spec)
    raw = RawIRs("two distances", np.concatenate([near.irs, 0.5 * near.irs], axis=2),
                 near.sample_rate, near.coords.directions, (1.0, 2.0))
    assert raw.irs.shape == (1944, 256, 2)
    return raw


def _warm_peak(call):
    """The result and peak traced allocation of a second call."""
    call()
    return traced_peak(call)


def _peak_over_output(read):
    """Peak traced allocation of a warm read, as a multiple of its output."""
    volume, peak = _warm_peak(read)
    return peak / volume.values.nbytes


def test_warm_whole_set_log_read_allocates_little_beyond_its_output():
    raw = _two_distance_grid_set()
    assert _peak_over_output(
        lambda: raw.get_data_matrix(raw.coords, DataType.LOG_MAGNITUDE)
    ) < 1.5


def test_warm_whole_set_response_read_allocates_little_beyond_its_output():
    raw = _two_distance_grid_set()
    assert _peak_over_output(
        lambda: raw.get_data_matrix(raw.coords, DataType.IMPULSE_RESPONSES)
    ) < 1.5


def test_warm_whole_set_diff_read_allocates_little_beyond_its_output():
    raw = _two_distance_grid_set()
    diff = DirectivityDiff("", raw, raw)
    assert _peak_over_output(
        lambda: diff.get_data_matrix(diff.coords, DataType.LOG_MAGNITUDE)
    ) < 1.5


def _model_and_grid():
    """An order-8 model of the two-distance set and the bins it shares
    with the set (all but DC): 1944 x 128 x 2 volumes."""
    raw = _two_distance_grid_set()
    grid = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=raw.coords.frequencies[1:],
        distances=raw.coords.distances,
    )
    return raw, fit_basis_model("", raw, "fourier", 8), grid


@pytest.mark.parametrize("datatype", [DataType.LINEAR_MAGNITUDE, DataType.POWER_SPECTRUM],
                         ids=lambda t: t.value)
def test_warm_whole_set_model_read_allocates_little_beyond_its_output(datatype):
    _, model, grid = _model_and_grid()
    assert _peak_over_output(lambda: model.get_data_matrix(grid, datatype)) < 1.5


@pytest.mark.parametrize("datatype", [DataType.LINEAR_MAGNITUDE, DataType.LOG_MAGNITUDE],
                         ids=lambda t: t.value)
def test_diff_construction_allocates_little_beyond_the_two_volumes_it_keeps(datatype):
    raw, model, grid = _model_and_grid()
    diff, peak = _warm_peak(lambda: DirectivityDiff("", raw, model, grid, datatype))
    assert diff.differences.shape == (1944, 128, 2)
    assert peak / diff.differences.nbytes < 2.5
