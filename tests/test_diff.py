"""Diffs and error measures against hand-computed closed forms."""

import warnings

import numpy as np
import pytest
from conftest import traced_peak

import dirkit.diff
from dirkit import (
    BasisFamily,
    CoordinateMismatchError,
    CoordinateMismatchWarning,
    CoordinateSet,
    DataType,
    DataVolume,
    Direction,
    Directivity,
    DirectivityDiff,
    RawIRs,
    UnsupportedDatatypeError,
    fit_basis_model,
)

SEED = 20240815


def impulse_set(gains, directions, length=16, fs=16000.0, distances=()):
    """RawIRs with h = (g, 0, ...): |H| == g at every bin."""
    gains = np.asarray(gains, dtype=np.float64)
    if gains.ndim == 1:
        gains = gains[:, None]
    irs = np.zeros((gains.shape[0], length, gains.shape[1]))
    irs[:, 0, :] = gains
    return RawIRs(
        info="", irs=irs, sample_rate=fs, directions=directions, distances=distances
    )


def random_set(rng, directions, length=16, fs=16000.0):
    irs = rng.standard_normal((len(directions), length))
    return RawIRs(info="", irs=irs, sample_rate=fs, directions=directions)


RING4 = [(0.0, 0.0), (90.0, 0.0), (180.0, 0.0), (270.0, 0.0)]


# --------------------------------------------------------------------------
# construction and stored values
# --------------------------------------------------------------------------

def test_self_diff_is_zero():
    rng = np.random.default_rng(SEED)
    raw = random_set(rng, RING4)
    diff = DirectivityDiff("", raw, raw)
    np.testing.assert_array_equal(diff.differences, 0.0)
    assert diff.compute_sd() == 0.0
    assert not diff.coordinate_warning


def test_info_is_auto_generated_with_datatype_suffix():
    a = impulse_set([1.0], [(0, 0)])
    ref = RawIRs(info="left ear", irs=a.irs, sample_rate=16000.0, directions=[(0, 0)])
    eva = RawIRs(info="model", irs=a.irs, sample_rate=16000.0, directions=[(0, 0)])
    diff = DirectivityDiff("", ref, eva)
    assert diff.info == "diff of model vs left ear (log)"
    assert diff.datatype is DataType.LOG_MAGNITUDE
    named = DirectivityDiff("run 7", ref, eva, datatype=DataType.LINEAR_MAGNITUDE)
    assert named.info == "run 7 (lin)"
    assert named.datatype is DataType.LINEAR_MAGNITUDE


def test_defaults_to_reference_coordinates():
    rng = np.random.default_rng(SEED + 1)
    ref = random_set(rng, RING4)
    eva = random_set(rng, RING4)
    diff = DirectivityDiff("", ref, eva)
    assert diff.coords.directions == ref.coords.directions
    assert diff.coords.frequencies == ref.coords.frequencies


def test_differences_are_evaluand_minus_reference():
    ref = impulse_set([1.0], [(0, 0)])
    eva = impulse_set([2.0], [(0, 0)])
    diff = DirectivityDiff("", ref, eva)
    np.testing.assert_allclose(diff.differences, 20 * np.log10(2.0), atol=1e-12)
    np.testing.assert_allclose(diff.reference_values, 0.0, atol=1e-12)


def test_unsupported_datatype_for_either_side_rejected():
    rng = np.random.default_rng(SEED + 2)
    raw = random_set(rng, RING4)
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 2)
    with pytest.raises(UnsupportedDatatypeError):
        DirectivityDiff("", raw, model, datatype=DataType.COMPLEX_SPECTRUM)
    with pytest.raises(ValueError):
        DirectivityDiff("", raw, raw, datatype=DataType.POWER_SPECTRUM)


# --------------------------------------------------------------------------
# SD closed forms
# --------------------------------------------------------------------------

def test_sd_of_alternating_three_db_offsets_is_three():
    step = 10.0 ** (3.0 / 20.0)
    ref = impulse_set([1.0, 1.0, 1.0, 1.0], RING4)
    eva = impulse_set([step, 1 / step, step, 1 / step], RING4)
    diff = DirectivityDiff("", ref, eva)
    assert diff.compute_sd() == pytest.approx(3.0, abs=1e-12)


def test_sd_of_uniform_doubling_is_six_db():
    rng = np.random.default_rng(SEED + 3)
    ref = random_set(rng, RING4)
    eva = RawIRs(
        info="", irs=2.0 * ref.irs, sample_rate=16000.0, directions=RING4
    )
    diff = DirectivityDiff("", ref, eva)
    assert diff.compute_sd() == pytest.approx(20 * np.log10(2.0), abs=1e-9)


def test_sd_invariant_under_common_gain():
    rng = np.random.default_rng(SEED + 4)
    ref = random_set(rng, RING4)
    eva = random_set(rng, RING4)
    base = DirectivityDiff("", ref, eva).compute_sd()
    scaled = DirectivityDiff(
        "",
        RawIRs(info="", irs=3.7 * ref.irs, sample_rate=16000.0, directions=RING4),
        RawIRs(info="", irs=3.7 * eva.irs, sample_rate=16000.0, directions=RING4),
    ).compute_sd()
    assert scaled == pytest.approx(base, abs=1e-9)


def test_sd_over_selection_matches_manual_restriction():
    rng = np.random.default_rng(SEED + 5)
    ref = random_set(rng, RING4)
    eva = random_set(rng, RING4)
    diff = DirectivityDiff("", ref, eva)
    over = CoordinateSet(
        directions=[RING4[1], RING4[3]],
        frequencies=(diff.coords.frequencies[2], diff.coords.frequencies[4]),
    )
    got = diff.compute_sd(over)
    delta = diff.differences[np.ix_([1, 3], [2, 4], [0])]
    assert got == pytest.approx(float(np.sqrt(np.mean(delta**2))), abs=1e-12)


@pytest.mark.parametrize("measure, datatype", [
    ("sd", DataType.LOG_MAGNITUDE), ("mse", DataType.LINEAR_MAGNITUDE),
])
@pytest.mark.parametrize("over", [
    CoordinateSet(directions=[(0.0, 0.0)], frequencies=()),
    CoordinateSet(directions=[], frequencies=(1000.0,)),
], ids=["no frequencies", "no directions"])
def test_an_empty_selection_is_rejected(measure, datatype, over):
    rng = np.random.default_rng(SEED + 40)
    diff = DirectivityDiff("", random_set(rng, RING4), random_set(rng, RING4), datatype=datatype)
    with pytest.raises(ValueError, match="^empty selection$"):
        getattr(diff, f"compute_{measure}")(over)


# --------------------------------------------------------------------------
# MSE closed forms
# --------------------------------------------------------------------------

def test_mse_of_two_bin_example_is_eight_fifths():
    # reference spectrum (1, 2), evaluand spectrum (3, 0):
    # MSE = (|3-1|^2 + |0-2|^2) / (1^2 + 2^2) = 8/5
    ref = RawIRs(
        info="", irs=np.array([[1.5, -0.5]]), sample_rate=2.0, directions=[(0, 0)]
    )
    eva = RawIRs(
        info="", irs=np.array([[1.5, 1.5]]), sample_rate=2.0, directions=[(0, 0)]
    )
    diff = DirectivityDiff("", ref, eva, datatype=DataType.LINEAR_MAGNITUDE)
    assert diff.compute_mse() == pytest.approx(1.6, abs=1e-12)


def test_mse_of_uniform_doubling_is_one():
    rng = np.random.default_rng(SEED + 6)
    ref = random_set(rng, RING4)
    eva = RawIRs(info="", irs=2.0 * ref.irs, sample_rate=16000.0, directions=RING4)
    diff = DirectivityDiff("", ref, eva, datatype=DataType.LINEAR_MAGNITUDE)
    assert diff.compute_mse() == pytest.approx(1.0, abs=1e-12)


def test_mse_invariant_under_common_gain():
    rng = np.random.default_rng(SEED + 7)
    ref = random_set(rng, RING4)
    eva = random_set(rng, RING4)
    base = DirectivityDiff(
        "", ref, eva, datatype=DataType.LINEAR_MAGNITUDE
    ).compute_mse()
    scaled = DirectivityDiff(
        "",
        RawIRs(info="", irs=0.25 * ref.irs, sample_rate=16000.0, directions=RING4),
        RawIRs(info="", irs=0.25 * eva.irs, sample_rate=16000.0, directions=RING4),
        datatype=DataType.LINEAR_MAGNITUDE,
    ).compute_mse()
    assert scaled == pytest.approx(base, rel=1e-9)


def test_complex_mse_sees_phase_errors_linear_mse_does_not():
    rng = np.random.default_rng(SEED + 8)
    ref = random_set(rng, [(0, 0)], length=16)
    shifted = np.roll(ref.irs, 1, axis=1)  # pure delay: same magnitudes
    eva = RawIRs(info="", irs=shifted, sample_rate=16000.0, directions=[(0, 0)])
    lin = DirectivityDiff("", ref, eva, datatype=DataType.LINEAR_MAGNITUDE)
    cplx = DirectivityDiff("", ref, eva, datatype=DataType.COMPLEX_SPECTRUM)
    assert lin.compute_mse() == pytest.approx(0.0, abs=1e-24)
    assert cplx.compute_mse() > 0.01


def test_mse_with_silent_reference_is_rejected():
    ref = RawIRs(
        info="", irs=np.zeros((1, 8)), sample_rate=8000.0, directions=[(0, 0)]
    )
    eva = impulse_set([1.0], [(0, 0)], length=8, fs=8000.0)
    diff = DirectivityDiff("", ref, eva, datatype=DataType.LINEAR_MAGNITUDE)
    with pytest.raises(ValueError, match="identically zero"):
        diff.compute_mse()


# --------------------------------------------------------------------------
# measure gating
# --------------------------------------------------------------------------

def test_measure_requires_matching_datatype():
    rng = np.random.default_rng(SEED + 9)
    ref = random_set(rng, RING4)
    log_diff = DirectivityDiff("", ref, ref)
    lin_diff = DirectivityDiff("", ref, ref, datatype=DataType.LINEAR_MAGNITUDE)
    with pytest.raises(ValueError):
        log_diff.compute_mse()
    with pytest.raises(ValueError):
        lin_diff.compute_sd()
    with pytest.raises(ValueError):
        log_diff.error_vs_frequency(measure="mse")
    with pytest.raises(ValueError):
        log_diff.error_vs_frequency(measure="median")


def test_callable_measure_is_used_directly():
    rng = np.random.default_rng(SEED + 10)
    ref = random_set(rng, RING4)
    diff = DirectivityDiff("", ref, ref)
    freqs, errors = diff.error_vs_frequency(measure=lambda d, r: 42.0)
    assert np.all(errors == 42.0)
    assert len(freqs) == len(diff.coords.frequencies)


# --------------------------------------------------------------------------
# per-bin and per-azimuth aggregation
# --------------------------------------------------------------------------

def test_error_vs_frequency_constant_offset():
    ref = impulse_set([1.0, 1.0, 1.0, 1.0], RING4)
    eva = impulse_set([2.0, 2.0, 2.0, 2.0], RING4)
    diff = DirectivityDiff("", ref, eva)
    freqs, errors = diff.error_vs_frequency()
    np.testing.assert_array_equal(freqs, ref.coords.frequency_array)
    np.testing.assert_allclose(errors, 20 * np.log10(2.0), atol=1e-12)


def test_error_vs_frequency_range_filter():
    rng = np.random.default_rng(SEED + 11)
    ref = random_set(rng, RING4)  # bins every 1000 Hz up to 8000
    eva = random_set(rng, RING4)
    diff = DirectivityDiff("", ref, eva)
    freqs, errors = diff.error_vs_frequency(freq_range=(1500.0, 5500.0))
    np.testing.assert_array_equal(freqs, [2000.0, 3000.0, 4000.0, 5000.0])
    assert len(errors) == 4
    with pytest.raises(ValueError):
        diff.error_vs_frequency(freq_range=(8500.0, 9000.0))


def test_total_sd_decomposes_over_bins():
    rng = np.random.default_rng(SEED + 12)
    ref = random_set(rng, RING4)
    eva = random_set(rng, RING4)
    diff = DirectivityDiff("", ref, eva)
    _, per_bin = diff.error_vs_frequency()
    total = diff.compute_sd()
    assert total**2 == pytest.approx(float(np.mean(per_bin**2)), abs=1e-12)


def test_error_horizontal_sorted_and_complete():
    dirs = [(180.0, 0.0), (0.0, 0.0), (90.0, 0.0), (45.0, 30.0)]
    ref = impulse_set([1.0, 1.0, 1.0, 1.0], dirs)
    eva = impulse_set([2.0, 4.0, 8.0, 16.0], dirs)
    diff = DirectivityDiff("", ref, eva)
    azimuths, errors = diff.error_horizontal()
    np.testing.assert_array_equal(azimuths, [0.0, 90.0, 180.0])
    # per-direction offsets: az 0 -> 12 dB, az 90 -> 18 dB, az 180 -> 6 dB
    np.testing.assert_allclose(
        errors, [40 * np.log10(2.0), 60 * np.log10(2.0), 20 * np.log10(2.0)], atol=1e-9
    )


def test_error_horizontal_needs_horizontal_directions():
    dirs = [(0.0, 30.0), (90.0, 30.0)]
    ref = impulse_set([1.0, 1.0], dirs)
    diff = DirectivityDiff("", ref, ref)
    with pytest.raises(ValueError):
        diff.error_horizontal()


def test_error_horizontal_respects_frequency_range():
    rng = np.random.default_rng(SEED + 13)
    ref = random_set(rng, RING4)
    eva = random_set(rng, RING4)
    diff = DirectivityDiff("", ref, eva)
    azimuths, errors = diff.error_horizontal(freq_range=(2500.0, 4500.0))
    delta = diff.differences
    cols = [3, 4]  # bins 3000 and 4000 of the 1000-Hz grid
    expected = [
        float(np.sqrt(np.mean(delta[i][cols, :] ** 2))) for i in range(4)
    ]
    np.testing.assert_allclose(errors, expected, atol=1e-12)
    np.testing.assert_array_equal(azimuths, [0.0, 90.0, 180.0, 270.0])


# --------------------------------------------------------------------------
# coordinate mismatch tolerance
# --------------------------------------------------------------------------

def test_direction_deviation_beyond_half_degree_rejected():
    ref = impulse_set([1.0], [(0.0, 0.0)])
    eva = impulse_set([1.0], [(2.0, 0.0)])
    with pytest.raises(CoordinateMismatchError):
        DirectivityDiff("", ref, eva)


def test_direction_deviation_within_tolerance_warns_and_proceeds():
    ref = impulse_set([1.0], [(0.0, 0.0)])
    eva = impulse_set([2.0], [(0.3, 0.0)])
    with pytest.warns(CoordinateMismatchWarning):
        diff = DirectivityDiff("", ref, eva)
    assert diff.coordinate_warning
    # the diff lives on the reference's actual coordinates
    assert diff.coords.directions == ref.coords.directions
    assert diff.compute_sd() == pytest.approx(20 * np.log10(2.0), abs=1e-9)


def test_pole_copies_stored_in_another_order_deviate_by_nothing():
    # Each set reads the zenith at its own first copy, (0, 90) in one and
    # (123, 90) in the other; the copies are one direction.
    dirs = [(0.0, 90.0), (123.0, 90.0), (0.0, 0.0), (90.0, 0.0)]
    ref = impulse_set([1.0, 1.0, 2.0, 3.0], dirs)
    eva = impulse_set([1.0, 1.0, 2.0, 3.0], [dirs[1], dirs[0]] + dirs[2:])
    with warnings.catch_warnings():
        warnings.simplefilter("error", CoordinateMismatchWarning)
        diff = DirectivityDiff("", ref, eva)
    assert not diff.coordinate_warning
    assert diff.compute_sd() == 0.0


def test_frequency_deviation_tolerance_is_half_bin_spacing():
    ref = impulse_set([1.0], [(0, 0)], length=8, fs=8000.0)   # bins step 1000
    near = impulse_set([1.0], [(0, 0)], length=8, fs=8800.0)  # worst dev 400 Hz
    with pytest.warns(CoordinateMismatchWarning):
        diff = DirectivityDiff("", ref, near)
    assert diff.coords.frequencies == ref.coords.frequencies

    far = impulse_set([1.0], [(0, 0)], length=8, fs=12800.0)  # worst dev 600 Hz
    with pytest.raises(CoordinateMismatchError):
        DirectivityDiff("", ref, far)


def test_distance_deviation_tolerance_is_one_millimeter():
    ref = impulse_set([[1.0]], [(0, 0)], distances=(1.0,))
    near = impulse_set([[1.0]], [(0, 0)], distances=(1.0005,))
    with pytest.warns(CoordinateMismatchWarning):
        DirectivityDiff("", ref, near)
    far = impulse_set([[1.0]], [(0, 0)], distances=(1.5,))
    with pytest.raises(CoordinateMismatchError):
        DirectivityDiff("", ref, far)


def test_continuous_reference_has_zero_frequency_tolerance():
    rng = np.random.default_rng(SEED + 14)
    raw = random_set(rng, RING4)
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 3)
    inside = CoordinateSet(
        directions=RING4, frequencies=(2000.0, 5000.0), distances=(1.0,)
    )
    diff = DirectivityDiff("", model, model, at=inside)
    assert diff.compute_sd() == 0.0
    # a bin below the model's limits clamps on one side only -> deviation
    outside = CoordinateSet(
        directions=RING4, frequencies=(500.0, 2000.0), distances=(1.0,)
    )
    with pytest.raises(CoordinateMismatchError):
        DirectivityDiff("", model, raw, at=outside)


def test_reads_on_one_directions_tuple_compute_no_angles(monkeypatch):
    calls = []
    angle = dirkit.diff.great_circle_angle

    def counting(*args):
        calls.append(len(args[0]))
        return angle(*args)

    monkeypatch.setattr(dirkit.diff, "great_circle_angle", counting)
    rng = np.random.default_rng(SEED + 16)
    raw = random_set(rng, RING4 + [(45.0, 30.0), (0.0, 90.0), (90.0, 90.0)])
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 3)
    grid = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=raw.coords.frequencies[1:],
        distances=raw.coords.distances,
    )
    for datatype in (DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE):
        diff = DirectivityDiff("", raw, model, grid, datatype)
        assert not diff.coordinate_warning
    assert calls == []
    # Reads on different directions tuples still measure the angles.
    ref = impulse_set([1.0], [(0.0, 0.0)])
    eva = impulse_set([2.0], [(0.3, 0.0)])
    with pytest.warns(CoordinateMismatchWarning):
        DirectivityDiff("", ref, eva)
    assert calls == [1]


class _FixedRead(Directivity):
    """Serves one stored array as every read, unlike the built-in
    representations: a read a diff must not write into."""

    def __init__(self, coords, values, datatype=DataType.LOG_MAGNITUDE):
        super().__init__("fixed", coords)
        self.values = values
        self.datatype = datatype

    @property
    def supported_datatypes(self):
        return frozenset({self.datatype})

    def get_data_matrix(self, requested, datatype):
        return DataVolume(self.values, self.coords, datatype)


@pytest.mark.parametrize("kind", ["read-only", "float32"])
def test_diff_leaves_a_read_it_cannot_take_alone(kind):
    rng = np.random.default_rng(SEED + 17)
    ref = random_set(rng, RING4)
    evaluand = random_set(rng, RING4)
    values = evaluand.get_data_matrix(ref.coords, DataType.LOG_MAGNITUDE).values
    if kind == "read-only":
        values.setflags(write=False)
    else:
        values = values.astype(np.float32)
    kept = values.copy()
    diff = DirectivityDiff("", ref, _FixedRead(ref.coords, values))
    reference = ref.get_data_matrix(ref.coords, DataType.LOG_MAGNITUDE).values
    np.testing.assert_array_equal(diff.differences, kept - reference)
    assert diff.differences.dtype == np.float64
    np.testing.assert_array_equal(values, kept)


# --------------------------------------------------------------------------
# the diff as a readable representation
# --------------------------------------------------------------------------

def test_diff_serves_its_stored_differences():
    rng = np.random.default_rng(SEED + 15)
    ref = random_set(rng, RING4)
    eva = random_set(rng, RING4)
    diff = DirectivityDiff("", ref, eva)
    assert diff.supported_datatypes == frozenset({DataType.LOG_MAGNITUDE})
    request = CoordinateSet(
        directions=[RING4[2]], frequencies=(diff.coords.frequencies[1],)
    )
    volume = diff.get_data_matrix(request, DataType.LOG_MAGNITUDE)
    assert volume.values[0, 0, 0] == diff.differences[2, 1, 0]
    with pytest.raises(UnsupportedDatatypeError):
        diff.get_data_matrix(request, DataType.LINEAR_MAGNITUDE)


# --------------------------------------------------------------------------
# the default comparison grid
# --------------------------------------------------------------------------

def _ringed_set(seed):
    """Two distances on a grid whose zenith and nadir rings each store
    their pole six times."""
    rng = np.random.default_rng(seed)
    directions = [(60.0 * a, el) for el in (-90.0, -30.0, 0.0, 30.0, 90.0) for a in range(6)]
    irs = rng.standard_normal((len(directions), 32, 2))
    return RawIRs("rings", irs, 16000.0, directions, (1.0, 2.0))


def test_default_grid_is_the_comparison_grid_bit_for_bit():
    raw = _ringed_set(SEED + 40)
    for limits in (None, (1000.0, 6000.0)):
        model = fit_basis_model("", raw, BasisFamily.FOURIER, 5, limits)
        lo, hi = model.frequency_limits
        grid = CoordinateSet(
            directions=raw.coords.directions,
            frequencies=[f for f in raw.coords.frequencies if lo <= f <= hi],
            distances=raw.coords.distances,
        )
        assert grid.directions is raw.coords.directions
        for datatype in (DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE):
            default = DirectivityDiff("", raw, model, datatype=datatype)
            explicit = DirectivityDiff("", raw, model, grid, datatype)
            assert default.coords == explicit.coords
            assert default.coords.frequencies == grid.frequencies
            assert np.array_equal(default.differences, explicit.differences)
            assert np.array_equal(default.reference_values, explicit.reference_values)


def test_two_discrete_objects_compare_at_the_reference_coords(monkeypatch):
    raw = _ringed_set(SEED + 41)
    other = _ringed_set(SEED + 42)
    requests = []
    read = RawIRs.get_data_matrix

    def recording(self, requested, datatype):
        requests.append(requested)
        return read(self, requested, datatype)

    monkeypatch.setattr(RawIRs, "get_data_matrix", recording)
    default = DirectivityDiff("", raw, other, datatype=DataType.COMPLEX_SPECTRUM)
    assert len(requests) == 2 and all(r is raw.coords for r in requests)
    explicit = DirectivityDiff("", raw, other, raw.coords, DataType.COMPLEX_SPECTRUM)
    assert np.array_equal(default.differences, explicit.differences)


def test_default_grid_errors_name_the_reference_and_the_limits():
    raw = random_set(np.random.default_rng(SEED + 43), RING4, length=32)
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 3)
    with pytest.raises(ValueError, match="the reference must store discrete coordinates"):
        DirectivityDiff("", model, raw)
    # Bins every 250 Hz; the model holds the one bin at 1250 Hz, between
    # the reference's bins every 500 Hz.
    fine = random_set(np.random.default_rng(SEED + 44), RING4, length=64)
    narrow = fit_basis_model("", fine, BasisFamily.FOURIER, 1, (1200.0, 1300.0))
    assert narrow.frequency_limits == (1250.0, 1250.0)
    with pytest.raises(ValueError, match="no reference frequency bins inside"):
        DirectivityDiff("", raw, narrow)


def test_balloon_of_a_diff_with_pole_rings_is_its_own_read():
    raw = _ringed_set(SEED + 45)
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 4)
    diff = DirectivityDiff("", raw, model)
    # Each ring's pole rows all landed on its first row.
    assert diff.coords.directions.count(Direction(0.0, 90.0)) == 6
    assert diff.coords.directions.count(Direction(0.0, -90.0)) == 6
    bin_index = diff.coords.frequencies.index(3000.0)
    for frequency in (3000.0, 3100.0):
        for r, distance in enumerate(diff.coords.distances):
            grid = diff.balloon_grid(frequency, distance)
            assert grid.directions == diff.coords.directions
            assert grid.coords.frequencies == (3000.0,)
            assert np.array_equal(grid.values, diff.differences[:, bin_index, r])


# --------------------------------------------------------------------------
# built-in measures reduce along axes; callables take the per-slice loop
# --------------------------------------------------------------------------

def _sd_formula(differences, _reference):
    return float(np.sqrt(np.mean(differences * differences)))


def _mse_formula(differences, reference):
    return float(np.sum(np.abs(differences) ** 2) / np.sum(np.abs(reference) ** 2))


# Horizontal directions out of azimuth order, plus elevated ones.
MIXED_DIRECTIONS = [(200.0, 0.0), (10.0, 0.0), (95.0, 0.0), (10.0, 40.0),
                    (300.0, -20.0), (330.0, 0.0), (150.0, 60.0)]


def _noise_pair(seed):
    rng = np.random.default_rng(seed)
    shape = (len(MIXED_DIRECTIONS), 32, 2)
    return tuple(
        RawIRs("", rng.standard_normal(shape), 16000.0, MIXED_DIRECTIONS, (1.0, 2.0))
        for _ in range(2)
    )


@pytest.mark.parametrize("freq_range", [None, (2200.0, 5100.0)], ids=["all", "subset"])
@pytest.mark.parametrize(
    "datatype, measure, formula",
    [
        (DataType.LOG_MAGNITUDE, "sd", _sd_formula),
        (DataType.LINEAR_MAGNITUDE, "mse", _mse_formula),
        (DataType.COMPLEX_SPECTRUM, "mse", _mse_formula),
    ],
    ids=["log-sd", "lin-mse", "complex-mse"],
)
def test_builtin_measures_equal_the_per_slice_loop(datatype, measure, formula, freq_range):
    ref, eva = _noise_pair(SEED + 30)
    diff = DirectivityDiff("", ref, eva, datatype=datatype)
    for method in (diff.error_vs_frequency, diff.error_horizontal):
        axis, errors = method(measure, freq_range)
        loop_axis, loop_errors = method(formula, freq_range)
        np.testing.assert_array_equal(axis, loop_axis)
        assert errors.shape == loop_errors.shape
        np.testing.assert_allclose(errors, loop_errors, rtol=1e-12, atol=0.0)
    if freq_range is not None:
        freqs, _ = diff.error_vs_frequency(measure, freq_range)
        np.testing.assert_array_equal(freqs, [2500.0, 3000.0, 3500.0, 4000.0, 4500.0, 5000.0])


def test_zero_reference_bin_is_rejected_by_both_methods():
    # h = (1, 0, -1, 0, ...): H = 1 - exp(-i pi k), exactly 0 at DC and Nyquist.
    irs = np.zeros((len(MIXED_DIRECTIONS), 4))
    irs[:, 0], irs[:, 2] = 1.0, -1.0
    ref = RawIRs("", irs, 8000.0, MIXED_DIRECTIONS)
    eva = RawIRs("", 2.0 * irs + 0.1, 8000.0, MIXED_DIRECTIONS)
    for datatype in (DataType.LINEAR_MAGNITUDE, DataType.COMPLEX_SPECTRUM):
        diff = DirectivityDiff("", ref, eva, datatype=datatype)
        with pytest.raises(ValueError, match="identically zero"):
            diff.error_vs_frequency("mse")
        with pytest.raises(ValueError, match="identically zero"):
            diff.error_horizontal("mse", freq_range=(4000.0, 4000.0))
        freqs, errors = diff.error_vs_frequency("mse", freq_range=(1000.0, 3000.0))
        np.testing.assert_array_equal(freqs, [2000.0])
        assert np.all(np.isfinite(errors))


def test_zero_reference_horizontal_azimuth_is_rejected():
    ref, eva = _noise_pair(SEED + 31)
    irs = ref.irs.copy()
    irs[MIXED_DIRECTIONS.index((95.0, 0.0))] = 0.0
    ref = RawIRs("", irs, 16000.0, MIXED_DIRECTIONS, (1.0, 2.0))
    diff = DirectivityDiff("", ref, eva, datatype=DataType.LINEAR_MAGNITUDE)
    assert np.isfinite(diff.compute_mse())
    with pytest.raises(ValueError, match="identically zero"):
        diff.error_horizontal("mse")


# --------------------------------------------------------------------------
# sums of squares: no squared copy, extended-precision accuracy, overflow
# --------------------------------------------------------------------------

MEASURES = [
    (DataType.LOG_MAGNITUDE, "sd"),
    (DataType.LINEAR_MAGNITUDE, "mse"),
    (DataType.COMPLEX_SPECTRUM, "mse"),
]
MEASURE_IDS = ["log-sd", "lin-mse", "complex-mse"]


def _aggregates(diff, measure):
    """Every built-in aggregate of one measure, as zero-argument calls."""
    total = diff.compute_sd if measure == "sd" else diff.compute_mse
    return {
        "total": total,
        "per-bin": lambda: diff.error_vs_frequency(measure),
        "horizontal": lambda: diff.error_horizontal(measure),
    }


@pytest.mark.parametrize("datatype, measure", MEASURES, ids=MEASURE_IDS)
def test_aggregates_allocate_no_squared_volume(datatype, measure):
    # 72 azimuths on 10 rings: 720 x 64 x 2 cells. The horizontal mode
    # copies only its ring's rows, a tenth of the volume, of the
    # differences and, for MSE, of the reference: SD reads no reference.
    directions = [(5.0 * a, el) for el in range(-40, 60, 10) for a in range(72)]
    rng = np.random.default_rng(SEED + 50)
    ref, eva = (
        RawIRs("", rng.standard_normal((720, 126, 2)), 16000.0, directions, (1.0, 2.0))
        for _ in range(2)
    )
    diff = DirectivityDiff("", ref, eva, datatype=datatype)
    assert diff.differences.shape == (720, 64, 2)
    volume_bytes = diff.differences.nbytes
    for name, call in _aggregates(diff, measure).items():
        call()  # anything built once per diff is built before tracing
        _, peak = traced_peak(call)
        bound = 0.15 if (measure, name) == ("sd", "horizontal") else 0.25
        assert peak < bound * volume_bytes, (name, peak, volume_bytes)


def _longdouble_squares(values):
    values = np.asarray(values)
    if np.iscomplexobj(values):
        real, imag = (v.astype(np.longdouble) for v in (values.real, values.imag))
        return real**2 + imag**2
    return values.astype(np.longdouble) ** 2


def _longdouble_measure(measure, differences, reference, axis=None):
    squares = _longdouble_squares(differences).sum(axis=axis)
    if measure == "sd":
        return np.sqrt(squares / (differences.size // np.size(squares)))
    return squares / _longdouble_squares(reference).sum(axis=axis)


@pytest.mark.parametrize("datatype, measure", MEASURES, ids=MEASURE_IDS)
def test_aggregates_match_a_longdouble_reference(datatype, measure):
    # Values from 1e-3 to 1e3 in magnitude, signed in dB, with random phase
    # for complex spectra; the horizontal ring is stored out of order.
    rings = (-50.0, 0.0, 20.0, 70.0)
    directions = [(10.0 * ((7 * a) % 36), el) for el in rings for a in range(36)]
    coords = CoordinateSet(
        directions=directions, frequencies=250.0 * np.arange(1, 41), distances=(1.0, 2.0)
    )
    rng = np.random.default_rng(SEED + 51)

    def volume():
        magnitude = 10.0 ** rng.uniform(-3.0, 3.0, coords.shape)
        if datatype is DataType.LOG_MAGNITUDE:
            return magnitude * rng.choice([-1.0, 1.0], coords.shape)
        if datatype is DataType.LINEAR_MAGNITUDE:
            return magnitude
        return magnitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, coords.shape))

    ref = _FixedRead(coords, volume(), datatype)
    diff = DirectivityDiff("", ref, _FixedRead(coords, volume(), datatype), datatype=datatype)
    d, r = diff.differences, diff.reference_values
    total = diff.compute_sd if measure == "sd" else diff.compute_mse

    def check(got, want):
        np.testing.assert_allclose(got, want.astype(np.float64), rtol=1e-13, atol=0.0)

    check(total(), _longdouble_measure(measure, d, r))
    d_sel, f_sel, r_sel = [3, 40, 41, 100, 143], [0, 7, 8, 39], [1]
    over = CoordinateSet(
        directions=[directions[i] for i in d_sel],
        frequencies=[coords.frequencies[j] for j in f_sel],
        distances=[coords.distances[k] for k in r_sel],
    )
    cells = np.ix_(d_sel, f_sel, r_sel)
    check(total(over), _longdouble_measure(measure, d[cells], r[cells]))
    for freq_range, bins in ((None, slice(None)), ((2000.0, 6000.0), slice(7, 24))):
        freqs, errors = diff.error_vs_frequency(measure, freq_range)
        np.testing.assert_array_equal(freqs, coords.frequency_array[bins])
        check(errors, _longdouble_measure(measure, d[:, bins], r[:, bins], axis=(0, 2)))
        azimuths, errors = diff.error_horizontal(measure, freq_range)
        rows = [directions.index((az, 0.0)) for az in azimuths]
        assert list(azimuths) == sorted(azimuths) and len(rows) == 36
        ring_d, ring_r = d[rows][:, bins], r[rows][:, bins]
        check(errors, _longdouble_measure(measure, ring_d, ring_r, axis=(1, 2)))


@pytest.mark.parametrize("datatype, measure", MEASURES, ids=MEASURE_IDS)
def test_overflowing_sums_of_squares_are_errors(datatype, measure):
    # Impulses of 3e160 against 1e160, where the reference's squares
    # overflow too, or against 1, where only the differences' do. Log reads
    # are bounded, so the SD case serves log values of 1e160.
    directions = [(0.0, 0.0), (120.0, 0.0), (240.0, 0.0)]
    for ref_gain in (1e160, 1.0):
        ref = impulse_set([ref_gain] * 3, directions)
        eva = impulse_set([3e160] * 3, directions)
        if datatype is DataType.LOG_MAGNITUDE:
            eva = _FixedRead(ref.coords, np.full(ref.coords.shape, 1e160))
        diff = DirectivityDiff("", ref, eva, datatype=datatype)
        for call in _aggregates(diff, measure).values():
            with pytest.raises(ValueError, match="overflows float64"):
                call()
