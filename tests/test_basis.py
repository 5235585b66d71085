"""Basis spectrum models: design matrices, fitting, continuous reads."""

import sys

import numpy as np
import pytest
from conftest import traced_peak

import dirkit.basis
from dirkit import (
    BasisFamily,
    BasisSpectrumModel,
    Continuity,
    CoordinateSet,
    DataType,
    DirectivityDiff,
    RawIRs,
    SynthSpec,
    UnsupportedDatatypeError,
    db_to_linear,
    eval_basis,
    fit_basis_model,
    linear_to_db,
    read_dirm,
    synth_test_set,
    write_dirm,
)
from dirkit import kernels
from dirkit.core import DB_FLOOR

SEED = 20240814


def make_raw(rng, n_dirs=3, length=16, fs=16000.0):
    irs = rng.standard_normal((n_dirs, length))
    directions = [(120.0 * i, 5.0 * i) for i in range(n_dirs)]
    return RawIRs(info="src", irs=irs, sample_rate=fs, directions=directions)


def raw_from_half_spectrum(half, fs, directions):
    """Build a RawIRs whose one-sided spectrum equals `half` exactly.

    `half` is real and positive, shaped (D, L//2 + 1); irfft gives the
    real IR whose rfft reproduces it bit-for-bit up to rounding.
    """
    irs = np.fft.irfft(half, axis=1)
    return RawIRs(info="", irs=irs, sample_rate=fs, directions=directions)


# --------------------------------------------------------------------------
# eval_basis
# --------------------------------------------------------------------------

def test_family_parse():
    assert BasisFamily.parse("fourier") is BasisFamily.FOURIER
    assert BasisFamily.parse(" Cosine ") is BasisFamily.COSINE
    with pytest.raises(ValueError):
        BasisFamily.parse("legendre")


@pytest.mark.parametrize("family", [BasisFamily.COSINE, "cosine", "COSINE", " Cosine "])
def test_model_and_fit_take_the_same_family_forms(family):
    assert BasisFamily.parse(family) is BasisFamily.COSINE
    model = BasisSpectrumModel("m", family, np.ones((1, 1)), (100.0,), [(0, 0)])
    assert model.family is BasisFamily.COSINE
    fitted = fit_basis_model("f", make_raw(np.random.default_rng(SEED)), family, 2)
    assert fitted.family is BasisFamily.COSINE


def test_fourier_fixed_values():
    np.testing.assert_allclose(
        eval_basis(BasisFamily.FOURIER, 3, np.array([0.0]))[0], [1.0, 1.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        eval_basis(BasisFamily.FOURIER, 5, np.array([0.25]))[0],
        [1.0, 0.0, 1.0, -1.0, 0.0],
        atol=1e-15,
    )


def test_cosine_fixed_values():
    np.testing.assert_allclose(
        eval_basis(BasisFamily.COSINE, 4, np.array([0.0]))[0], [1, 1, 1, 1], atol=1e-15
    )
    np.testing.assert_allclose(
        eval_basis(BasisFamily.COSINE, 4, np.array([1.0]))[0], [1, -1, 1, -1], atol=1e-15
    )
    np.testing.assert_allclose(
        eval_basis(BasisFamily.COSINE, 4, np.array([0.5]))[0], [1, 0, -1, 0], atol=1e-14
    )


def test_eval_basis_rejects_bad_order():
    with pytest.raises(ValueError):
        eval_basis(BasisFamily.FOURIER, 0, np.array([0.0]))


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def test_model_coords_are_frequency_continuous_with_bin_limits():
    model = BasisSpectrumModel(
        info="m",
        family=BasisFamily.FOURIER,
        coefficients=np.ones((2, 3)),
        source_bins=(100.0, 200.0, 300.0, 400.0),
        directions=[(0, 0), (90, 0)],
    )
    assert model.coords.continuity == Continuity(False, True, False)
    assert model.frequency_limits == (100.0, 400.0)
    assert model.order == 3
    assert model.family is BasisFamily.FOURIER
    assert model.source_bins == (100.0, 200.0, 300.0, 400.0)
    assert model.coords.distances == (1.0,)


@pytest.mark.parametrize(
    "coefficients,bins",
    [
        (np.ones((2, 5)), (100.0, 200.0)),         # K > N
        (np.ones((2, 2)), (200.0, 100.0)),         # bins not ascending
        (np.ones((2, 2)), ()),                     # no bins
        (np.ones((1, 2)), (100.0, 200.0)),         # direction count mismatch
        (np.full((2, 2), np.nan), (100.0, 200.0)), # non-finite coefficients
    ],
)
def test_invalid_model_rejected(coefficients, bins):
    with pytest.raises(ValueError):
        BasisSpectrumModel(
            info="",
            family=BasisFamily.COSINE,
            coefficients=coefficients,
            source_bins=bins,
            directions=[(0, 0), (90, 0)],
        )


# A nan, an infinity or a negative bin at each place of a three-bin list.
BAD_BINS = [
    tuple(bad if i == at else b for i, b in enumerate((100.0, 200.0, 300.0)))
    for bad in (float("nan"), float("inf"), -float("inf"), -100.0)
    for at in range(3)
]


def _model_on_bins(bins):
    return BasisSpectrumModel(
        info="bins", family=BasisFamily.FOURIER, coefficients=np.ones((1, 1)),
        source_bins=bins, directions=[(0, 0)],
    )


@pytest.mark.parametrize("bins", BAD_BINS)
def test_a_bad_source_bin_is_rejected_anywhere(bins):
    with pytest.raises(ValueError, match="source bin value"):
        _model_on_bins(bins)


def test_every_accepted_model_reads_back_from_dirm(tmp_path):
    path = tmp_path / "bins.dirm"
    for bins in BAD_BINS + [(0.0, 200.0, 300.0), (-0.0, 1.0), (5e-324,), (100.0, 1e308)]:
        try:
            model = _model_on_bins(bins)
        except ValueError:
            continue
        write_dirm(model, path)
        assert read_dirm(path).source_bins == model.source_bins


def test_model_rejects_time_domain_datatypes():
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.COSINE,
        coefficients=np.ones((1, 1)),
        source_bins=(1000.0,),
        directions=[(0, 0)],
    )
    request = CoordinateSet(directions=[(0, 0)], frequencies=(1000.0,))
    with pytest.raises(UnsupportedDatatypeError):
        model.get_data_matrix(request, DataType.IMPULSE_RESPONSES)
    with pytest.raises(UnsupportedDatatypeError):
        model.get_data_matrix(request, DataType.COMPLEX_SPECTRUM)


def test_model_rejects_frequency_continuous_requests():
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.COSINE,
        coefficients=np.ones((1, 2)),
        source_bins=(100.0, 200.0),
        directions=[(0, 0)],
    )
    request = CoordinateSet(
        directions=[(0, 0)],
        frequencies=(100.0, 200.0),
        continuity=Continuity(frequency=True),
    )
    with pytest.raises(ValueError, match="spectrum_series"):
        model.get_data_matrix(request, DataType.LOG_MAGNITUDE)


# --------------------------------------------------------------------------
# reads
# --------------------------------------------------------------------------

def test_read_matches_per_cell_design_product():
    rng = np.random.default_rng(SEED)
    coef = rng.standard_normal((3, 4, 2))
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.FOURIER,
        coefficients=coef,
        source_bins=tuple(np.linspace(500.0, 8000.0, 16)),
        directions=[(0, 0), (90, 0), (180, 0)],
        distances=(1.0, 2.0),
    )
    freqs = tuple(rng.uniform(500.0, 8000.0, 7))
    request = CoordinateSet(
        directions=model.coords.directions,
        frequencies=tuple(sorted(freqs)),
        distances=model.coords.distances,
    )
    volume = model.get_data_matrix(request, DataType.LOG_MAGNITUDE)

    lo, hi = model.frequency_limits
    n = len(model.source_bins)
    for fi, f in enumerate(request.frequencies):
        x = (f - lo) / (hi - lo) * ((n - 1) / n)
        row = eval_basis(BasisFamily.FOURIER, 4, np.array([x]))[0]
        for d in range(3):
            for r in range(2):
                expected = float(row @ coef[d, :, r])
                assert volume.values[d, fi, r] == pytest.approx(expected, abs=1e-12)


def test_db_to_linear_is_the_power_form_to_1e14():
    db = np.concatenate([np.linspace(DB_FLOOR, 300.0, 200001), [-0.0, 1e-300, -20.0, 20.0]])
    db.setflags(write=False)
    kept = db.copy()
    linear = db_to_linear(db)
    np.testing.assert_allclose(linear, 10.0 ** (db / 20.0), rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(db, kept)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear([0.0, -0.0]).tolist() == [1.0, 1.0]


def test_linear_to_db_floors_zero_and_leaves_its_input():
    linear = np.array([0.0, 1.0, 10.0])
    assert linear_to_db(linear).tolist() == [-300.0, 0.0, 20.0]
    assert linear.tolist() == [0.0, 1.0, 10.0]
    scalar = linear_to_db(10.0)
    assert isinstance(scalar, float) and not isinstance(scalar, np.ndarray)
    assert scalar == 20.0


def test_log_read_is_the_design_product_bit_for_bit():
    rng = np.random.default_rng(SEED + 2)
    coef = rng.standard_normal((3, 4, 2))
    bins = tuple(np.linspace(500.0, 8000.0, 16))
    model = BasisSpectrumModel(
        "", BasisFamily.COSINE, coef, bins, [(0, 0), (90, 0), (180, 0)], (1.0, 2.0)
    )
    request = CoordinateSet(
        directions=model.coords.directions,
        frequencies=tuple(np.sort(rng.uniform(500.0, 8000.0, 7))),
        distances=model.coords.distances,
    )
    design = eval_basis(BasisFamily.COSINE, 4, model._positions(request.frequencies))
    volume = model.get_data_matrix(request, DataType.LOG_MAGNITUDE)
    assert np.array_equal(volume.values, design @ coef)


def test_requests_outside_limits_are_clamped():
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.COSINE,
        coefficients=np.array([[1.0, 2.0]]),
        source_bins=(1000.0, 2000.0),
        directions=[(0, 0)],
    )
    request = CoordinateSet(
        directions=[(0, 0)], frequencies=(10.0, 1000.0, 30000.0)
    )
    volume = model.get_data_matrix(request, DataType.LOG_MAGNITUDE)
    assert volume.coords.frequencies == (1000.0, 1000.0, 2000.0)
    assert volume.values[0, 0, 0] == volume.values[0, 1, 0]


def test_model_datatype_algebra():
    rng = np.random.default_rng(SEED + 1)
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.FOURIER,
        coefficients=rng.standard_normal((2, 3)),
        source_bins=tuple(np.linspace(100.0, 4000.0, 8)),
        directions=[(0, 0), (180, 0)],
    )
    request = CoordinateSet(
        directions=model.coords.directions, frequencies=(250.0, 987.0, 3999.0)
    )
    db = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values
    lin = model.get_data_matrix(request, DataType.LINEAR_MAGNITUDE).values
    power = model.get_data_matrix(request, DataType.POWER_SPECTRUM).values
    np.testing.assert_allclose(lin, 10.0 ** (db / 20.0), rtol=1e-12)
    np.testing.assert_allclose(power, lin**2, rtol=1e-12)


def test_model_snaps_directions_and_distances():
    coef = np.zeros((2, 1, 2))
    coef[0, 0, 0] = 10.0
    coef[1, 0, 0] = 20.0
    coef[0, 0, 1] = 30.0
    coef[1, 0, 1] = 40.0
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.COSINE,
        coefficients=coef,
        source_bins=(1000.0,),
        directions=[(0, 0), (180, 0)],
        distances=(1.0, 2.0),
    )
    request = CoordinateSet(
        directions=[(170.0, 5.0)], frequencies=(1000.0,), distances=(1.9,)
    )
    volume = model.get_data_matrix(request, DataType.LOG_MAGNITUDE)
    assert volume.values[0, 0, 0] == 40.0
    assert volume.coords.directions[0].azimuth == 180.0
    assert volume.coords.distances == (2.0,)


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def test_fit_constant_spectrum_gives_single_coefficient():
    ir = np.zeros((1, 16))
    ir[0, 0] = 0.5
    raw = RawIRs(info="", irs=ir, sample_rate=16000.0, directions=[(0, 0)])
    model = fit_basis_model("m", raw, BasisFamily.FOURIER, 1)
    expected = 20 * np.log10(0.5)
    assert model.coefficients[0, 0, 0] == pytest.approx(expected, abs=1e-12)
    # evaluates to the same constant everywhere inside the limits
    request = CoordinateSet(directions=[(0, 0)], frequencies=(1234.5,))
    value = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values[0, 0, 0]
    assert value == pytest.approx(expected, abs=1e-12)


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(SEED + 2)
    raw = make_raw(rng, n_dirs=3, length=16)
    order = 4
    model = fit_basis_model("", raw, BasisFamily.FOURIER, order)

    bins = raw.coords.frequency_array[1:]  # DC excluded
    request = CoordinateSet(
        directions=raw.coords.directions, frequencies=tuple(bins)
    )
    values = raw.get_data_matrix(request, DataType.LOG_MAGNITUDE).values
    n = len(bins)
    design = eval_basis(BasisFamily.FOURIER, order, np.arange(n) / n)
    gram = design.T @ design
    for d in range(3):
        expected = np.linalg.solve(gram, design.T @ values[d, :, 0])
        np.testing.assert_allclose(model.coefficients[d, :, 0], expected, atol=1e-9)


@pytest.mark.parametrize("family", [BasisFamily.FOURIER, BasisFamily.COSINE])
def test_full_order_fit_interpolates_the_source(family):
    rng = np.random.default_rng(SEED + 3)
    raw = make_raw(rng, n_dirs=2, length=16)
    n = len(raw.coords.frequencies) - 1  # non-DC bins
    model = fit_basis_model("", raw, family, n)
    request = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=raw.coords.frequencies[1:],
    )
    source_db = raw.get_data_matrix(request, DataType.LOG_MAGNITUDE).values
    model_db = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values
    np.testing.assert_allclose(model_db, source_db, atol=1e-8)


@pytest.mark.parametrize("family", [BasisFamily.FOURIER, BasisFamily.COSINE])
def test_fit_recovers_exact_coefficients(family):
    # Build a source whose log spectrum lies in the basis span, then check
    # the fit returns the generating coefficients.
    rng = np.random.default_rng(SEED + 4)
    length, fs = 32, 32000.0
    n = length // 2  # non-DC bins
    order = 5
    coef = rng.uniform(-3.0, 3.0, (2, order))
    design = eval_basis(family, order, np.arange(n) / n)
    db = coef @ design.T  # (D, n)
    half = np.empty((2, n + 1))
    half[:, 0] = 1.0  # arbitrary DC magnitude, excluded from the fit
    half[:, 1:] = 10.0 ** (db / 20.0)
    raw = raw_from_half_spectrum(half, fs, [(0, 0), (90, 0)])
    model = fit_basis_model("", raw, family, order)
    np.testing.assert_allclose(model.coefficients[:, :, 0], coef, atol=1e-8)


def test_fit_excludes_dc_and_stores_effective_limits():
    rng = np.random.default_rng(SEED + 5)
    raw = make_raw(rng, n_dirs=1, length=16, fs=16000.0)
    assert raw.coords.frequencies[0] == 0.0
    model = fit_basis_model("", raw, BasisFamily.FOURIER, 2)
    assert model.frequency_limits == (1000.0, 8000.0)
    assert model.source_bins == raw.coords.frequencies[1:]


def test_fit_frequency_limits_select_bins():
    rng = np.random.default_rng(SEED + 6)
    raw = make_raw(rng, n_dirs=1, length=16, fs=16000.0)  # bins every 1000 Hz
    model = fit_basis_model(
        "", raw, BasisFamily.COSINE, 3, frequency_limits=(2000.0, 5000.0)
    )
    assert model.source_bins == (2000.0, 3000.0, 4000.0, 5000.0)
    assert model.frequency_limits == (2000.0, 5000.0)


def test_fit_rejects_impossible_requests():
    rng = np.random.default_rng(SEED + 7)
    raw = make_raw(rng, n_dirs=1, length=16, fs=16000.0)
    with pytest.raises(ValueError):
        fit_basis_model("", raw, BasisFamily.FOURIER, 9)  # only 8 non-DC bins
    with pytest.raises(ValueError):
        fit_basis_model("", raw, BasisFamily.FOURIER, 0)
    with pytest.raises(ValueError):
        fit_basis_model("", raw, BasisFamily.FOURIER, 1, frequency_limits=(50.0, 20.0))
    with pytest.raises(ValueError):
        # no non-DC bins inside the range
        fit_basis_model("", raw, BasisFamily.FOURIER, 1, frequency_limits=(1.0, 2.0))


def test_fit_requires_log_capable_discrete_source():
    model = BasisSpectrumModel(
        info="",
        family=BasisFamily.COSINE,
        coefficients=np.ones((1, 1)),
        source_bins=(1000.0,),
        directions=[(0, 0)],
    )
    # frequency-continuous sources cannot anchor a bin-wise fit
    with pytest.raises(ValueError):
        fit_basis_model("", model, BasisFamily.COSINE, 1)


def test_fit_rejects_sources_without_log_support():
    rng = np.random.default_rng(SEED + 9)
    raw = make_raw(rng, n_dirs=1, length=8)
    lin_diff = DirectivityDiff("", raw, raw, datatype=DataType.LINEAR_MAGNITUDE)
    with pytest.raises(UnsupportedDatatypeError):
        fit_basis_model("", lin_diff, BasisFamily.FOURIER, 1)


def test_fit_accepts_family_names():
    rng = np.random.default_rng(SEED + 8)
    raw = make_raw(rng, n_dirs=1, length=8)
    model = fit_basis_model("", raw, "cosine", 2)
    assert model.family is BasisFamily.COSINE


# --------------------------------------------------------------------------
# the SVD fit against a least-squares oracle, and the rank guard
# --------------------------------------------------------------------------

def _two_distance_noise(seed):
    rng = np.random.default_rng(seed)
    directions = [(45.0 * i, 10.0 * (i % 3) - 10.0) for i in range(8)]
    irs = rng.standard_normal((len(directions), 64, 2))
    return RawIRs("noise", irs, 16000.0, directions, (1.0, 2.0))


@pytest.mark.parametrize("limits", [None, (1500.0, 6000.0)], ids=["all-bins", "limits"])
@pytest.mark.parametrize("family", list(BasisFamily), ids=lambda f: f.value)
def test_fit_matches_a_least_squares_oracle(family, limits):
    raw = _two_distance_noise(SEED + 40)
    bins = raw.coords.frequency_array
    keep = bins > 0.0
    if limits is not None:
        keep &= (bins >= limits[0]) & (bins <= limits[1])
    log = raw.get_data_matrix(raw.coords, DataType.LOG_MAGNITUDE).values[:, keep, :]
    n = log.shape[1]
    assert n == (32 if limits is None else 19)
    for order in sorted({1, 2, n // 2, n}):
        model = fit_basis_model("", raw, family, order, frequency_limits=limits)
        design = eval_basis(family, order, np.arange(n) / n)
        expected = np.empty((log.shape[0], order, log.shape[2]))
        for d in range(log.shape[0]):
            for r in range(log.shape[2]):
                expected[d, :, r] = np.linalg.lstsq(design, log[d, :, r], rcond=None)[0]
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(
            model.coefficients, expected, rtol=1e-12, atol=1e-12 * scale
        )


def test_a_full_order_fit_peaks_below_its_read_and_two_coefficient_arrays():
    # 720 directions at two distances, so the (N, N) factors are small
    # next to the (D, N, R) read and coefficients.
    rng = np.random.default_rng(SEED + 42)
    directions = [(5.0 * a, 10.0 * e - 40.0) for e in range(10) for a in range(72)]
    irs = rng.standard_normal((len(directions), 64, 2))
    raw = RawIRs("noise", irs, 16000.0, directions, (1.0, 2.0))
    n = 32
    fit_basis_model("", raw, "fourier", n)  # the spectra and the source's self-read
    model, peak = traced_peak(lambda: fit_basis_model("", raw, "fourier", n))
    volume_bytes = len(directions) * n * 2 * 8
    coefficient_bytes = model.coefficients.nbytes
    assert model.order == n and coefficient_bytes == volume_bytes
    assert peak < volume_bytes + 2 * coefficient_bytes


def test_rank_deficient_design_is_rejected(monkeypatch):
    def repeated_column(family, order, x):
        design = eval_basis(family, order, x)
        design[:, -1] = design[:, 0]
        return design

    monkeypatch.setattr(dirkit.basis, "eval_basis", repeated_column)
    raw = _two_distance_noise(SEED + 41)
    message = r"design matrix rank 3 below order 4; fit is underdetermined"
    with pytest.raises(ValueError, match=message):
        fit_basis_model("", raw, "fourier", 4)


@pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 2.0])
def test_rank_verdict_matches_matrix_rank_at_the_cut_off(monkeypatch, factor):
    # A (32, 4) design with singular values 1, 1, 1 and `factor` times the
    # cut-off 1 * max(N, K) * eps that numpy.linalg.matrix_rank uses.
    n, order = 32, 4
    rng = np.random.default_rng(SEED + 43)
    left = np.linalg.qr(rng.standard_normal((n, order)))[0]
    right = np.linalg.qr(rng.standard_normal((order, order)))[0]
    singular = np.array([1.0, 1.0, 1.0, factor * n * np.finfo(np.float64).eps])
    design = (left * singular) @ right.T
    monkeypatch.setattr(dirkit.basis, "eval_basis", lambda family, k, x: design.copy())
    raw = _two_distance_noise(SEED + 41)
    expected = np.linalg.matrix_rank(design)
    assert expected == (order if factor > 1.0 else order - 1)
    if expected == order:
        assert fit_basis_model("", raw, "fourier", order).order == order
    else:
        message = r"design matrix rank 3 below order 4; fit is underdetermined"
        with pytest.raises(ValueError, match=message):
            fit_basis_model("", raw, "fourier", order)


# --------------------------------------------------------------------------
# fitted models share the source's coordinates
# --------------------------------------------------------------------------

def _polar_grid_raw(seed, top=90.0):
    """Two distances on a 48-direction grid whose top row, at the default
    elevation, stores the zenith 12 times."""
    rng = np.random.default_rng(seed)
    directions = [(30.0 * a, el) for el in (-30.0, 0.0, 30.0, top) for a in range(12)]
    irs = rng.standard_normal((len(directions), 32, 2))
    return RawIRs("grid", irs, 16000.0, directions, (1.0, 2.0))


def _count_calls(monkeypatch, name):
    """Log the direction count of every call to kernels.`name`."""
    calls = []
    original = getattr(kernels, name)
    monkeypatch.setattr(
        kernels, name, lambda az, el: calls.append(len(az)) or original(az, el)
    )
    return calls


def test_fits_and_diffs_build_the_index_once(monkeypatch):
    builds = _count_calls(monkeypatch, "direction_index")
    raw = _polar_grid_raw(SEED + 50)
    sds = []
    for order in range(1, 9):
        model = fit_basis_model("", raw, "fourier", order)
        grid = CoordinateSet(
            directions=raw.coords.directions,
            frequencies=model.source_bins,
            distances=raw.coords.distances,
        )
        assert grid.directions is raw.coords.directions
        sds.append(DirectivityDiff("", raw, model, grid).compute_sd())
        DirectivityDiff("", raw, model, grid, DataType.LINEAR_MAGNITUDE).compute_mse()
        model.balloon_grid(1000.0 * order, 2.0)
    # One index over the 48 stored directions, built on the first fit's
    # read at the source's own tuple.
    assert builds == [48]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(sds, sds[1:]))


def test_fits_take_the_repeat_verdict_of_their_source():
    raw = _polar_grid_raw(SEED + 54)
    fit_basis_model("", raw, "fourier", 1)  # the spectra, the index and the self-read
    sorts = []

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__.endswith("sort"):
            sorts.append(arg.__name__)

    sys.setprofile(profile)
    try:
        models = [fit_basis_model("", raw, "fourier", order) for order in (2, 4, 8)]
    finally:
        sys.setprofile(None)
    # The repeat scan sorts the direction keys. It ran on the source's
    # holder when the source was built, and each model keeps that holder.
    assert sorts == []
    assert all(model.coords.directions is raw.coords.directions for model in models)


def test_fits_share_the_direction_index_of_their_source(monkeypatch):
    builds = _count_calls(monkeypatch, "direction_index")
    raw = _polar_grid_raw(SEED + 52)
    off_grid = CoordinateSet(
        directions=[(7.0, 3.0), (200.0, -80.0), (95.0, 89.0)],
        frequencies=(1000.0, 5000.0),
        distances=raw.coords.distances,
    )
    expected = raw.get_data_matrix(off_grid, DataType.LOG_MAGNITUDE).coords
    for order in range(1, 9):
        model = fit_basis_model("", raw, "fourier", order)
        volume = model.get_data_matrix(off_grid, DataType.LOG_MAGNITUDE)
        assert volume.coords.directions == expected.directions
        assert model.coords.directions.search_index is raw.coords.directions.search_index
    # One index over the 48 stored directions, built on the first off-grid read.
    assert builds == [48]
    # Fit first, read the model off-grid, then the source: the fit's read at
    # the source's own tuple built the one index, also on the grid without
    # a pole, where that read searches nothing.
    for top in (90.0, 60.0):
        builds.clear()
        raw = _polar_grid_raw(SEED + 53, top)
        model = fit_basis_model("", raw, "fourier", 4)
        volume = model.get_data_matrix(off_grid, DataType.LOG_MAGNITUDE)
        expected = raw.get_data_matrix(off_grid, DataType.LOG_MAGNITUDE).coords
        assert volume.coords.directions == expected.directions
        assert builds == [48]


def test_diffs_at_the_default_grid_share_the_reference_index(monkeypatch):
    builds = _count_calls(monkeypatch, "direction_index")
    raw = synth_test_set(
        SynthSpec(
            mode="lowpass",
            azimuth_step=30.0,
            elevation_step=30.0,
            elevation_limits=(-60.0, 60.0),
        )
    )
    assert len(raw.coords.directions) == 60
    for order in (2, 4, 8):
        model = fit_basis_model("", raw, "fourier", order)
        diff = DirectivityDiff("", raw, model)
        diff.balloon_grid(1000.0)
        # With no pole copy to move, a read at the stored tuple lands on it.
        assert diff.coords.directions is raw.coords.directions
    assert builds == [60]


def test_diffs_on_a_pole_grid_build_no_second_index(monkeypatch):
    # The 5 degree grid stores the zenith 72 times, so the read at the
    # stored tuple moves rows and the diff holds a second tuple; its
    # balloon reads at that tuple through the preset self-read.
    builds = _count_calls(monkeypatch, "direction_index")
    raw = synth_test_set(
        SynthSpec(
            mode="lowpass",
            azimuth_step=5.0,
            elevation_step=5.0,
            elevation_limits=(-40.0, 90.0),
            length=16,
        )
    )
    assert len(raw.coords.directions) == 1944
    for order in (2, 4, 8):
        model = fit_basis_model("", raw, "fourier", order)
        diff = DirectivityDiff("", raw, model)
        assert diff.coords.directions is not raw.coords.directions
        balloon = diff.balloon_grid(1000.0)
        assert len(balloon.values) == 1944
    assert builds == [1944]


def test_fitted_model_equals_the_publicly_built_one(tmp_path):
    raw = _polar_grid_raw(SEED + 51)
    for family in ("fourier", "cosine"):
        model = fit_basis_model("fit", raw, family, 5)
        public = BasisSpectrumModel(
            "fit", family, model.coefficients, model.source_bins,
            raw.coords.directions, raw.coords.distances,
        )
        assert model.coords == public.coords
        assert model.coords.directions is raw.coords.directions
        assert model._coefficients.flags.c_contiguous
        write_dirm(model, tmp_path / f"{family}.dirm")
        back = read_dirm(tmp_path / f"{family}.dirm")
        assert back.coords == model.coords
        requests = (
            CoordinateSet(
                directions=raw.coords.directions,
                frequencies=model.source_bins,
                distances=raw.coords.distances,
            ),
            CoordinateSet(
                directions=[(17.0, 85.0), (200.0, -31.0), (0.0, 0.0)],
                frequencies=(0.0, 1234.5, 9000.0),
                distances=(1.4, 3.0),
            ),
        )
        for request in requests:
            for datatype in sorted(model.supported_datatypes, key=lambda t: t.value):
                want = public.get_data_matrix(request, datatype)
                for obj in (model, back):
                    got = obj.get_data_matrix(request, datatype)
                    assert np.array_equal(got.values, want.values)
                    assert got.coords == want.coords


def test_fitting_unvalidated_coordinates_checks_them_as_before():
    # A diff's coordinates are a read's actual coordinates: here the 12
    # zenith rows all land on the first, so they hold one direction 12
    # times, which no validated set holds.
    raw = _polar_grid_raw(SEED + 52)
    diff = DirectivityDiff("", raw, raw)
    with pytest.raises(ValueError, match=r"duplicate direction \(0\.0, 90\.0\)"):
        fit_basis_model("", diff, "fourier", 2)
    # Two requested bins that land on one stored bin, and two requested
    # distances that land on one stored distance.
    ring = synth_test_set(SynthSpec(mode="lowpass", length=64))
    for freqs, dists, message in (
        ((700.0, 800.0, 1500.0), (1.0,), r"not strictly ascending at 750\.0, 750\.0"),
        ((700.0, 1500.0), (0.5, 0.7), r"distance vector not strictly ascending at 1\.0, 1\.0"),
    ):
        at = CoordinateSet(directions=ring.coords.directions, frequencies=freqs, distances=dists)
        with pytest.raises(ValueError, match=message):
            fit_basis_model("", DirectivityDiff("", ring, ring, at=at), "fourier", 1)
