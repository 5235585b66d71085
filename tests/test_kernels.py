"""Numeric kernels against brute-force and closed-form oracles."""

import numpy as np
import pytest
from conftest import traced_peak

from dirkit import kernels
from dirkit.coords import CoordinateSet, discrete_read_indices
from dirkit.kernels import (
    cosine_basis,
    direction_index,
    fourier_basis,
    nearest_direction,
    nearest_value,
)

SEED = 20240812


def _random_directions(rng, n):
    az = rng.uniform(0, 360, n)
    el = np.degrees(np.arcsin(rng.uniform(-1, 1, n)))
    return az, el


def _angle_matrix(base_az, base_el, req_az, req_el):
    """Great-circle angles between every request and every base entry."""
    def unit(az, el):
        a, e = np.radians(az), np.radians(el)
        return np.stack(
            [np.cos(e) * np.cos(a), np.cos(e) * np.sin(a), np.sin(e)], axis=-1
        )

    dots = unit(req_az, req_el) @ unit(base_az, base_el).T
    return np.arccos(np.clip(dots, -1.0, 1.0))


# --------------------------------------------------------------------------
# nearest_direction
# --------------------------------------------------------------------------

def test_nearest_direction_matches_brute_force():
    rng = np.random.default_rng(SEED)
    base_az, base_el = _random_directions(rng, 50)
    req_az, req_el = _random_directions(rng, 80)
    idx = nearest_direction(direction_index(base_az, base_el), req_az, req_el)
    expected = np.argmin(_angle_matrix(base_az, base_el, req_az, req_el), axis=1)
    assert np.array_equal(idx, expected)


def test_nearest_direction_tie_takes_first_index():
    base_az = np.array([10.0, 10.0, 200.0])
    base_el = np.array([5.0, 5.0, 0.0])
    idx = nearest_direction(
        direction_index(base_az, base_el), np.array([10.0]), np.array([5.0])
    )
    assert int(idx[0]) == 0


def test_nearest_direction_antipodal_midpoint_resolved_consistently():
    # request exactly between the two base points: both 90 degrees away
    base_az = np.array([0.0, 180.0])
    base_el = np.array([0.0, 0.0])
    idx = nearest_direction(
        direction_index(base_az, base_el), np.array([90.0]), np.array([0.0])
    )
    assert int(idx[0]) == 0


def test_nearest_direction_empty_base_rejected():
    with pytest.raises(ValueError):
        nearest_direction(
            direction_index(np.array([]), np.array([])),
            np.array([0.0]),
            np.array([0.0]),
        )


def test_nearest_direction_memory_stays_bounded():
    # A full 4000 x 4000 chord matrix would take 128 MB per temporary.
    rng = np.random.default_rng(SEED + 4)
    base_az, base_el = _random_directions(rng, 4000)
    req_az, req_el = _random_directions(rng, 4000)
    _, peak = traced_peak(
        lambda: nearest_direction(direction_index(base_az, base_el), req_az, req_el)
    )
    assert peak < 16 * 2**20


def _first_smallest_chord(base_az, base_el, req_az, req_el):
    """The full scan: first index of the smallest squared chord between
    search vectors, per request."""
    bx, by, bz = kernels._search_vectors(base_az, base_el)
    rx, ry, rz = kernels._search_vectors(req_az, req_el)
    return [
        int(np.argmin((x - bx) ** 2 + (y - by) ** 2 + (z - bz) ** 2))
        for x, y, z in zip(rx, ry, rz)
    ]


def _spy_compared(monkeypatch):
    """Log, per searched request, its band's slab count and the number of
    stored directions its windows compare."""
    log, bands = [], []
    windows, best_in_runs = kernels._windows, kernels._best_in_runs

    def spy_windows(index, table, first, slabs):
        bands.append(slabs.tolist())
        return windows(index, table, first, slabs)

    def spy_best(index, req, starts, lengths, runs):
        compared = np.add.reduceat(lengths, np.cumsum(runs) - runs)
        log.extend(zip(bands.pop(0), compared.tolist()))
        return best_in_runs(index, req, starts, lengths, runs)

    monkeypatch.setattr(kernels, "_windows", spy_windows)
    monkeypatch.setattr(kernels, "_best_in_runs", spy_best)
    return log


def test_nearest_direction_memory_stays_bounded_when_bands_span_the_set(monkeypatch):
    # Stored directions 4 to 5 degrees from the zenith, requests at the
    # nadir: the nearest stored direction is so little nearer than the
    # farthest that every z band holds all 4000 stored directions.
    rng = np.random.default_rng(SEED + 5)
    base_az, base_el = rng.uniform(0, 360, 4000), rng.uniform(85, 86, 4000)
    req_az, req_el = rng.uniform(0, 360, 4000), np.full(4000, -90.0)
    index = direction_index(base_az, base_el)
    log = _spy_compared(monkeypatch)
    got, peak = traced_peak(lambda: nearest_direction(index, req_az, req_el))
    assert peak < 16 * 2**20
    # Every band spans all slabs, 4000 x 63 (request, slab) pairs in all;
    # the windows keep the whole lowest slab, which holds the nearest
    # direction, and no direction of any other.
    assert len(log) == 4000
    assert {slabs for slabs, _ in log} == {len(index.starts) - 1}
    assert {compared for _, compared in log} == {index.starts[1]}
    assert got.tolist() == _first_smallest_chord(base_az, base_el, req_az, req_el)


def _grid(step, floor):
    el, az = np.meshgrid(np.arange(floor, 90.0 + step / 2, step), np.arange(0.0, 360.0, step))
    return az.T.ravel(), el.T.ravel()


def test_requests_far_below_a_grid_compare_one_window_per_ring(monkeypatch):
    # The 2 degree grid above -40 degrees: a request at -60 degrees or
    # below is 20 to 50 degrees from every stored direction, so its z band
    # spans up to 20 rings of 180.
    base_az, base_el = _grid(2.0, -40.0)
    assert base_az.shape == (11880,)
    rng = np.random.default_rng(SEED + 6)
    req_az = np.concatenate([rng.uniform(0, 360, 200), [0.0, 123.4]])
    req_el = np.concatenate([rng.uniform(-90, -60, 200), [-90.0, -90.0]])
    log = _spy_compared(monkeypatch)
    got = nearest_direction(direction_index(base_az, base_el), req_az, req_el)
    assert max(compared for _, compared in log) <= 300
    assert max(slabs for slabs, _ in log) > 10
    assert got.tolist() == _first_smallest_chord(base_az, base_el, req_az, req_el)


def test_a_read_at_a_separate_band_of_stored_directions_compares_few(monkeypatch):
    # The 1980 directions within 10 degrees of the horizontal plane, taken
    # from the stored set into a tuple of their own, are searched in full.
    base_az, base_el = _grid(2.0, -40.0)
    stored = CoordinateSet(directions=list(zip(base_az, base_el)), frequencies=(100.0,))
    rows = np.flatnonzero(np.abs(base_el) <= 10.0)
    band = CoordinateSet(
        directions=[stored.directions[i] for i in rows], frequencies=(100.0,)
    )
    assert len(band.directions) == 1980
    log = _spy_compared(monkeypatch)
    d_idx, _, _, _ = discrete_read_indices(stored, band)
    assert d_idx.tolist() == rows.tolist()
    assert len(log) == 1980
    assert max(compared for _, compared in log) <= 50


def test_search_matches_the_full_scan_on_the_benchmark_grid():
    # The 11880-direction 2 degree grid above -40 degrees of the off-grid
    # read benchmark: every 8th stored direction, 2000 seeded requests
    # uniform on the sphere, and 50 each at the zenith and at the nadir.
    base_az, base_el = _grid(2.0, -40.0)
    rng = np.random.default_rng(SEED + 7)
    uniform = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, 2000)))
    req_az = np.concatenate([base_az[::8], rng.uniform(0.0, 360.0, 2100)])
    req_el = np.concatenate([base_el[::8], uniform, np.full(50, 90.0), np.full(50, -90.0)])
    got = nearest_direction(direction_index(base_az, base_el), req_az, req_el)
    assert got.tolist() == _first_smallest_chord(base_az, base_el, req_az, req_el)


def test_nearest_direction_of_no_request_is_an_empty_index():
    index = direction_index(np.array([0.0, 90.0]), np.array([0.0, 45.0]))
    got = nearest_direction(index, np.array([]), np.array([]))
    assert got.dtype == np.int64
    assert got.shape == (0,)


def test_nearest_direction_rejects_non_finite_requests():
    index = direction_index(np.array([0.0, 90.0]), np.array([0.0, 45.0]))
    for az, el in ((np.nan, 0.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            nearest_direction(index, np.array([10.0, az]), np.array([0.0, el]))


# --------------------------------------------------------------------------
# nearest_value
# --------------------------------------------------------------------------

def test_nearest_value_matches_brute_force():
    rng = np.random.default_rng(SEED + 1)
    base = np.sort(rng.uniform(0, 20000, 30))
    req = rng.uniform(-1000, 25000, 100)
    idx = nearest_value(base, req)
    expected = np.argmin(np.abs(req[:, None] - base[None, :]), axis=1)
    assert np.array_equal(idx, expected)


def test_nearest_value_tie_takes_first_index():
    base = np.array([100.0, 200.0])
    idx = nearest_value(base, np.array([150.0]))
    assert int(idx[0]) == 0


def test_nearest_value_compares_in_chunks_of_rows(monkeypatch):
    # Unsorted stored values with repeats, against the whole comparison
    # matrix, whatever the chunk size.
    rng = np.random.default_rng(SEED + 8)
    base = rng.choice(rng.uniform(-50.0, 50.0, 40), 60)
    req = np.concatenate([base, rng.uniform(-60.0, 60.0, 77)])
    expected = np.argmin(np.abs(req[:, None] - base[None, :]), axis=1).tolist()
    for chunk in (1, 59, 60, 61, 1000, 1 << 16):
        monkeypatch.setattr(kernels, "_VALUE_CHUNK_ELEMENTS", chunk)
        got = nearest_value(base, req)
        assert got.dtype == np.int64
        assert got.tolist() == expected


def test_nearest_value_empty_base_rejected():
    with pytest.raises(ValueError):
        nearest_value(np.array([]), np.array([1.0]))


# --------------------------------------------------------------------------
# basis matrices
# --------------------------------------------------------------------------

def _fourier_oracle(order, x):
    cols = []
    for k in range(order):
        if k == 0:
            cols.append(np.ones_like(x))
        elif k % 2 == 1:
            m = (k + 1) // 2
            cols.append(np.cos(2 * np.pi * m * x))
        else:
            m = k // 2
            cols.append(np.sin(2 * np.pi * m * x))
    return np.stack(cols, axis=1)


def _cosine_oracle(order, x):
    return np.stack([np.cos(k * np.pi * x) for k in range(order)], axis=1)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
def test_fourier_basis_matches_formula(order):
    rng = np.random.default_rng(SEED + 2)
    x = rng.uniform(0, 1, 40)
    got = fourier_basis(order, x)
    np.testing.assert_allclose(got, _fourier_oracle(order, x), atol=1e-14)


def test_fourier_basis_equals_the_per_column_formula_bit_for_bit():
    # The matrix is filled by one cos and one sin call over all harmonics;
    # every column must equal its own per-column evaluation exactly.
    rng = np.random.default_rng(SEED + 4)
    grids = [np.zeros(0), np.array([0.3])]
    for n in (7, 128, 1000):
        grids += [np.linspace(0.0, 1.0, n), rng.uniform(-3.0, 3.0, n), np.geomspace(1e-6, 50.0, n)]
    for x in grids:
        for order in range(1, 66):
            assert np.array_equal(fourier_basis(order, x), _fourier_oracle(order, x))


@pytest.mark.parametrize("order", [1, 2, 5, 8])
def test_cosine_basis_matches_formula(order):
    rng = np.random.default_rng(SEED + 3)
    x = rng.uniform(0, 1, 40)
    got = cosine_basis(order, x)
    np.testing.assert_allclose(got, _cosine_oracle(order, x), atol=1e-14)


def test_fourier_first_column_is_constant():
    mat = fourier_basis(4, np.array([0.0, 0.25, 0.5, 0.75]))
    np.testing.assert_array_equal(mat[:, 0], 1.0)


def test_cosine_basis_at_zero_is_all_ones():
    mat = cosine_basis(6, np.array([0.0]))
    np.testing.assert_allclose(mat[0], np.ones(6), atol=1e-15)


@pytest.mark.parametrize("order", [0, -3])
def test_non_positive_order_rejected(order):
    with pytest.raises(ValueError):
        fourier_basis(order, np.array([0.0]))
    with pytest.raises(ValueError):
        cosine_basis(order, np.array([0.0]))
