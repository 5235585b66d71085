"""Conformance of every representation to the shared read contract."""

import numpy as np
import pytest

from dirkit import (
    Continuity,
    CoordinateSet,
    DataType,
    DirectivityDiff,
    SynthSpec,
    UnsupportedDatatypeError,
    coerce,
    fit_basis_model,
    synth_test_set,
)

SEED = 20240813

SPEC = SynthSpec(mode="lowpass", azimuth_step=30.0, elevation_step=15.0,
                 elevation_limits=(-30.0, 30.0), length=32)


def build_raw():
    return synth_test_set(SPEC)


def build_model():
    return fit_basis_model("model", build_raw(), "fourier", 5)


def build_diff():
    raw = build_raw()
    model = fit_basis_model("", raw, "fourier", 5)
    at = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=raw.coords.frequencies[1:],
        distances=raw.coords.distances,
    )
    return DirectivityDiff("", raw, model, at=at)


FACTORIES = {
    "raw": build_raw,
    "model": build_model,
    "diff": build_diff,
}


@pytest.fixture(params=sorted(FACTORIES))
def obj(request):
    return FACTORIES[request.param]()


def _any_supported(obj):
    order = (
        DataType.LOG_MAGNITUDE,
        DataType.LINEAR_MAGNITUDE,
        DataType.COMPLEX_SPECTRUM,
        DataType.POWER_SPECTRUM,
        DataType.IMPULSE_RESPONSES,
    )
    return next(t for t in order if t in obj.supported_datatypes)


def _probe_request(obj):
    """A small discrete request that lands inside every representation."""
    return CoordinateSet(
        directions=[(30.0, 0.0), (182.0, 11.0)],
        frequencies=(2000.0, 3000.0, 7000.0),
        distances=(1.0,),
    )


def test_info_and_coords_types(obj):
    assert isinstance(obj.info, str)
    assert isinstance(obj.coords, CoordinateSet)
    assert isinstance(obj.supported_datatypes, frozenset)
    assert len(obj.supported_datatypes) > 0


def test_immutable_surface(obj):
    with pytest.raises(AttributeError):
        obj.info = "other"
    with pytest.raises(AttributeError):
        obj.coords = obj.coords
    with pytest.raises(AttributeError):
        obj.supported_datatypes = frozenset()


def _random_requests(count, seed=SEED):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n_dirs = int(rng.integers(1, 5))
        yield CoordinateSet(
            directions=list(zip(rng.uniform(-30, 390, n_dirs),
                                rng.uniform(-90, 90, n_dirs))),
            frequencies=np.unique(rng.uniform(0, 30000, 3)),
            distances=np.unique(rng.uniform(0.1, 3.0, 2)),
        )


def test_actual_coords_are_a_coercion_fixed_point(obj):
    datatype = _any_supported(obj)
    request = _probe_request(obj)
    volume = obj.get_data_matrix(request, datatype)
    again = coerce(obj.coords, volume.coords)
    assert not again.changed
    assert again.coords.directions == volume.coords.directions
    assert again.coords.frequencies == volume.coords.frequencies
    assert again.coords.distances == volume.coords.distances
    # Reads land exactly where coerce_onto says they will.
    for request in [request, *_random_requests(20)]:
        volume = obj.get_data_matrix(request, datatype)
        assert volume.coords == obj.coerce_onto(request).coords


def test_reading_at_actual_coords_returns_identical_values(obj):
    datatype = _any_supported(obj)
    first = obj.get_data_matrix(_probe_request(obj), datatype)
    second = obj.get_data_matrix(first.coords, datatype)
    np.testing.assert_array_equal(first.values, second.values)
    assert second.coords.directions == first.coords.directions
    assert second.coords.frequencies == first.coords.frequencies


def test_reads_are_deterministic(obj):
    datatype = _any_supported(obj)
    a = obj.get_data_matrix(_probe_request(obj), datatype)
    b = obj.get_data_matrix(_probe_request(obj), datatype)
    np.testing.assert_array_equal(a.values, b.values)


def test_volume_shape_matches_request(obj):
    datatype = _any_supported(obj)
    request = _probe_request(obj)
    volume = obj.get_data_matrix(request, datatype)
    expected = request.shape
    if datatype is DataType.IMPULSE_RESPONSES:
        assert volume.values.shape[0] == expected[0]
        assert volume.values.shape[2] == expected[2]
    else:
        assert volume.values.shape == expected
    assert volume.datatype is datatype
    assert volume.coords.is_discrete


def test_vector_read_flattens_direction_fastest(obj):
    datatype = _any_supported(obj)
    request = _probe_request(obj)
    volume = obj.get_data_matrix(request, datatype)
    vector, actual = obj.get_data_vector(request, datatype)
    assert actual.directions == volume.coords.directions
    d, f, r = volume.values.shape
    assert vector.shape == (d * f * r,)
    for ri in range(r):
        for fi in range(f):
            for di in range(d):
                assert vector[di + fi * d + ri * d * f] == volume.values[di, fi, ri]


CONTINUOUS_REQUESTS = {
    "direction": CoordinateSet(
        directions=(-30.0, 30.0),
        frequencies=(2000.0,),
        continuity=Continuity(direction=True),
    ),
    "frequency": CoordinateSet(
        directions=[(30.0, 0.0)],
        frequencies=(2000.0, 7000.0),
        continuity=Continuity(frequency=True),
    ),
    "distance": CoordinateSet(
        directions=[(30.0, 0.0)],
        frequencies=(2000.0,),
        distances=(0.5, 2.0),
        continuity=Continuity(distance=True),
    ),
}


@pytest.mark.parametrize("dimension", sorted(CONTINUOUS_REQUESTS))
def test_matrix_reads_reject_continuous_requests(obj, dimension):
    """One rule for every representation: the message names the dimension
    and the sampled reads that serve continuous ranges."""
    request = CONTINUOUS_REQUESTS[dimension]
    with pytest.raises(ValueError, match=rf"continuous {dimension} .*spectrum_series"):
        obj.get_data_matrix(request, _any_supported(obj))


def test_unsupported_datatypes_raise(obj):
    request = _probe_request(obj)
    for datatype in set(DataType) - obj.supported_datatypes:
        with pytest.raises(UnsupportedDatatypeError):
            obj.get_data_matrix(request, datatype)


def test_magnitude_datatypes_are_mutually_consistent(obj):
    supported = obj.supported_datatypes
    magnitudes = {
        DataType.LOG_MAGNITUDE,
        DataType.LINEAR_MAGNITUDE,
        DataType.POWER_SPECTRUM,
    }
    if not magnitudes <= supported:
        pytest.skip("representation does not serve all magnitude datatypes")
    request = _probe_request(obj)
    lin = obj.get_data_matrix(request, DataType.LINEAR_MAGNITUDE).values
    power = obj.get_data_matrix(request, DataType.POWER_SPECTRUM).values
    log = obj.get_data_matrix(request, DataType.LOG_MAGNITUDE).values
    np.testing.assert_allclose(power, lin**2, rtol=1e-12)
    assert np.all(lin > 0)
    np.testing.assert_allclose(log, 20 * np.log10(lin), atol=1e-9)
