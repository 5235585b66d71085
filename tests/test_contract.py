"""Conformance of every representation to the shared read contract."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirkit import (
    Continuity,
    CoordinateSet,
    DataType,
    DirectivityDiff,
    Direction,
    RawIRs,
    SynthSpec,
    UnsupportedDatatypeError,
    coerce,
    fit_basis_model,
    synth_test_set,
)
from dirkit.diff import HORIZONTAL_TOL_DEG
from dirkit.formats import read_dird, write_dird

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


# --------------------------------------------------------------------------
# Every matrix read returns a C-contiguous volume
# --------------------------------------------------------------------------

def _two_distance_raw(gain=1.0):
    """A noise set on SPEC's directions at two distances."""
    base = build_raw()
    rng = np.random.default_rng(SEED + 1)
    irs = gain * rng.standard_normal((len(base.coords.directions), base.ir_length, 2))
    return RawIRs("two distances", irs, base.sample_rate, base.coords.directions,
                  (1.0, 2.0))


def _contiguity_objects():
    raw = _two_distance_raw()
    model = fit_basis_model("", raw, "fourier", 5)
    at = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=raw.coords.frequencies[1:],
        distances=raw.coords.distances,
    )
    other = _two_distance_raw(gain=0.5)
    diffs = {
        DataType.LOG_MAGNITUDE: DirectivityDiff("", raw, model, at, DataType.LOG_MAGNITUDE),
        DataType.LINEAR_MAGNITUDE: DirectivityDiff(
            "", raw, model, at, DataType.LINEAR_MAGNITUDE
        ),
        DataType.COMPLEX_SPECTRUM: DirectivityDiff(
            "", raw, other, at, DataType.COMPLEX_SPECTRUM
        ),
    }
    return raw, model, diffs, at


CONTIGUITY_CASES = (
    [("raw", t) for t in DataType]
    + [("model", t) for t in (DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE,
                              DataType.POWER_SPECTRUM)]
    + [("diff", t) for t in (DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE,
                             DataType.COMPLEX_SPECTRUM)]
)


def _contiguity_requests(at):
    return {
        "on-grid": at,
        "off-grid": CoordinateSet(
            directions=[(31.0, 1.0), (182.0, 11.0), (359.0, -29.0)],
            frequencies=(1900.0, 3100.0, 7000.0, 9001.0),
            distances=(1.4,),
        ),
        "single-direction": CoordinateSet(
            directions=[(60.0, 15.0)],
            frequencies=at.frequencies,
            distances=at.distances,
        ),
        "multi-distance": CoordinateSet(
            directions=at.directions[:7],
            frequencies=at.frequencies[2:9],
            distances=(0.5, 1.2, 1.8, 3.0),
        ),
    }


@pytest.fixture(scope="module")
def contiguity_objects():
    return _contiguity_objects()


@pytest.mark.parametrize("request_name",
                         ["on-grid", "off-grid", "single-direction", "multi-distance"])
@pytest.mark.parametrize("kind, datatype", CONTIGUITY_CASES,
                         ids=[f"{k}-{t.value}" for k, t in CONTIGUITY_CASES])
def test_matrix_reads_are_c_contiguous(contiguity_objects, kind, datatype, request_name):
    raw, model, diffs, at = contiguity_objects
    obj = {"raw": raw, "model": model, "diff": diffs.get(datatype)}[kind]
    volume = obj.get_data_matrix(_contiguity_requests(at)[request_name], datatype)
    assert volume.values.flags["C_CONTIGUOUS"]


@st.composite
def _requests_around(draw, at):
    """A discrete request: some of the directions, frequencies and distances
    of `at`, and drawn ones anywhere."""
    anywhere = st.tuples(st.floats(min_value=-720.0, max_value=720.0),
                         st.floats(min_value=-90.0, max_value=90.0))
    stored = st.sampled_from(at.directions).map(lambda d: (d.azimuth, d.elevation))
    pairs = draw(st.lists(stored | anywhere, min_size=1, max_size=6))
    directions = list({(d.azimuth, d.elevation): d
                       for d in (Direction(az, el) for az, el in pairs)}.values())
    frequencies = draw(st.lists(st.sampled_from(at.frequencies)
                                | st.floats(min_value=0.0, max_value=30000.0),
                                min_size=1, max_size=4))
    distances = draw(st.lists(st.sampled_from(at.distances)
                              | st.floats(min_value=0.1, max_value=3.0),
                              min_size=1, max_size=3))
    return CoordinateSet(directions=directions, frequencies=sorted(set(frequencies)),
                         distances=sorted(set(distances)))


@pytest.mark.parametrize("kind", ["raw", "model", "diff"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_matrix_read_is_c_contiguous(contiguity_objects, kind, data):
    raw, model, diffs, at = contiguity_objects
    request = data.draw(_requests_around(at))
    for case_kind, datatype in CONTIGUITY_CASES:
        if case_kind == kind:
            obj = {"raw": raw, "model": model, "diff": diffs.get(datatype)}[kind]
            assert obj.get_data_matrix(request, datatype).values.flags["C_CONTIGUOUS"]


# --------------------------------------------------------------------------
# A diff of an object with itself is zero and warns nothing
# --------------------------------------------------------------------------

SELF_DIFF_CASES = (
    [("raw", t) for t in (DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE,
                          DataType.COMPLEX_SPECTRUM)]
    + [("model", t) for t in (DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE)]
    + [("diff", DataType.LOG_MAGNITUDE)]
)


@pytest.mark.parametrize("kind, datatype", SELF_DIFF_CASES,
                         ids=[f"{k}-{t.value}" for k, t in SELF_DIFF_CASES])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_diff_with_itself_is_zero_and_warns_nothing(contiguity_objects, kind, datatype,
                                                       data):
    raw, model, diffs, at = contiguity_objects
    obj = {"raw": raw, "model": model, "diff": diffs[DataType.LOG_MAGNITUDE]}[kind]
    request = data.draw(st.just(at) | _requests_around(at))
    measure = "sd" if datatype is DataType.LOG_MAGNITUDE else "mse"
    first = CoordinateSet(directions=request.directions[:1],
                          frequencies=request.frequencies, distances=request.distances)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diff = DirectivityDiff("", obj, obj, request, datatype)
        aggregate = diff.compute_sd if measure == "sd" else diff.compute_mse
        errors = [aggregate(), aggregate(over=first), *diff.error_vs_frequency(measure)[1]]
        if (np.abs(diff.coords.elevation_array) <= HORIZONTAL_TOL_DEG).any():
            errors += list(diff.error_horizontal(measure)[1])
    assert not diff.coordinate_warning
    assert errors == [0.0] * len(errors)


# --------------------------------------------------------------------------
# Every matrix read returns a new array of its own
# --------------------------------------------------------------------------

@pytest.mark.parametrize("request_name",
                         ["on-grid", "off-grid", "single-direction", "multi-distance"])
@pytest.mark.parametrize("kind, datatype", CONTIGUITY_CASES,
                         ids=[f"{k}-{t.value}" for k, t in CONTIGUITY_CASES])
def test_writing_into_a_read_changes_no_later_read(contiguity_objects, kind, datatype,
                                                   request_name):
    raw, model, diffs, at = contiguity_objects
    obj = {"raw": raw, "model": model, "diff": diffs.get(datatype)}[kind]
    request = _contiguity_requests(at)[request_name]
    first = obj.get_data_matrix(request, datatype).values
    kept = first.copy()
    first[...] = -7.0
    np.testing.assert_array_equal(obj.get_data_matrix(request, datatype).values, kept)


@pytest.mark.parametrize("datatype", [DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE,
                                      DataType.COMPLEX_SPECTRUM],
                         ids=lambda t: t.value)
def test_a_diff_keeps_its_differences_apart_from_its_inputs(datatype):
    raw = _two_distance_raw()
    evaluand = (_two_distance_raw(gain=0.5) if datatype is DataType.COMPLEX_SPECTRUM
                else fit_basis_model("", raw, "fourier", 5))
    at = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=raw.coords.frequencies[1:],
        distances=raw.coords.distances,
    )
    before = [obj.get_data_matrix(at, datatype).values for obj in (raw, evaluand)]
    diff = DirectivityDiff("", raw, evaluand, at, datatype)
    # The stored arrays behind `differences` and `reference_values`.
    assert not np.shares_memory(diff._diff, diff._reference)
    assert not np.shares_memory(diff.differences, diff.reference_values)
    np.testing.assert_array_equal(diff.differences, before[1] - before[0])
    np.testing.assert_array_equal(diff.reference_values, before[0])
    for obj, values in zip((raw, evaluand), before):
        np.testing.assert_array_equal(obj.get_data_matrix(at, datatype).values, values)


# --------------------------------------------------------------------------
# A matrix read at off-grid directions is the stack of single-direction reads
# --------------------------------------------------------------------------

# Stops at -40 degrees, so requests below it search far from every
# stored direction.
CAP_SPEC = SynthSpec(mode="lowpass", azimuth_step=20.0, elevation_step=10.0,
                     elevation_limits=(-40.0, 90.0), length=32)


@pytest.fixture(scope="module")
def cap_objects():
    raw = synth_test_set(CAP_SPEC)
    model = fit_basis_model("", raw, "fourier", 5)
    return {"raw": raw, "model": model, "diff": DirectivityDiff("", raw, model)}


@pytest.mark.parametrize("kind", ["raw", "model", "diff"])
@settings(max_examples=40, deadline=None)
@given(pairs=st.lists(
    st.tuples(st.floats(min_value=-720.0, max_value=720.0),
              st.floats(min_value=-90.0, max_value=90.0)),
    min_size=1, max_size=8,
))
def test_matrix_read_is_the_stack_of_single_direction_reads(cap_objects, kind, pairs):
    obj = cap_objects[kind]
    directions = list({(d.azimuth, d.elevation): d
                       for d in (Direction(az, el) for az, el in pairs)}.values())
    frequencies, distances = (1000.0, 3000.0, 7000.0), (1.0,)
    volume = obj.get_data_matrix(
        CoordinateSet(directions=directions, frequencies=frequencies, distances=distances),
        DataType.LOG_MAGNITUDE,
    )
    singles = [
        obj.get_data_matrix(
            CoordinateSet(directions=[d], frequencies=frequencies, distances=distances),
            DataType.LOG_MAGNITUDE,
        )
        for d in directions
    ]
    stacked = np.concatenate([single.values for single in singles], axis=0)
    assert volume.values.tobytes() == stacked.tobytes()
    assert volume.coords.directions == tuple(s.coords.directions[0] for s in singles)
    for single in singles:
        assert single.coords.frequencies == volume.coords.frequencies
        assert single.coords.distances == volume.coords.distances


# --------------------------------------------------------------------------
# Coercion is idempotent, and a read lands where coerce_onto says
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def crowded_objects():
    # Both poles stored 12 times each, two directions 1e-10 degrees apart,
    # an azimuth of 1e-20 and the zenith once more at another azimuth.
    directions = [
        (30.0 * a, el) for el in (-90.0, -45.0, 0.0, 45.0, 90.0) for a in range(12)
    ] + [(30.0 + 1e-10, 0.0), (1e-20, 20.0), (2.5, 90.0)]
    rng = np.random.default_rng(SEED)
    raw = RawIRs("crowded", rng.standard_normal((len(directions), 32, 2)), 16000.0,
                 directions, (1.0, 2.0))
    model = fit_basis_model("", raw, "fourier", 5)
    return {"raw": raw, "model": model, "diff": DirectivityDiff("", raw, model)}


_request_directions = st.one_of(
    # Poles at any azimuth.
    st.tuples(st.floats(min_value=-720.0, max_value=720.0), st.sampled_from([90.0, -90.0])),
    # Azimuths within 1e-20 of 0 and of 360.
    st.tuples(
        st.sampled_from([0.0, -0.0, 1e-20, -1e-20, 360.0, 360.0 + 1e-20, -360.0 - 1e-20]),
        st.floats(min_value=-90.0, max_value=90.0),
    ),
    # At, between and beside the crowded pair.
    st.tuples(
        st.sampled_from([30.0, 30.0 + 1e-10, 30.0 + 5e-11, 30.0 - 1e-10, 29.0, 31.0]),
        st.sampled_from([0.0, 1e-10, -1e-10]),
    ),
    st.tuples(st.floats(min_value=-720.0, max_value=720.0),
              st.floats(min_value=-90.0, max_value=90.0)),
)


def _limits(values):
    return st.lists(values, min_size=2, max_size=2).map(sorted)


@st.composite
def coercion_requests(draw):
    """Any CoordinateSet: discrete or continuous in each dimension."""
    flags = Continuity(*(draw(st.booleans()) for _ in range(3)))
    elevations = st.floats(min_value=-90.0, max_value=90.0)
    frequencies = st.floats(min_value=0.0, max_value=30000.0)
    distances = st.floats(min_value=0.1, max_value=3.0)
    if flags.direction:
        dirs = draw(_limits(elevations))
    else:
        pairs = draw(st.lists(_request_directions, min_size=1, max_size=8))
        dirs = list({(d.azimuth, d.elevation): d
                     for d in (Direction(az, el) for az, el in pairs)}.values())
    if flags.frequency:
        freqs = draw(_limits(frequencies))
    else:
        freqs = sorted(set(draw(st.lists(frequencies, min_size=1, max_size=3))))
    if flags.distance:
        dists = draw(_limits(distances))
    else:
        dists = sorted(set(draw(st.lists(distances, min_size=1, max_size=3))))
    return CoordinateSet(directions=dirs, frequencies=freqs, distances=dists,
                         continuity=flags)


def _full_scan(stored, wanted):
    """Per wanted direction, the first stored index of the smallest squared
    chord between unit vectors with x = y = 0 at the poles and every
    component below 2**-480 in magnitude set to 0, scanning every stored
    direction."""
    def units(dirs):
        el = np.array([d.elevation for d in dirs], dtype=np.float64)
        az = np.deg2rad(np.array([d.azimuth for d in dirs], dtype=np.float64))
        rad, pole = np.deg2rad(el), np.abs(el) == 90.0
        x = np.where(pole, 0.0, np.cos(rad) * np.cos(az))
        y = np.where(pole, 0.0, np.cos(rad) * np.sin(az))
        return [np.where(np.abs(v) < 2.0**-480, 0.0, v) for v in (x, y, np.sin(rad))]

    bx, by, bz = units(stored)
    return [
        int(np.argmin((x - bx) ** 2 + (y - by) ** 2 + (z - bz) ** 2))
        for x, y, z in zip(*units(wanted))
    ]


@pytest.mark.parametrize("kind", ["raw", "model", "diff"])
@settings(max_examples=60, deadline=None)
@given(request=coercion_requests())
def test_coercion_is_idempotent_and_reads_land_on_it(crowded_objects, kind, request):
    obj = crowded_objects[kind]
    first = obj.coerce_onto(request)
    assert first.coords.continuity == request.continuity
    if request.is_discrete:
        volume = obj.get_data_matrix(request, DataType.LOG_MAGNITUDE)
        assert volume.coords == first.coords
    again = obj.coerce_onto(first.coords)
    assert again.coords.frequencies == first.coords.frequencies
    assert again.coords.distances == first.coords.distances
    expected = first.coords.directions
    if not request.continuity.direction:
        # A request at a stored direction lands on the first stored one
        # with the same search vector: itself, except for a pole copy,
        # which lands on the first copy, which stays where it is.
        stored = obj.coords.directions
        expected = tuple(stored[i] for i in _full_scan(stored, expected))
    assert again.coords.directions == expected
    assert again.changed == (expected != first.coords.directions)
    assert obj.coerce_onto(again.coords) == (again.coords, False)


@pytest.mark.parametrize("pair, asked", [
    # A request beside the pair lands on the second, which a rounded dot
    # product would tie with the first.
    ((30.0, 0.0), (31.0, 0.0)),
    # A rounded dot product ranks each of these two below the other.
    ((224.347, -5.22), (224.347, -5.22)),
])
def test_coercion_is_idempotent_at_a_crowded_pair(pair, asked):
    az, el = pair
    directions = [(30.0 * a, e) for e in (-60.0, 30.0, 60.0) for a in range(12)]
    directions += [(az, el), (az + 1e-10, el)]
    rng = np.random.default_rng(SEED)
    raw = RawIRs("pair", rng.standard_normal((len(directions), 32, 1)), 16000.0,
                 directions, (1.0,))
    first = raw.coerce_onto(CoordinateSet(directions=[asked], frequencies=(1000.0,)))
    assert raw.coerce_onto(first.coords) == (first.coords, False)


@st.composite
def _coordinate_sets(draw):
    """Any CoordinateSet: each dimension discrete or continuous, and a
    discrete direction or frequency list empty or not."""
    flags = Continuity(*(draw(st.booleans()) for _ in range(3)))
    elevations = st.floats(min_value=-90.0, max_value=90.0)
    frequencies = st.floats(min_value=0.0, max_value=30000.0)
    distances = st.floats(min_value=0.1, max_value=3.0)
    if flags.direction:
        dirs = draw(_limits(elevations))
    else:
        azimuths = st.floats(min_value=0.0, max_value=360.0, exclude_max=True)
        dirs = draw(st.lists(st.tuples(azimuths, elevations), max_size=4, unique=True))
    if flags.frequency:
        freqs = draw(_limits(frequencies))
    else:
        freqs = sorted(draw(st.sets(frequencies, max_size=3)))
    if flags.distance:
        dists = draw(_limits(distances))
    else:
        dists = sorted(draw(st.sets(distances, min_size=1, max_size=3)))
    return CoordinateSet(directions=dirs, frequencies=freqs, distances=dists,
                         continuity=flags)


@settings(max_examples=300, deadline=None)
@given(stored=_coordinate_sets(), request=_coordinate_sets())
def test_coerce_is_total(stored, request):
    kept = (stored.directions, stored.frequencies, stored.distances)
    asked = (request.directions, request.frequencies, request.distances)
    # A stored dimension that is empty and discrete has nothing to snap a
    # non-empty request onto.
    if any(not continuous and not len(k) and len(a)
           for continuous, k, a in zip(stored.continuity, kept, asked)):
        with pytest.raises(ValueError, match=r"^cannot search an empty (direction|value) list$"):
            coerce(stored, request)
        return
    result = coerce(stored, request).coords
    assert result.continuity == request.continuity
    got = (result.directions, result.frequencies, result.distances)
    for continuous, g, a in zip(request.continuity, got, asked):
        # Discrete lists keep their length, so an empty one stays empty;
        # continuous limits stay two ascending values.
        assert len(g) == len(a)
        if continuous:
            assert g[0] <= g[1]


# --------------------------------------------------------------------------
# contract properties over drawn requests and sets
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def layered_objects():
    """Raw set, model and diff with two distances, so that a flattened read
    shows the order of all three axes."""
    rng = np.random.default_rng(SEED + 11)
    directions = [(30.0 * a, e) for e in (-30.0, 0.0, 30.0) for a in range(12)]
    decay = np.exp(-np.arange(32) / 6.0)[None, :, None]
    raw = RawIRs("layered", rng.standard_normal((len(directions), 32, 2)) * decay,
                 16000.0, directions, (1.0, 2.0))
    model = fit_basis_model("layered model", raw, "fourier", 6)
    at = CoordinateSet(
        directions=raw.coords.directions,
        frequencies=raw.coords.frequencies[1:],
        distances=raw.coords.distances,
    )
    return {"raw": raw, "model": model, "diff": DirectivityDiff("layered", raw, model, at=at)}


def _drawn_requests(max_directions=6):
    """Discrete requests anywhere: distinct directions, frequencies up to
    Nyquist of the 16 kHz sets and distances around the stored ones."""
    pairs = st.tuples(
        st.floats(min_value=0.0, max_value=359.0),
        st.floats(min_value=-90.0, max_value=90.0),
    )
    return st.builds(
        lambda dirs, freqs, dists: CoordinateSet(
            directions=dirs, frequencies=sorted(freqs), distances=sorted(dists)
        ),
        st.lists(pairs, min_size=1, max_size=max_directions, unique=True),
        st.sets(st.floats(min_value=0.0, max_value=8000.0), min_size=1, max_size=5),
        st.sets(st.floats(min_value=0.5, max_value=3.0), min_size=1, max_size=3),
    )


@pytest.mark.parametrize("kind", ["raw", "model", "diff"])
@settings(max_examples=40, deadline=None)
@given(request=_drawn_requests(), data=st.data())
def test_vector_reads_flatten_direction_fastest_then_frequency(
    layered_objects, kind, request, data
):
    obj = layered_objects[kind]
    datatype = data.draw(st.sampled_from(sorted(obj.supported_datatypes, key=str)))
    vector, actual = obj.get_data_vector(request, datatype)
    volume = obj.get_data_matrix(request, datatype)
    assert actual == volume.coords
    # Index d + f * D + r * D * F holds cell (d, f, r).
    expected = volume.values.transpose(2, 1, 0).ravel()
    assert vector.dtype == expected.dtype
    assert vector.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=32),
    family=st.sampled_from(["fourier", "cosine"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_fit_at_full_order_reproduces_the_source_at_its_bins(n, family, seed):
    # N fit bins (DC excluded) from 2N samples; K = N functions.
    rng = np.random.default_rng(seed)
    directions = [(0.0, 0.0), (120.0, 30.0), (240.0, -45.0)]
    raw = RawIRs("source", rng.standard_normal((3, 2 * n)), 48000.0, directions)
    model = fit_basis_model("full order", raw, family, n)
    at = CoordinateSet(directions=directions, frequencies=raw.coords.frequencies[1:])
    fitted = model.get_data_matrix(at, DataType.LOG_MAGNITUDE).values
    source = raw.get_data_matrix(at, DataType.LOG_MAGNITUDE).values
    assert np.max(np.abs(fitted - source)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=2, max_value=24),
    distances=st.sets(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=3),
    sample_rate=st.sampled_from([8000.0, 44100.0, 48000.0, 96000.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    request=_drawn_requests(max_directions=4),
)
def test_a_dird_round_trip_reads_the_same_for_every_datatype(
    count, length, distances, sample_rate, seed, request
):
    rng = np.random.default_rng(seed)
    directions = list(zip(rng.uniform(0.0, 360.0, count), rng.uniform(-90.0, 90.0, count)))
    irs = rng.standard_normal((count, length, len(distances))) * 10.0 ** rng.uniform(-3, 3)
    raw = RawIRs("round trip", irs, sample_rate, directions, sorted(distances))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "set.dird"
        write_dird(raw, path)
        back = read_dird(path)
    for at in (raw.coords, request):
        for datatype in sorted(raw.supported_datatypes, key=str):
            before = raw.get_data_matrix(at, datatype)
            after = back.get_data_matrix(at, datatype)
            assert after.coords == before.coords
            assert after.values.tobytes() == before.values.tobytes()
