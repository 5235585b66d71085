"""Coordinate model: validation, coercion, conversion, grids."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirkit import (
    Continuity,
    CoordinateSet,
    DataType,
    Direction,
    DirectivityDiff,
    SynthSpec,
    coerce,
    expand_grid,
    fit_basis_model,
    great_circle_angle,
    interaural_to_spherical,
    spherical_to_interaural,
    synth_directions,
    synth_test_set,
)
from dirkit import kernels
from dirkit.coords import _as_directions, discrete_read_indices
from dirkit.formats import read_dird, write_dird
from dirkit.rawirs import RawIRs

SEED = 20240811


# --------------------------------------------------------------------------
# Direction
# --------------------------------------------------------------------------

def test_azimuth_wraps_into_range():
    assert Direction(360.0, 0.0).azimuth == 0.0
    assert Direction(-90.0, 0.0).azimuth == 270.0
    assert Direction(725.0, 0.0).azimuth == 5.0


@pytest.mark.parametrize("azimuth", [-1e-20, -1e-300, -5e-324, -0.0])
def test_tiny_negative_azimuth_wraps_to_zero(tmp_path, azimuth):
    # In floating point, azimuth % 360 is 360.0 for these values.
    direction = Direction(azimuth, 0.0)
    assert direction.azimuth == 0.0
    raw = RawIRs("wrap", np.ones((2, 4)), 48000.0, [direction, (90.0, 0.0)])
    path = tmp_path / "wrap.dird"
    write_dird(raw, path)
    assert read_dird(path).coords == raw.coords


@pytest.mark.parametrize("elevation", [-90.0001, 90.0001, 180.0])
def test_elevation_out_of_range_rejected(elevation):
    with pytest.raises(ValueError):
        Direction(0.0, elevation)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_direction_rejected(bad):
    with pytest.raises(ValueError):
        Direction(bad, 0.0)
    with pytest.raises(ValueError):
        Direction(0.0, bad)
    for convert in (spherical_to_interaural, interaural_to_spherical):
        with pytest.raises(ValueError, match="non-finite direction"):
            convert(np.array([0.0, bad]), 0.0)
    with pytest.raises(ValueError, match="non-finite direction"):
        great_circle_angle(0.0, 0.0, 10.0, bad)


def test_none_direction_component_is_a_type_error():
    # float64 would read None as nan; the error names the None instead.
    for make in (Direction, lambda az, el: CoordinateSet(directions=[(1.0, 2.0), (az, el)])):
        with pytest.raises(TypeError, match=r"direction \(None, 0\): azimuth is None"):
            make(None, 0)
        with pytest.raises(TypeError, match=r"direction \(0, None\): elevation is None"):
            make(0, None)
    with pytest.raises(TypeError, match="azimuth is None"):
        CoordinateSet(directions=[Direction(1.0, 2.0), (None, 0)])


def test_angle_to_is_the_great_circle_angle():
    a, b = Direction(10.0, 20.0), Direction(200.0, -35.0)
    assert a.angle_to(b) == b.angle_to(a) == great_circle_angle(10.0, 20.0, 200.0, -35.0)
    # Copies of a pole at different azimuths are one direction.
    assert Direction(0.0, 90.0).angle_to(Direction(123.0, 90.0)) == 0.0
    assert Direction(40.0, 10.0).angle_to(Direction(220.0, -10.0)) == pytest.approx(
        180.0, abs=1e-12
    )


# --------------------------------------------------------------------------
# CoordinateSet construction
# --------------------------------------------------------------------------

def test_empty_distances_default_to_one_meter():
    cs = CoordinateSet(directions=[(0, 0)], frequencies=(1000.0,), distances=())
    assert cs.distances == (1.0,)
    assert not cs.continuity.distance


def test_continuous_dimension_stores_two_limits():
    cs = CoordinateSet(
        directions=[(0, 0)],
        frequencies=(20.0, 20000.0),
        continuity=Continuity(frequency=True),
    )
    assert cs.frequencies == (20.0, 20000.0)
    with pytest.raises(ValueError):
        CoordinateSet(
            directions=[(0, 0)],
            frequencies=(20.0, 200.0, 20000.0),
            continuity=Continuity(frequency=True),
        )


def test_direction_continuity_stores_elevation_limits():
    cs = CoordinateSet(
        directions=(-40.0, 90.0),
        frequencies=(100.0,),
        continuity=Continuity(direction=True),
    )
    assert cs.elevation_limits == (-40.0, 90.0)
    with pytest.raises(ValueError):
        CoordinateSet(
            directions=(-100.0, 90.0),
            frequencies=(100.0,),
            continuity=Continuity(direction=True),
        )


@pytest.mark.parametrize(
    "freqs", [(100.0, 100.0), (200.0, 100.0), (-1.0, 100.0)]
)
def test_bad_discrete_frequency_vectors_rejected(freqs):
    with pytest.raises(ValueError):
        CoordinateSet(directions=[(0, 0)], frequencies=freqs)


def test_duplicate_directions_rejected():
    with pytest.raises(ValueError):
        CoordinateSet(directions=[(10, 0), (370, 0)], frequencies=(100.0,))


def test_non_positive_distances_rejected():
    with pytest.raises(ValueError):
        CoordinateSet(directions=[(0, 0)], frequencies=(100.0,), distances=(0.0,))


# --------------------------------------------------------------------------
# coercion
# --------------------------------------------------------------------------

def _freq_request(values):
    return CoordinateSet(directions=[(0, 0)], frequencies=values)


def test_nearest_frequency_snap():
    base = _freq_request((900.0, 1013.0, 1100.0))
    result = coerce(base, _freq_request((1000.0,)))
    assert result.coords.frequencies == (1013.0,)
    assert result.changed


def test_value_already_in_base_is_unchanged():
    base = _freq_request((900.0, 1013.0, 1100.0))
    result = coerce(base, _freq_request((1013.0,)))
    assert result.coords.frequencies == (1013.0,)
    assert not result.changed


def test_clamp_into_continuous_elevation_limits():
    base = CoordinateSet(
        directions=(-40.0, 90.0),
        frequencies=(100.0,),
        continuity=Continuity(direction=True),
    )
    requested = CoordinateSet(directions=[(10.0, -60.0)], frequencies=(100.0,))
    result = coerce(base, requested)
    assert result.coords.directions == (Direction(10.0, -40.0),)
    assert result.changed
    assert result.coords.continuity == requested.continuity


def test_direction_snap_by_great_circle():
    base = CoordinateSet(directions=[(0, 0), (90, 0)], frequencies=(100.0,))
    snapped = coerce(
        base, CoordinateSet(directions=[(50.0, 0.0), (40.0, 0.0)], frequencies=(100.0,))
    ).coords
    assert snapped.directions == (Direction(90, 0), Direction(0, 0))


def test_direction_snap_matches_exhaustive_search():
    rng = np.random.default_rng(SEED)
    base_dirs = [
        (az, el)
        for az, el in zip(rng.uniform(0, 360, 40), rng.uniform(-90, 90, 40))
    ]
    base = CoordinateSet(directions=base_dirs, frequencies=(100.0,))
    req_dirs = [
        (az, el)
        for az, el in zip(rng.uniform(0, 360, 60), rng.uniform(-90, 90, 60))
    ]
    requested = CoordinateSet(directions=req_dirs, frequencies=(100.0,))
    snapped = coerce(base, requested).coords

    for req, got in zip(requested.directions, snapped.directions):
        angles = [
            great_circle_angle(req.azimuth, req.elevation, b.azimuth, b.elevation)
            for b in base.directions
        ]
        best = base.directions[int(np.argmin(angles))]
        assert got == best


def test_coercion_idempotent_and_member_of_base():
    rng = np.random.default_rng(SEED + 1)
    base = CoordinateSet(
        directions=[(float(a), float(e)) for a, e in zip(rng.uniform(0, 360, 8), rng.uniform(-90, 90, 8))],
        frequencies=tuple(np.sort(rng.uniform(0, 20000, 12))),
        distances=tuple(np.sort(rng.uniform(0.2, 3.0, 3))),
    )
    requested = CoordinateSet(
        directions=[(float(a), float(e)) for a, e in zip(rng.uniform(0, 360, 5), rng.uniform(-90, 90, 5))],
        frequencies=tuple(np.sort(rng.uniform(0, 30000, 7))),
        distances=(0.01, 5.0),
    )
    once = coerce(base, requested).coords
    twice = coerce(base, once).coords
    assert once.directions == twice.directions
    assert once.frequencies == twice.frequencies
    assert once.distances == twice.distances
    assert set(once.frequencies) <= set(base.frequencies)
    assert set(once.distances) <= set(base.distances)
    assert set(once.directions) <= set(base.directions)


def test_coercion_keeps_requested_flags_and_may_duplicate():
    base = _freq_request((1000.0, 2000.0))
    requested = CoordinateSet(
        directions=[(0, 0)],
        frequencies=(950.0, 1050.0),
        continuity=Continuity(frequency=True),
    )
    result = coerce(base, requested)
    assert result.coords.continuity.frequency
    assert result.coords.frequencies == (1000.0, 1000.0)


def test_coercion_onto_an_empty_stored_dimension_raises():
    no_bins = CoordinateSet(directions=[(0, 0)], frequencies=())
    for requested in (
        _freq_request((100.0,)),
        CoordinateSet(
            directions=[(0, 0)],
            frequencies=(0.0, 100.0),
            continuity=Continuity(frequency=True),
        ),
    ):
        with pytest.raises(ValueError, match="cannot search an empty value list"):
            coerce(no_bins, requested)
    no_directions = CoordinateSet(directions=(), frequencies=(100.0,))
    with pytest.raises(ValueError, match="cannot search an empty direction list"):
        coerce(no_directions, _freq_request((100.0,)))
    with pytest.raises(ValueError, match="cannot search an empty value list"):
        coerce(no_directions, _elevation_limits_request(-15.0, 25.0))
    # An empty requested dimension stays empty, with nothing to snap.
    result = coerce(no_directions, CoordinateSet(directions=(), frequencies=()))
    assert result.coords.directions == () and result.coords.frequencies == ()
    assert not result.changed


def test_read_indices_clamp_continuous_dimensions_like_coerce():
    stored = CoordinateSet(
        directions=(-40.0, 60.0),
        frequencies=(100.0, 8000.0),
        distances=(1.0, 2.0),
        continuity=Continuity(True, True, False),
    )
    requested = CoordinateSet(
        directions=[(10.0, 75.0), (200.0, -5.0)],
        frequencies=(50.0, 440.0, 9000.0),
        distances=(1.2, 1.9),
    )
    d_idx, f_idx, r_idx, actual = discrete_read_indices(stored, requested)
    assert d_idx is None and f_idx is None
    assert list(r_idx) == [0, 1]
    assert actual.directions == (Direction(10.0, 60.0), Direction(200.0, -5.0))
    assert actual.frequencies == (100.0, 440.0, 8000.0)
    assert actual.distances == (1.0, 2.0)
    assert actual.is_discrete
    assert actual == coerce(stored, requested).coords


def _elevation_limits_request(lo, hi):
    return CoordinateSet(
        directions=(lo, hi), frequencies=(100.0,), continuity=Continuity(direction=True)
    )


def test_elevation_limits_snap_onto_an_unsorted_grid():
    base = CoordinateSet(
        directions=[(0, 30), (10, -20), (20, 10), (30, 0)], frequencies=(100.0,)
    )
    result = coerce(base, _elevation_limits_request(-15.0, 25.0))
    assert result.coords.directions == (-20.0, 30.0)


def test_elevation_limit_tie_goes_to_the_elevation_stored_first():
    # 15 is 5 deg from both stored elevations; the row stored first wins.
    for stored, expected in (([(0, 20), (0, 10)], 20.0), ([(0, 10), (0, 20)], 10.0)):
        base = CoordinateSet(directions=stored, frequencies=(100.0,))
        result = coerce(base, _elevation_limits_request(15.0, 15.0))
        assert result.coords.directions == (expected, expected)


def _pole_grid():
    # 10-degree grid over the whole sphere: 36 copies of each pole.
    return CoordinateSet(
        directions=[
            (az, el) for el in range(-90, 91, 10) for az in range(0, 360, 10)
        ],
        frequencies=(100.0,),
    )


def test_reads_at_a_pole_land_on_its_first_stored_row():
    stored = _pole_grid()
    requested = CoordinateSet(
        directions=[(123.0, 90.0), (250.0, 90.0), (5.0, -90.0), (40.0, 0.0)],
        frequencies=(100.0,),
    )
    d_idx, _, _, actual = discrete_read_indices(stored, requested)
    first_zenith = stored.directions.index(Direction(0.0, 90.0))
    ring = stored.directions.index(Direction(40.0, 0.0))
    assert list(d_idx) == [first_zenith, first_zenith, 0, ring]
    assert actual.directions[0] == Direction(0.0, 90.0)


def test_reads_at_the_stored_tuple_run_no_search(monkeypatch):
    stored = _pole_grid()
    calls = []
    original = kernels.nearest_direction
    monkeypatch.setattr(
        kernels,
        "nearest_direction",
        lambda *args: calls.append(len(args[2])) or original(*args),
    )
    d_idx, _, _, _ = discrete_read_indices(stored, stored)
    # The 36 copies of each pole land on the first one, found by a sort.
    assert calls == []
    assert list(d_idx) == [0] * 36 + list(range(36, 648)) + [648] * 36
    equal = CoordinateSet(directions=list(stored.directions), frequencies=(100.0,))
    discrete_read_indices(stored, equal)
    assert calls == [684]
    off_grid = CoordinateSet(
        directions=list(stored.directions[:5]) + [(3.0, 4.0)], frequencies=(100.0,)
    )
    d_idx, _, _, _ = discrete_read_indices(stored, off_grid)
    assert calls == [684, 6]
    assert list(d_idx) == [0, 0, 0, 0, 0, stored.directions.index(Direction(0.0, 0.0))]


def test_crowded_directions_keep_the_search_answer():
    # Two directions 1e-10 degrees apart: each one finds itself, at the
    # stored tuple and at another one.
    stored = CoordinateSet(
        directions=[(0.0, 0.0), (1e-10, 0.0), (90.0, 0.0)], frequencies=(100.0,)
    )
    requested = CoordinateSet(directions=[(1e-10, 0.0), (90.0, 0.0)], frequencies=(100.0,))
    d_idx, _, _, _ = discrete_read_indices(stored, requested)
    assert list(d_idx) == [1, 2]
    d_idx, _, _, actual = discrete_read_indices(stored, stored)
    assert list(d_idx) == [0, 1, 2] and actual.directions is stored.directions


def test_direction_arrays_are_fresh_copies():
    cs = CoordinateSet(directions=[(10.0, 20.0), (30.0, -40.0)], frequencies=(100.0,))
    # Construction keeps the repeat verdict at most; the search caches
    # and the Direction items are built on first use.
    assert set(vars(cs.directions)) <= {"first_repeat"}
    cs.azimuth_array[:] = 0.0
    cs.elevation_array[:] = 0.0
    np.testing.assert_array_equal(cs.azimuth_array, [10.0, 30.0])
    np.testing.assert_array_equal(cs.elevation_array, [20.0, -40.0])
    d_idx, _, _, _ = discrete_read_indices(cs, cs)
    assert list(d_idx) == [0, 1]


def test_reads_at_an_empty_direction_list_raise():
    empty = CoordinateSet(directions=(), frequencies=(100.0,))
    requests = (
        CoordinateSet(directions=empty.directions, frequencies=(100.0,)),
        # Equal to the stored tuple but a separate one, so it is searched.
        CoordinateSet(directions=[], frequencies=(100.0,)),
        CoordinateSet(directions=[(3.0, 4.0)], frequencies=(100.0,)),
    )
    for request in requests:
        with pytest.raises(ValueError, match="cannot search an empty direction list"):
            discrete_read_indices(empty, request)


def test_a_tuple_of_directions_is_kept_as_it_is():
    stored = _pole_grid()
    again = CoordinateSet(
        directions=stored.directions, frequencies=(200.0, 300.0), distances=(2.0,)
    )
    assert again.directions is stored.directions
    pairs = tuple((d.azimuth, d.elevation) for d in stored.directions)
    for given in (list(stored.directions), pairs, (stored.directions[0],) + pairs[1:]):
        built = CoordinateSet(directions=given, frequencies=(100.0,))
        assert built.directions == stored.directions
        assert built.directions is not given
        assert all(type(d) is Direction for d in built.directions)
    # Every input gets the duplicate check, a kept tuple too: coercion
    # output may repeat a stored direction.
    with pytest.raises(ValueError, match="duplicate direction"):
        CoordinateSet(directions=(Direction(10.0, 0.0), Direction(370.0, 0.0)))
    near_zenith = CoordinateSet(directions=[(0.0, 90.0), (5.0, 89.0)], frequencies=(100.0,))
    repeated = coerce(stored, near_zenith).coords.directions
    assert repeated == (stored.directions[-36],) * 2
    with pytest.raises(ValueError, match="duplicate direction"):
        CoordinateSet(directions=repeated)


def test_stored_directions_act_as_a_plain_tuple():
    plain = (Direction(10.0, 20.0), Direction(30.0, -40.0), Direction(0.0, 90.0))
    cs = CoordinateSet(directions=plain, frequencies=(100.0,), distances=(1.0, 2.0))
    assert cs.directions == plain and plain == cs.directions
    assert cs.directions.index(plain[1]) == 1
    assert cs.directions.count(plain[2]) == 1 and cs.directions.count(Direction(1, 1)) == 0
    assert hash(cs.directions) == hash(plain)
    from_pairs = CoordinateSet(
        directions=[(d.azimuth, d.elevation) for d in plain],
        frequencies=(100.0,),
        distances=(1.0, 2.0),
    )
    assert hash(cs) == hash(from_pairs) and cs == from_pairs
    # A pickle round trip gives an equal set, before and after its first read,
    # with read-only arrays, column views of the pairs and no cached state.
    for _ in range(2):
        again = pickle.loads(pickle.dumps(cs))
        held = again.directions
        assert not vars(held)
        for array in (held.pairs, held.azimuths, held.elevations, *again._values):
            assert not array.flags.writeable
        assert np.shares_memory(held.pairs, held.azimuths)
        assert np.shares_memory(held.pairs, held.elevations)
        assert again == cs and hash(again) == hash(cs)
        d_idx, _, _, actual = discrete_read_indices(again, again)
        assert list(d_idx) == [0, 1, 2] and actual == again
        discrete_read_indices(cs, cs)


def test_a_read_at_an_equal_tuple_lands_where_one_at_the_stored_tuple_does(monkeypatch):
    stored = _pole_grid()
    own = CoordinateSet(directions=stored.directions, frequencies=(100.0,))
    equal = CoordinateSet(directions=list(stored.directions), frequencies=(100.0,))
    calls = []
    original = kernels.nearest_direction
    monkeypatch.setattr(
        kernels,
        "nearest_direction",
        lambda *args: calls.append(len(args[2])) or original(*args),
    )
    d_own, _, _, actual_own = discrete_read_indices(stored, own)
    d_equal, _, _, actual_equal = discrete_read_indices(stored, equal)
    # Only the stored tuple takes the cached self-read, which runs no
    # search; the equal tuple is searched in full.
    assert calls == [684]
    assert d_own is stored.directions.self_snap[0]
    assert d_equal is not d_own
    assert np.array_equal(d_own, d_equal)
    assert actual_own == actual_equal


# --------------------------------------------------------------------------
# grid expansion
# --------------------------------------------------------------------------

def test_expand_grid_shapes_and_content():
    cs = CoordinateSet(
        directions=[(0, 0), (90, 10)],
        frequencies=(100.0, 200.0, 300.0),
        distances=(1.0,),
    )
    dgrid, fgrid, rgrid = expand_grid(cs)
    assert dgrid.shape == fgrid.shape == rgrid.shape == (2, 3, 1)
    assert dgrid["azimuth"][1, 2, 0] == 90.0
    assert dgrid["elevation"][1, 2, 0] == 10.0
    assert fgrid[0, 1, 0] == 200.0
    assert np.all(rgrid == 1.0)
    # frequency constant along direction and distance axes
    assert np.all(fgrid == fgrid[0:1, :, 0:1])


def test_expand_grid_single_point():
    cs = CoordinateSet(directions=[(10, 20)], frequencies=(500.0,), distances=(2.0,))
    dgrid, fgrid, rgrid = expand_grid(cs)
    assert dgrid.shape == (1, 1, 1)
    assert fgrid[0, 0, 0] == 500.0 and rgrid[0, 0, 0] == 2.0


def test_expand_grid_rejects_continuous():
    cs = CoordinateSet(
        directions=[(0, 0)],
        frequencies=(20.0, 20000.0),
        continuity=Continuity(frequency=True),
    )
    with pytest.raises(ValueError):
        expand_grid(cs)


# --------------------------------------------------------------------------
# vertical-polar <-> interaural-polar, oracle = explicit rotation matrices
# --------------------------------------------------------------------------

ROT_FORWARD = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def _unit(azimuth, elevation):
    az, el = np.radians(azimuth), np.radians(elevation)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


def _oracle_forward(azimuth, elevation):
    w = ROT_FORWARD @ _unit(azimuth, elevation)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    lateral = np.degrees(np.arcsin(np.clip(w[2], -1, 1)))
    if w[0] ** 2 + w[1] ** 2 < 1e-24:
        return 0.0, lateral
    return np.degrees(np.arctan2(w[1], w[0])) % 360.0, lateral


def _oracle_inverse(polar, lateral):
    w = ROT_FORWARD.T @ _unit(polar, lateral)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12
    elevation = np.degrees(np.arcsin(np.clip(w[2], -1, 1)))
    if w[0] ** 2 + w[1] ** 2 < 1e-24:
        return 0.0, elevation
    return np.degrees(np.arctan2(w[1], w[0])) % 360.0, elevation


@pytest.mark.parametrize(
    "azimuth,elevation,expected",
    [
        (0.0, 0.0, (0.0, 0.0)),
        (0.0, 90.0, (90.0, 0.0)),
        (90.0, 0.0, (0.0, -90.0)),
        (270.0, 0.0, (0.0, 90.0)),
        (180.0, 0.0, (180.0, 0.0)),
    ],
)
def test_forward_conversion_fixed_points(azimuth, elevation, expected):
    polar, lateral = spherical_to_interaural(azimuth, elevation)
    assert polar == pytest.approx(expected[0], abs=1e-12)
    assert lateral == pytest.approx(expected[1], abs=1e-12)


@pytest.mark.parametrize(
    "polar,lateral,expected",
    [
        (0.0, 0.0, (0.0, 0.0)),
        (90.0, 0.0, (0.0, 90.0)),
    ],
)
def test_inverse_conversion_fixed_points(polar, lateral, expected):
    azimuth, elevation = interaural_to_spherical(polar, lateral)
    assert azimuth == pytest.approx(expected[0], abs=1e-12)
    assert elevation == pytest.approx(expected[1], abs=1e-12)


def test_conversions_match_matrix_oracle():
    rng = np.random.default_rng(SEED + 2)
    azimuths = rng.uniform(0, 360, 300)
    elevations = np.degrees(np.arcsin(rng.uniform(-1, 1, 300)))
    for az, el in zip(azimuths, elevations):
        polar, lateral = spherical_to_interaural(az, el)
        o_polar, o_lateral = _oracle_forward(az, el)
        assert polar == pytest.approx(o_polar, abs=1e-9)
        assert lateral == pytest.approx(o_lateral, abs=1e-9)
        back_az, back_el = interaural_to_spherical(polar, lateral)
        ob_az, ob_el = _oracle_inverse(polar, lateral)
        assert back_az == pytest.approx(ob_az, abs=1e-9)
        assert back_el == pytest.approx(ob_el, abs=1e-9)


def test_round_trip_identity_away_from_ear_axis():
    polar, lateral = spherical_to_interaural(123.4, -37.2)
    azimuth, elevation = interaural_to_spherical(polar, lateral)
    assert azimuth == pytest.approx(123.4, abs=1e-9)
    assert elevation == pytest.approx(-37.2, abs=1e-9)


def test_ear_axis_pole_returns_polar_zero():
    for azimuth in (90.0, 270.0):
        polar, lateral = spherical_to_interaural(azimuth, 0.0)
        assert polar == 0.0
        assert abs(lateral) == pytest.approx(90.0, abs=1e-12)


@pytest.mark.parametrize("tiny", [1e-20, 1e-300, 5e-324])
def test_conversions_wrap_tiny_negative_angles_to_zero(tiny):
    # arctan2 gives -tiny degrees, and -tiny % 360 is 360.0 in floating point.
    azimuth, _ = interaural_to_spherical(0.0, tiny)
    polar, _ = spherical_to_interaural(0.0, -tiny)
    assert (azimuth, polar) == (0.0, 0.0)
    azimuths, _ = interaural_to_spherical(np.array([0.0, 10.0]), np.array([tiny, 0.0]))
    polars, _ = spherical_to_interaural(np.array([0.0, 30.0]), np.array([-tiny, 0.0]))
    assert np.all((azimuths >= 0.0) & (azimuths < 360.0))
    assert np.all((polars >= 0.0) & (polars < 360.0))
    assert azimuths[0] == 0.0 and polars[0] == 0.0


def test_vectorized_conversion_matches_scalar():
    # Arrays, a scalar mixed with an array, which broadcast, and 0-d arrays.
    inputs = [
        (np.array([0.0, 30.0, 250.0]), np.array([0.0, -45.0, 80.0])),
        (np.array([0.0, 90.0]), 0.0),
        (45.0, np.array([-90.0, 10.0, 90.0])),
        (np.array(10.0), 20.0),
        (10.0, np.array(-20.0)),
        (np.array(10.0), np.array(20.0)),
    ]
    for first, second in inputs:
        shape = np.broadcast_shapes(np.shape(first), np.shape(second))
        for convert in (spherical_to_interaural, interaural_to_spherical):
            outputs = convert(first, second)
            # Both outputs are arrays of the broadcast shape, never scalars.
            assert [(type(v), v.shape) for v in outputs] == [(np.ndarray, shape)] * 2
            longitude, latitude = (v.reshape(-1) for v in outputs)
            pairs = zip(*(v.reshape(-1) for v in np.broadcast_arrays(first, second)))
            for i, (a, b) in enumerate(pairs):
                lon, lat = convert(float(a), float(b))
                assert type(lon) is float and type(lat) is float
                assert longitude[i] == pytest.approx(lon, abs=1e-12)
                assert latitude[i] == pytest.approx(lat, abs=1e-12)
        # The great-circle angle follows the same rule, from either side.
        for angles in (
            great_circle_angle(first, second, 30.0, -40.0),
            great_circle_angle(30.0, -40.0, first, second),
        ):
            assert (type(angles), angles.shape) == (np.ndarray, shape)
            pairs = zip(*(v.reshape(-1) for v in np.broadcast_arrays(first, second)))
            for angle, (a, b) in zip(angles.reshape(-1), pairs):
                scalar = great_circle_angle(float(a), float(b), 30.0, -40.0)
                assert type(scalar) is float and angle == scalar


# --------------------------------------------------------------------------
# great-circle angle
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "a,b,expected",
    [
        (((40, 10)), ((40, 10)), 0.0),
        (((0, 0)), ((180, 0)), 180.0),
        (((0, 0)), ((0, 90)), 90.0),
        # A scalar mixed with an array broadcasts; pole copies are 0 apart.
        ((np.array([40.0, 220.0]), 10.0), (40.0, np.array([10.0, -10.0])),
         np.array([0.0, 180.0])),
        ((0.0, 90.0), (np.array([0.0, 123.0, 0.0]), np.array([90.0, 90.0, 0.0])),
         np.array([0.0, 0.0, 90.0])),
    ],
)
def test_great_circle_fixed_values(a, b, expected):
    assert great_circle_angle(a[0], a[1], b[0], b[1]) == pytest.approx(
        expected, abs=1e-12
    )


def test_great_circle_symmetric_and_triangle_inequality():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(200):
        az = rng.uniform(0, 360, 3)
        el = np.degrees(np.arcsin(rng.uniform(-1, 1, 3)))
        ab = great_circle_angle(az[0], el[0], az[1], el[1])
        ba = great_circle_angle(az[1], el[1], az[0], el[0])
        bc = great_circle_angle(az[1], el[1], az[2], el[2])
        ac = great_circle_angle(az[0], el[0], az[2], el[2])
        assert ab == pytest.approx(ba, abs=1e-12)
        assert ac <= ab + bc + 1e-9


# --------------------------------------------------------------------------
# array validation against per-element references
# --------------------------------------------------------------------------

PROPERTY = settings(max_examples=200, deadline=None)


def _reference_direction(value):
    """`Direction`'s rule for one pair, one Python float at a time."""
    az, el = (value.azimuth, value.elevation) if isinstance(value, Direction) else value
    az, el = float(az), float(el)
    if not (math.isfinite(az) and math.isfinite(el)):
        raise ValueError(f"direction ({az}, {el}) has non-finite components")
    if not -90.0 <= el <= 90.0:
        raise ValueError(f"elevation {el} outside [-90, +90]")
    az %= 360.0
    return (0.0 if az == 360.0 else az, el)


def _reference_directions(values):
    """Each pair by `_reference_direction`, then the first repeat named."""
    pairs = [_reference_direction(v) for v in values]
    seen = set()
    for key in pairs:
        if key in seen:
            raise ValueError(f"duplicate direction {key}")
        seen.add(key)
    return pairs


def _outcome(build, *args):
    """(result, None) of build(*args), or (None, (type, message)) if it raises."""
    try:
        return build(*args), None
    except Exception as exc:  # the property compares any exception
        return None, (type(exc), str(exc))


_AZIMUTHS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 360.0, -360.0, 720.0, np.nextafter(360.0, 0.0), np.nextafter(0.0, 1.0),
         1e-20, -1e-20, 1e-300, -1e-300, -5e-324, 359.9999999999999, 1e300,
         float("nan"), float("inf"), -float("inf")]
    ),
    st.floats(-1000.0, 1000.0),
)
_ELEVATIONS = st.one_of(
    st.sampled_from(
        [90.0, -90.0, np.nextafter(90.0, 91.0), np.nextafter(-90.0, -91.0), 0.0, -0.0,
         float("nan"), float("inf"), -float("inf")]
    ),
    st.floats(-90.0, 90.0),
    st.floats(-91.0, 91.0),
)


@st.composite
def _direction_inputs(draw):
    """Pairs with repeats (some 360 degrees apart), given as pairs, as
    `Direction`s where each is valid, mixed, or as an unchecked holder."""
    pairs = draw(st.lists(st.tuples(_AZIMUTHS, _ELEVATIONS), max_size=12))
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):
        az, el = pairs[draw(st.integers(0, len(pairs) - 1))]
        turn = draw(st.sampled_from([0.0, 360.0, -360.0]))
        pairs.insert(draw(st.integers(0, len(pairs))), (az + turn, el))
    form = draw(st.sampled_from(["pairs", "directions", "mixed", "holder"]))
    if form == "pairs":
        return pairs
    if form == "holder":
        return _outcome(CoordinateSet._unchecked, pairs, (), (1.0,))[0] or pairs
    made = []
    for i, pair in enumerate(pairs):
        direction, _ = _outcome(Direction, *pair)
        keep = direction is not None and (form == "directions" or i % 2)
        made.append(direction if keep else pair)
    return made


@PROPERTY
@given(values=_direction_inputs())
def test_array_direction_validation_matches_the_per_element_rule(values):
    if isinstance(values, CoordinateSet):
        values = values.directions
    expected, expected_error = _outcome(_reference_directions, list(values))
    cs, error = _outcome(CoordinateSet, values)
    assert error == expected_error
    if expected_error is None:
        az, el = (np.array([p[i] for p in expected], dtype=np.float64) for i in (0, 1))
        # Bytes, so that a signed zero counts.
        assert cs.directions.azimuths.tobytes() == az.tobytes()
        assert cs.directions.elevations.tobytes() == el.tobytes()
        assert [(d.azimuth, d.elevation) for d in cs.directions] == expected
        for value, pair in zip(values, expected):
            direction = value if isinstance(value, Direction) else Direction(*value)
            assert (direction.azimuth, direction.elevation) == pair


@PROPERTY
@given(pairs=st.lists(
    st.tuples(st.sampled_from([0.0, -0.0, 10.0, 370.0, -350.0]),
              st.sampled_from([0.0, -0.0, 45.0, 90.0])),
    max_size=10,
))
def test_first_repeat_names_the_lowest_repeat_and_its_first_copy(pairs):
    expected, rows = None, {}
    for j, pair in enumerate(map(_reference_direction, pairs)):
        if pair in rows:
            expected = (rows[pair], j)
            break
        rows[pair] = j
    assert _as_directions(pairs).first_repeat == expected


def _reference_ascending(values, what, minimum, strict_min):
    """The checks of a discrete frequency or distance vector, one value at a time."""
    vals = tuple(float(v) for v in values)
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{what} value {v} is not finite")
        if v < minimum or (strict_min and v == minimum):
            bound = f"> {minimum}" if strict_min else f">= {minimum}"
            raise ValueError(f"{what} value {v} violates {bound}")
    for a, b in zip(vals, vals[1:]):
        if a >= b:
            raise ValueError(f"{what} vector not strictly ascending at {a}, {b}")
    return vals


def _reference_snap(stored, values):
    """Index of the first stored value nearest each requested one."""
    return [min(range(len(stored)), key=lambda i: abs(stored[i] - v)) for v in values]


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


_VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0, 1e300, float("nan"), float("inf"),
         -float("inf")]
    ),
    st.floats(-10.0, 1000.0),
)


@PROPERTY
@given(
    values=st.lists(_VALUES, max_size=8),
    ascending=st.booleans(),
    stored=st.lists(st.floats(0.25, 1000.0), min_size=1, max_size=6, unique=True),
)
def test_array_value_checks_snaps_and_clamps_match_per_element_rules(values, ascending, stored):
    if ascending:
        values = sorted(values, key=lambda v: (math.isnan(v), v))
    stored = sorted(stored)
    for what, minimum, strict in (("frequency", 0.0, False), ("distance", 0.0, True)):
        expected, expected_error = _outcome(_reference_ascending, values, what, minimum, strict)
        key = "frequencies" if what == "frequency" else "distances"
        cs, error = _outcome(CoordinateSet, [(0.0, 0.0)], *(
            ((values, ()) if what == "frequency" else ((1.0,), values))
        ))
        if what == "distance" and not values:
            expected, expected_error = (1.0,), None
        assert error == expected_error
        if expected_error is not None:
            continue
        got = getattr(cs, key)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert _bits(got) == _bits(expected)

        # The nearest stored value, and the clamp into continuous limits.
        base = CoordinateSet(directions=[(0.0, 0.0)], **{"frequencies": (1.0,), key: stored})
        idx = discrete_read_indices(base, cs)[1 if what == "frequency" else 2]
        assert list(idx) == _reference_snap(stored, expected)
        snapped = coerce(base, cs).coords
        assert _bits(getattr(snapped, key)) == _bits([stored[i] for i in idx])
        lo, hi = stored[0], stored[-1]
        flags = Continuity(frequency=what == "frequency", distance=what == "distance")
        limits = CoordinateSet(
            directions=[(0.0, 0.0)], **{"frequencies": (1.0,), key: (lo, hi)}, continuity=flags
        )
        clamped = discrete_read_indices(limits, cs)[3]
        assert _bits(getattr(clamped, key)) == _bits([min(max(v, lo), hi) for v in expected])
        # A continuous request keeps the least and greatest snapped value.
        if len(expected) >= 2 and what == "frequency":
            request = CoordinateSet(
                directions=[(0.0, 0.0)], frequencies=(expected[0], expected[-1]),
                continuity=Continuity(frequency=True),
            )
            ends = [stored[i] for i in _reference_snap(stored, request.frequencies)]
            assert coerce(base, request).coords.frequencies == (min(ends), max(ends))


def test_value_snaps_of_empty_lists():
    empty = CoordinateSet(directions=[(0.0, 0.0)], frequencies=())
    some = CoordinateSet(directions=[(0.0, 0.0)], frequencies=(10.0, 20.0))
    _, f_idx, _, actual = discrete_read_indices(some, empty)
    assert list(f_idx) == [] and actual.frequencies == ()
    # Coercion keeps an empty request empty; a read searches the stored list.
    for stored in (empty, some):
        assert coerce(stored, empty).coords.frequencies == ()
    for request in (empty, some):
        with pytest.raises(ValueError, match="cannot search an empty value list"):
            discrete_read_indices(empty, request)


def test_signed_zero_clamps_as_min_and_max_do():
    # Python's max and min keep their first argument on a tie, so signed
    # zeros clamp to the sign of the value or of the limit, by position.
    for lo, hi in ((-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0)):
        stored = CoordinateSet(
            directions=(lo, hi), frequencies=(lo, hi + 100.0), continuity=Continuity(True, True)
        )
        requested = CoordinateSet(directions=[(10.0, -0.0), (20.0, 0.0)], frequencies=(-0.0,))
        _, _, _, actual = discrete_read_indices(stored, requested)
        expected = [min(max(el, lo), hi) for el in (-0.0, 0.0)]
        assert _bits(actual.directions.elevations) == _bits(expected)
        assert _bits(actual.frequencies) == _bits([min(max(-0.0, lo), hi + 100.0)])


# --------------------------------------------------------------------------
# no per-direction objects on the read path
# --------------------------------------------------------------------------

def test_reads_from_raw_values_make_no_direction_objects(monkeypatch):
    spec = SynthSpec(mode="lowpass", azimuth_step=2.0, elevation_step=2.0,
                     elevation_limits=(-40.0, 90.0), length=64)
    raw = synth_test_set(spec)
    model = fit_basis_model("model", raw, "fourier", 8)
    band = CoordinateSet(
        directions=[(az, el) for az, el in synth_directions(spec) if abs(el) <= 10.0],
        frequencies=raw.coords.frequencies[1:],
    )
    diff = DirectivityDiff("band", raw, model, band)
    rng = np.random.default_rng(SEED + 4)

    def patch():
        return {
            "directions": tuple(
                zip(rng.uniform(0.0, 360.0, 64).tolist(), rng.uniform(-90.0, 90.0, 64).tolist())
            ),
            "frequencies": tuple(np.unique(rng.uniform(0.0, 24000.0, 16)).tolist()),
            "distances": (float(rng.uniform(0.5, 3.0)),),
        }

    calls = []
    original = Direction.__post_init__
    monkeypatch.setattr(
        Direction, "__post_init__", lambda self: calls.append(1) or original(self)
    )
    holders = []
    for obj, datatype in ((raw, DataType.LOG_MAGNITUDE), (model, DataType.LINEAR_MAGNITUDE),
                          (diff, DataType.LOG_MAGNITUDE)):
        request = CoordinateSet(**patch())
        assert len(request.directions) == 64
        volume = obj.get_data_matrix(request, datatype)
        holders += [request.directions, volume.coords.directions, obj.coords.directions]
    request = CoordinateSet(**patch())
    holders += [request.directions, raw.coerce_onto(request).coords.directions]
    series = model.spectrum_series((123.4, -56.7), 1.3)
    holders.append(series.coords.directions)
    assert calls == []
    # Nor are any made without their checks: no holder was iterated or indexed.
    assert not any("_items" in vars(holder) for holder in holders)
