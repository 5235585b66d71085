"""Nearest lookups against brute-force oracles, over generated inputs.

The oracles scan every stored entry with the same floating-point
formulas as the search, so indices must agree exactly, ties included.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirkit import kernels
from dirkit.coords import (
    CoordinateSet,
    Direction,
    _as_directions,
    coerce,
    discrete_read_indices,
    great_circle_angle,
)

PROPERTY = settings(max_examples=150, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
azimuths = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)
elevations = st.one_of(
    st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    st.sampled_from([-90.0, 90.0, 0.0, -0.0, 45.0]),
)
directions = st.tuples(azimuths, elevations)


def _search_units(az, el):
    """Unit vectors with x = y = 0 at the poles and every component below
    2**-480 in magnitude set to 0, as the search ranks them."""
    el = np.asarray(el, dtype=np.float64)
    az, rad = np.deg2rad(np.asarray(az, dtype=np.float64)), np.deg2rad(el)
    x, y, z = np.cos(rad) * np.cos(az), np.cos(rad) * np.sin(az), np.sin(rad)
    pole = np.abs(el) == 90.0
    x, y = np.where(pole, 0.0, x), np.where(pole, 0.0, y)
    return tuple(np.where(np.abs(v) < 2.0**-480, 0.0, v) for v in (x, y, z))


def _direction_oracle(base_az, base_el, req_az, req_el):
    """First index of the smallest squared chord, one pair at a time."""
    bx, by, bz = _search_units(base_az, base_el)
    out = []
    for x, y, z in zip(*_search_units(req_az, req_el)):
        chords = (x - bx) ** 2 + (y - by) ** 2 + (z - bz) ** 2
        out.append(int(np.argmin(chords)))
    return out


def _value_oracle(base, req):
    return [int(np.argmin(np.abs(r - base))) for r in req]


# --------------------------------------------------------------------------
# kernels.nearest_direction
# --------------------------------------------------------------------------

@PROPERTY
@given(
    base=st.lists(directions, min_size=1, max_size=40),
    extra=st.lists(directions, max_size=20),
    copies=st.lists(st.integers(min_value=0, max_value=39), max_size=10),
    chunk=st.integers(min_value=1, max_value=200),
)
def test_nearest_direction_matches_oracle(base, extra, copies, chunk):
    # Requests: stored directions (exact ties with themselves and with any
    # repeated entry), both poles at arbitrary azimuths, and free ones.
    # A small chunk size makes the requests span several chunks.
    base = base + [base[i % len(base)] for i in copies]
    requests = base + extra + [(a, 90.0) for a, _ in extra] + [(a, -90.0) for a, _ in extra]
    base_az, base_el = (np.array(v, dtype=np.float64) for v in zip(*base))
    req_az, req_el = (np.array(v, dtype=np.float64) for v in zip(*requests))
    with mock.patch.object(kernels, "_CHUNK_ELEMENTS", chunk):
        got = kernels.nearest_direction(
            kernels.direction_index(base_az, base_el), req_az, req_el
        )
    assert got.dtype == np.int64
    assert got.tolist() == _direction_oracle(base_az, base_el, req_az, req_el)


def test_nearest_direction_crosses_chunk_boundaries_at_full_size():
    rng = np.random.default_rng(20240813)
    base_az, base_el = rng.uniform(0, 360, 3000), rng.uniform(-90, 90, 3000)
    # The bands of the 400 requests hold tens of thousands of pairs, which
    # fill several chunks of _CHUNK_ELEMENTS pairs.
    req_az = np.concatenate([base_az[:200], rng.uniform(0, 360, 200)])
    req_el = np.concatenate([base_el[:200], rng.uniform(-90, 90, 200)])
    got = kernels.nearest_direction(
        kernels.direction_index(base_az, base_el), req_az, req_el
    )
    assert got.tolist() == _direction_oracle(base_az, base_el, req_az, req_el)
    assert got[:200].tolist() == list(range(200))


# The search keeps only the z slabs within reach of the request's z, and
# in each slab only an azimuth window; these stored sets make that anything
# from one direction to the whole set. Rings repeat azimuths, sit within
# 1e-12 of 0 and 360, and may be jittered in elevation so that every
# direction is a ring of its own; many small rings put several in a slab.
ring_azimuths = st.lists(
    st.sampled_from(
        [0.0, 30.0, 90.0, 180.0, 270.0, 359.0, 1e-12, -1e-12, 360.0 - 1e-12]
    ),
    min_size=1,
    max_size=12,
)
jitters = st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3])


@st.composite
def banded_cases(draw):
    """(stored, requests): stored directions in a cap above a drawn lowest
    elevation, with rings of equal or jittered z that repeat azimuths,
    many small rings, pairs whose two directions a request reaches equally
    and a pole cluster; requests at stored z values, antipodal, between
    the pairs, at the poles and anywhere."""
    floor = draw(st.sampled_from([-90.0, -40.0, 60.0]))
    in_cap = st.floats(min_value=floor, max_value=90.0, allow_nan=False)
    stored = draw(st.lists(st.tuples(azimuths, in_cap), max_size=12))
    for el in draw(st.lists(in_cap, max_size=3)):
        jitter = draw(jitters)
        ring = draw(ring_azimuths)
        stored += [(az, min(el + jitter * i, 90.0)) for i, az in enumerate(ring)]
    if draw(st.booleans()):
        rings = draw(st.integers(min_value=20, max_value=60))
        phase, jitter = draw(azimuths), draw(jitters)
        for i in range(rings):
            el = floor + (90.0 - floor) * (i + 0.5) / rings
            count = 2 + i % 5
            stored += [
                (phase + 360.0 * j / count, min(el + jitter * j, 90.0))
                for j in range(count)
            ]
    # A request halfway between a pair in azimuth reaches both equally,
    # so the second one sits on the window edge that the first one sets,
    # or 1e-12 inside or outside it.
    between = []
    pairs = st.tuples(azimuths, in_cap, st.floats(min_value=1e-3, max_value=90.0))
    for az, el, gap in draw(st.lists(pairs, max_size=2)):
        nudge = draw(st.sampled_from([0.0, 1e-12, -1e-12]))
        stored += [(az - gap, el), (az + gap + nudge, el)]
        between += [(az, el), (az, draw(in_cap))]
    if draw(st.booleans()):
        pole = draw(st.sampled_from([90.0, -90.0] if floor == -90.0 else [90.0]))
        count = draw(st.integers(min_value=101, max_value=130))
        stored += [(360.0 * i / count, pole) for i in range(count)]
    stored = draw(st.permutations(stored + [draw(st.tuples(azimuths, in_cap))]))
    stored = stored[: draw(st.sampled_from([1, 2, len(stored)]))]
    free = draw(st.lists(directions, max_size=10))
    requests = (
        stored
        + [(az + 180.0, -el) for az, el in stored]
        + [(az, el) for (az, _), (_, el) in zip(free, stored)]
        + between
        + free
        + [(az, 90.0) for az, _ in free + stored[:3]]
        + [(az, -90.0) for az, _ in free + stored[:3]]
    )
    return stored, requests


@PROPERTY
@given(case=banded_cases())
def test_banded_search_matches_oracle(case):
    # One-direction seeds and one-pair chunks: the slabs and windows come
    # from the worst seeds, and every run is cut apart from its neighbours.
    stored, requests = case
    base_az, base_el = (np.array(v, dtype=np.float64) for v in zip(*stored))
    req_az, req_el = (np.array(v, dtype=np.float64) for v in zip(*requests))
    with mock.patch.object(kernels, "_SEED_WIDTH", 1), mock.patch.object(
        kernels, "_CHUNK_ELEMENTS", 1
    ):
        got = kernels.nearest_direction(
            kernels.direction_index(base_az, base_el), req_az, req_el
        )
    assert got.tolist() == _direction_oracle(base_az, base_el, req_az, req_el)


# --------------------------------------------------------------------------
# kernels.nearest_value
# --------------------------------------------------------------------------

@PROPERTY
@given(
    base=st.lists(finite, min_size=1, max_size=30),
    free=st.lists(finite, max_size=30),
)
def test_nearest_value_matches_oracle(base, free):
    # Any order, repeats allowed; requests at every stored value, at every
    # midpoint between neighbouring values, and anywhere, in range or not.
    base = np.array(base, dtype=np.float64)
    ordered = np.sort(base)
    midpoints = ordered[:-1] / 2 + ordered[1:] / 2
    req = np.concatenate([base, midpoints, np.array(free, dtype=np.float64)])
    with np.errstate(over="ignore"):  # gaps between huge values may overflow
        got = kernels.nearest_value(base, req)
        expected = _value_oracle(base, req)
    assert got.dtype == np.int64
    assert got.tolist() == expected


def test_nearest_value_far_requests_tie_to_the_first_index():
    # 1e20 - 1 and 1e20 - 2 round to the same value: the first index wins.
    base = np.array([1.0, 2.0, 1e30])
    req = np.array([1e20, -1e20, 1e31])
    assert kernels.nearest_value(base, req).tolist() == [0, 0, 2]


# --------------------------------------------------------------------------
# reads at stored and free directions through the search
# --------------------------------------------------------------------------

def _sphere_grid(az_step, el_step):
    return [
        (az, el)
        for el in np.arange(-90.0, 90.0 + el_step, el_step)
        for az in np.arange(0.0, 360.0, az_step)
    ]


def _unique_directions(pairs):
    seen = {}
    for az, el in pairs:
        d = Direction(az, el)
        seen.setdefault((d.azimuth, d.elevation), d)
    return list(seen.values())


@PROPERTY
@given(
    az_step=st.sampled_from([30.0, 45.0, 60.0, 90.0, 120.0]),
    el_step=st.sampled_from([30.0, 45.0, 90.0]),
    extra=st.lists(directions, max_size=15),
    picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=20),
    free=st.lists(directions, max_size=15),
    shuffle=st.randoms(use_true_random=False),
)
def test_reads_at_a_grid_with_pole_duplicates_match_oracle(
    az_step, el_step, extra, picks, free, shuffle
):
    # A full-sphere grid stores each pole once per azimuth; extra stored
    # directions may sit arbitrarily close to grid points.
    stored_dirs = _unique_directions(_sphere_grid(az_step, el_step) + extra)
    shuffle.shuffle(stored_dirs)
    stored = CoordinateSet(directions=stored_dirs, frequencies=(100.0,))
    request_dirs = (
        [stored_dirs[i % len(stored_dirs)] for i in picks]
        + [(a, 90.0) for a, _ in free]
        + [(a, -90.0) for a, _ in free]
        + free
    )
    requested = CoordinateSet._unchecked(
        [Direction(*d) if isinstance(d, tuple) else d for d in request_dirs],
        (100.0,),
        (1.0,),
        stored.continuity,
    )
    d_idx, _, _, actual = discrete_read_indices(stored, requested)
    expected = _direction_oracle(
        stored.azimuth_array,
        stored.elevation_array,
        requested.azimuth_array,
        requested.elevation_array,
    )
    assert d_idx.tolist() == expected
    assert actual.directions == tuple(stored_dirs[i] for i in expected)


# --------------------------------------------------------------------------
# reads at a set's own directions (the cached self-snap)
# --------------------------------------------------------------------------

# A 72-row zenith ring and a nadir ring (each one point stored 72 times),
# two directions 1e-10 deg apart, and the zenith stored once more at
# another azimuth: each pole copy lands on the first copy, and each
# direction of the pair on itself.
_RINGS = (
    [(5.0 * i, 90.0) for i in range(72)]
    + [(5.0 * i, -90.0) for i in range(72)]
    + [(30.0, 10.0), (30.0 + 1e-10, 10.0), (2.5, 90.0)]
)


@PROPERTY
@given(
    extra=st.lists(directions, max_size=30),
    shuffle=st.randoms(use_true_random=False),
)
def test_reads_at_own_directions_match_brute_force(extra, shuffle):
    stored_dirs = _unique_directions(_RINGS + extra)
    shuffle.shuffle(stored_dirs)
    stored = CoordinateSet(directions=stored_dirs, frequencies=(100.0,))
    az, el = stored.azimuth_array, stored.elevation_array
    expected = kernels.nearest_direction(kernels.direction_index(az, el), az, el).tolist()
    assert expected == _direction_oracle(az, el, az, el)
    rebuilt = CoordinateSet(
        directions=[(d.azimuth, d.elevation) for d in stored_dirs],
        frequencies=(100.0,),
    )
    assert rebuilt.directions is not stored.directions
    for request in (stored, rebuilt, stored, rebuilt):
        d_idx, _, _, actual = discrete_read_indices(stored, request)
        assert d_idx.tolist() == expected
        assert actual.directions == tuple(stored_dirs[i] for i in expected)
    # Requests of the same length that differ from the stored set are
    # searched in full.
    nudged = [Direction(stored_dirs[0].azimuth + 0.25, 0.0)] + stored_dirs[1:]
    for request_dirs in (stored_dirs[::-1], nudged):
        request = CoordinateSet._unchecked(request_dirs, (100.0,), (1.0,), stored.continuity)
        req_az, req_el = request.azimuth_array, request.elevation_array
        d_idx, _, _, _ = discrete_read_indices(stored, request)
        assert d_idx.tolist() == _direction_oracle(az, el, req_az, req_el)


# Pairs 1e-10 degrees apart that a rounded dot product cannot tell apart:
# for a request at the first of (30, 10) it ties the second with it, at
# the first of (328.592, -23.092) it ranks the second higher, and at
# either of (224.347, -5.22) it ranks the other one higher.
CROWDED_PAIRS = [
    [(az, el), (az + 1e-10, el)]
    for az, el in ((30.0, 10.0), (328.592, -23.092), (224.347, -5.22))
]


@PROPERTY
@given(
    az_step=st.sampled_from([30.0, 45.0, 60.0, 90.0, 120.0]),
    el_step=st.sampled_from([30.0, 45.0, 90.0]),
    extra=st.lists(directions, max_size=15),
    near=st.sampled_from([[], *CROWDED_PAIRS]),
    shuffle=st.randoms(use_true_random=False),
)
def test_the_preset_self_read_of_moved_directions_matches_a_fresh_one(
    az_step, el_step, extra, near, shuffle
):
    # A full-sphere grid stores each pole once per azimuth, so a read at
    # the stored tuple moves the pole copies onto a second tuple.
    stored_dirs = _unique_directions(_sphere_grid(az_step, el_step) + near + extra)
    shuffle.shuffle(stored_dirs)
    stored = CoordinateSet(directions=stored_dirs, frequencies=(100.0,))
    idx, moved = stored.directions.self_snap
    assert moved is not stored.directions
    fresh = _as_directions(tuple(moved))
    assert moved.azimuths.tobytes() == fresh.azimuths.tobytes()
    assert moved.elevations.tobytes() == fresh.elevations.tobytes()
    assert vars(moved)["self_snap"] == (idx, moved)
    moved_idx, moved_dirs = moved.self_snap
    fresh_idx, fresh_dirs = fresh.self_snap
    assert moved_idx.tolist() == fresh_idx.tolist()
    assert moved_dirs == fresh_dirs


# Elevations 0, t and 2t for t = 1.4e-162 rad: without the flush of
# components below 2**-480, their squared chords round to 0, 0 and 1e-323.
_T = float(np.rad2deg(1.4e-162))


@st.composite
def equal_vector_sets(draw):
    """Stored directions that a search could tell apart only by rounding:
    crowded pairs, pole copies, and pairs whose search vectors differ only
    in a component below 2**-480, among free ones."""
    crowded = draw(st.lists(st.sampled_from(CROWDED_PAIRS), max_size=3))
    pairs = [d for pair in crowded for d in pair]
    for pole in draw(st.lists(st.sampled_from([90.0, -90.0]), max_size=2)):
        pairs += [(az, pole) for az in draw(st.lists(azimuths, min_size=1, max_size=4))]
    for az in draw(st.lists(azimuths, max_size=2)):
        pairs += [(az, 0.0), (az, 1e-300)]
    for el in draw(st.lists(elevations, max_size=2)):
        pairs += [(0.0, el), (5e-324, el)]
    if draw(st.booleans()):
        az = draw(azimuths)
        pairs += [(az, 0.0), (az, _T), (az, 2.0 * _T)]
    stored = _unique_directions(pairs + draw(st.lists(directions, min_size=1, max_size=5)))
    draw(st.randoms(use_true_random=False)).shuffle(stored)
    return stored


@PROPERTY
@given(stored_dirs=equal_vector_sets(), free=st.lists(directions, max_size=5))
def test_every_stored_direction_reads_back_at_its_first_equal_vector(stored_dirs, free):
    stored = CoordinateSet(directions=stored_dirs, frequencies=(100.0,))
    vectors = list(zip(*_search_units(stored.azimuth_array, stored.elevation_array)))
    first = [vectors.index(v) for v in vectors]
    rebuilt = CoordinateSet(
        directions=[(d.azimuth, d.elevation) for d in stored_dirs], frequencies=(100.0,)
    )
    for request in (stored, rebuilt):
        d_idx, _, _, actual = discrete_read_indices(stored, request)
        assert d_idx.tolist() == first
        assert actual.directions == tuple(stored_dirs[i] for i in first)
    # Each of those first rows reads back at itself.
    heads = sorted(set(first))
    request = CoordinateSet(directions=[stored_dirs[i] for i in heads], frequencies=(100.0,))
    assert discrete_read_indices(stored, request)[0].tolist() == heads
    # Coercing twice changes nothing, at stored directions and anywhere.
    near = [(d.azimuth, d.elevation) for d in stored_dirs[:3]]
    anywhere = CoordinateSet(directions=_unique_directions(free + near), frequencies=(100.0,))
    for request in (stored, rebuilt, anywhere):
        once = coerce(stored, request).coords
        assert coerce(stored, once) == (once, False)


@PROPERTY
@given(stored_dirs=equal_vector_sets())
def test_equal_search_vectors_are_zero_degrees_apart(stored_dirs):
    # Crowded pairs, pole copies and tiny-component pairs, as whole arrays
    # and one pair at a time.
    az = np.array([d.azimuth for d in stored_dirs])
    el = np.array([d.elevation for d in stored_dirs])
    vectors = kernels._search_vectors(az, el)
    equal = (vectors[:, :, None] == vectors[:, None, :]).all(axis=0)
    angles = great_circle_angle(az[:, None], el[:, None], az, el)
    assert np.all(angles[equal] == 0.0)
    for i, j in zip(*np.nonzero(equal)):
        assert great_circle_angle(az[i], el[i], az[j], el[j]) == 0.0
