"""Coordinate model: directions, coordinate sets, coercion, conversions.

Conventions used across the whole package:

  - azimuth in degrees, [0, 360), 0 = front, counterclockwise (90 = left)
  - elevation in degrees, [-90, +90], -90 = below, +90 = zenith
  - frequency in Hz, >= 0; distance in meters, > 0
  - interaural-polar system: lateral in [-90, +90], positive toward the
    right ear; polar in [0, 360), 0 toward the front, +90 toward zenith
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels


class Continuity(NamedTuple):
    """Per-dimension continuity flags of a CoordinateSet."""

    direction: bool = False
    frequency: bool = False
    distance: bool = False


DISCRETE = Continuity(False, False, False)


@dataclass(frozen=True)
class Direction:
    """One direction duplet in the vertical-polar convention."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        ((az, el),) = _as_directions(((self.azimuth, self.elevation),)).pairs.tolist()
        object.__setattr__(self, "azimuth", az)
        object.__setattr__(self, "elevation", el)

    def angle_to(self, other):
        """Great-circle angle to another direction, degrees in [0, 180]."""
        return float(
            great_circle_angle(
                self.azimuth, self.elevation, other.azimuth, other.elevation
            )
        )


class _Directions(Sequence):
    """Discrete directions as a read-only (n, 2) float64 array of
    (azimuth, elevation) rows, with its columns `azimuths` and
    `elevations`. It acts as a tuple of `Direction`s, made on its first
    iteration or indexing (`len` makes none). Every set holding this very
    object shares its repeat verdict, search index and self-read."""

    __slots__ = ("pairs", "azimuths", "elevations", "__dict__")

    def __init__(self, pairs):
        pairs.setflags(write=False)
        self.pairs = pairs
        self.azimuths, self.elevations = pairs.T

    def __reduce__(self):
        # Rebuilt from the pairs alone: read-only, with column views and
        # no caches.
        return _Directions, (self.pairs,)

    @cached_property
    def _items(self):
        # The pairs are checked and wrapped already: skip Direction's checks.
        items = tuple(object.__new__(Direction) for _ in range(len(self)))
        for item, (az, el) in zip(items, self.pairs.tolist()):
            vars(item).update(azimuth=az, elevation=el)
        return items

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        return iter(self._items)

    def __eq__(self, other):
        if isinstance(other, _Directions):
            return np.array_equal(self.pairs, other.pairs)
        return self._items == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return repr(self._items)

    @cached_property
    def first_repeat(self):
        """(i, j) of the first exact repeat, or None: j is the lowest row
        equal to an earlier row, i the first row equal to it. Each pair is
        one complex key, so one sort finds a repeat; a stable sort, which
        keeps equal keys in row order, runs only to name it. Kept once per
        holder, the verdict serves every set built on it."""
        keys = self.pairs.view(np.complex128).ravel()
        ordered = keys.copy()
        ordered.sort()
        if not np.count_nonzero(ordered[1:] == ordered[:-1]):
            return None
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        j = int(order[1:][ordered[1:] == ordered[:-1]].min())
        return int(np.flatnonzero(keys == keys[j])[0]), j

    @cached_property
    def search_index(self):
        return kernels.direction_index(self.azimuths, self.elevations)

    @cached_property
    def self_snap(self):
        """(indices, directions) of a read at these directions.

        Each row lands on the first row with an equal search vector
        (kernels._search_vectors), as a search for it would, so the
        copies of a pole land on the first; one sort finds them, and no
        search runs. With no row moved, the directions are this holder
        itself; otherwise a `take` of it, whose own read is preset, since
        every row it holds lands on itself. The index is always built, so
        an empty list is rejected.
        """
        index = self.search_index
        x, y, z = index.vectors
        # Equal vectors next to each other, the lowest stored row first.
        by = np.lexsort((index.order, z, y, x))
        rows, vectors = index.order[by], index.vectors[:, by]
        new = np.append(True, (vectors[:, 1:] != vectors[:, :-1]).any(axis=0))
        idx = np.empty_like(rows)
        idx[rows] = rows[new][new.cumsum() - 1]
        idx.setflags(write=False)
        if new.all():
            return idx, self
        moved = _Directions(self.pairs.take(idx, axis=0))
        vars(moved)["self_snap"] = (idx, moved)
        return idx, moved


# The largest |azimuth| and |elevation| of a valid pair: any finite azimuth,
# an elevation in [-90, +90]. A nan fails both.
_PAIR_BOUNDS = np.array([np.finfo(np.float64).max, 90.0])


def _as_directions(values):
    """Discrete directions as a `_Directions`, keeping one as it is. Each
    pair must be finite with an elevation in [-90, +90]; the first that
    is not raises ValueError, or TypeError if a component is None.
    Azimuths wrap into [0, 360)."""
    if type(values) is _Directions:
        return values
    try:
        pairs = np.array(values, dtype=np.float64)
    except (TypeError, ValueError):  # `Direction`s among them; bad input fails again
        values = [(d.azimuth, d.elevation) if isinstance(d, Direction) else d for d in values]
        pairs = np.array(values, dtype=np.float64)
    if pairs.shape[1:] != (2,) and pairs.shape != (0,):
        raise ValueError(f"directions must be (azimuth, elevation) pairs, got {pairs.shape}")
    pairs = pairs.reshape(-1, 2)
    valid = np.abs(pairs) <= _PAIR_BOUNDS
    if np.count_nonzero(valid) < valid.size:
        row = valid.all(axis=1).argmin()
        az, el = pairs[row].tolist()
        if not (math.isfinite(az) and math.isfinite(el)):
            # float64 reads None as nan; name the None the caller gave.
            given = tuple(values[row]) if isinstance(values, (list, tuple, np.ndarray)) else ()
            for name, value in zip(("azimuth", "elevation"), given):
                if value is None:
                    raise TypeError(f"direction {given}: {name} is None, not a number")
            raise ValueError(f"direction ({az}, {el}) has non-finite components")
        raise ValueError(f"elevation {el} outside [-90, +90]")
    _wrap_degrees(pairs[:, 0])
    return _Directions(pairs)


def _float_pair(values, what):
    vals = [float(v) for v in values]
    if len(vals) != 2:
        raise ValueError(
            f"continuous {what} stores exactly two limits, got {len(vals)} values"
        )
    lo, hi = vals
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} limits ({lo}, {hi}) are not finite")
    if lo > hi:
        raise ValueError(f"{what} limits ({lo}, {hi}) are not ascending")
    return (lo, hi)


def _ascending(values, what, minimum, strict_min):
    """Discrete values as a float64 array; the first value that is not
    finite, not above `minimum` or not above the one before raises."""
    vals = np.array(values, dtype=np.float64)
    if vals.ndim != 1:
        raise TypeError(f"{what} values must be a flat sequence of numbers")
    # Ascending from a first value above the minimum to a finite last one,
    # every value is finite and above the minimum; a nan breaks the order.
    n = len(vals)
    if not n or (
        (vals[0] > minimum if strict_min else vals[0] >= minimum)
        and np.count_nonzero(vals[1:] > vals[:-1]) == n - 1
        and vals[-1] < math.inf
    ):
        return vals
    bad = ~np.isfinite(vals) | ((vals <= minimum) if strict_min else (vals < minimum))
    if bad.any():
        _check_value(float(vals[bad.argmax()]), what, minimum, strict_min)
    down = vals[:-1] >= vals[1:]
    if down.any():
        a, b = vals[down.argmax() :][:2].tolist()
        raise ValueError(f"{what} vector not strictly ascending at {a}, {b}")
    return vals


def _check_value(v, what, minimum, strict_min):
    """Raise `_ascending`'s error for a float `v` that is not finite or is
    below `minimum` (or at it, with `strict_min`)."""
    if not math.isfinite(v):
        raise ValueError(f"{what} value {v} is not finite")
    if not (v > minimum if strict_min else v >= minimum):
        bound = f"> {minimum}" if strict_min else f">= {minimum}"
        raise ValueError(f"{what} value {v} violates {bound}")


def _set_values(cs, frequencies, distances):
    """Set the frequencies and distances of `cs` as tuples of floats, and
    keep both as read-only float64 arrays, `cs._values`, for reads."""
    freqs = np.asarray(frequencies, dtype=np.float64)
    dists = np.asarray(distances, dtype=np.float64)
    freqs.setflags(write=False)
    dists.setflags(write=False)
    object.__setattr__(cs, "frequencies", tuple(freqs.tolist()))
    object.__setattr__(cs, "distances", tuple(dists.tolist()))
    vars(cs)["_values"] = (freqs, dists)


@dataclass(frozen=True)
class CoordinateSet:
    """Direction x frequency x distance coordinates, discrete or continuous.

    A dimension flagged continuous stores exactly two limit values instead
    of an explicit list; for the direction dimension those are elevation
    limits (azimuth is unrestricted). An empty distance input defaults to
    a single distance of 1 m. Each discrete dimension is kept as a float64
    array too, the directions in a holder of caches shared by derived sets.
    """

    directions: tuple = ()
    frequencies: tuple = ()
    distances: tuple = ()
    continuity: Continuity = DISCRETE

    def __post_init__(self):
        cont = self.continuity
        if cont is not DISCRETE:
            cont = Continuity(*(bool(flag) for flag in cont))
            object.__setattr__(self, "continuity", cont)

        if cont.direction:
            dirs = _float_pair(self.directions, "direction (elevation)")
            if not (-90.0 <= dirs[0] and dirs[1] <= 90.0):
                raise ValueError(f"elevation limits {dirs} outside [-90, +90]")
        else:
            dirs = _as_directions(self.directions)
            if dirs.first_repeat is not None:
                _, j = dirs.first_repeat
                raise ValueError(f"duplicate direction {tuple(dirs.pairs[j].tolist())}")
        object.__setattr__(self, "directions", dirs)

        if cont.frequency:
            freqs = _float_pair(self.frequencies, "frequency")
            if freqs[0] < 0:
                raise ValueError(f"frequency limit {freqs[0]} is negative")
        else:
            freqs = _ascending(self.frequencies, "frequency", 0.0, strict_min=False)

        dists = tuple(self.distances)
        if cont.distance:
            if not dists:
                raise ValueError(
                    "continuous distance requires two limits, got an empty vector"
                )
            dists = _float_pair(dists, "distance")
            if dists[0] <= 0:
                raise ValueError(f"distance limit {dists[0]} is not positive")
        else:
            dists = _ascending(dists or (1.0,), "distance", 0.0, strict_min=True)
        _set_values(self, freqs, dists)

    def __setstate__(self, state):
        vars(self).update(state)
        for vals in self._values:  # pickle brings arrays back writeable
            vals.setflags(write=False)

    @classmethod
    def _unchecked(cls, directions, frequencies, distances, continuity=DISCRETE):
        """Build without validation. Coercion output may hold duplicates."""
        obj = object.__new__(cls)
        continuity = Continuity(*continuity)
        dirs = tuple(directions) if continuity.direction else _as_directions(directions)
        object.__setattr__(obj, "directions", dirs)
        _set_values(obj, frequencies, distances)
        object.__setattr__(obj, "continuity", continuity)
        return obj

    @property
    def is_discrete(self):
        return not any(self.continuity)

    @property
    def shape(self):
        """(D, F, R) cardinalities; defined for fully discrete sets only."""
        if not self.is_discrete:
            raise ValueError("shape is undefined for continuous coordinate sets")
        return (len(self.directions), len(self.frequencies), len(self.distances))

    @property
    def elevation_limits(self):
        if not self.continuity.direction:
            raise ValueError("elevation limits exist only on continuous direction sets")
        return self.directions

    @property
    def azimuth_array(self):
        if self.continuity.direction:
            raise ValueError("continuous direction set has no azimuth list")
        return self.directions.azimuths.copy()

    @property
    def elevation_array(self):
        if self.continuity.direction:
            raise ValueError("continuous direction set has no elevation list")
        return self.directions.elevations.copy()

    @property
    def frequency_array(self):
        return self._values[0].copy()

    @property
    def distance_array(self):
        return self._values[1].copy()


class CoercionResult(NamedTuple):
    coords: "CoordinateSet"
    changed: bool


def _snap_directions(base, requested):
    """(indices, directions) of discrete requested directions on `base`:
    the nearest stored ones, or, with no indices (None), the requested
    ones with their elevations clamped into continuous limits."""
    wanted = requested.directions
    if base.continuity.direction:
        elevations = np.clip(wanted.elevations, *base.elevation_limits)
        return None, _Directions(np.column_stack((wanted.azimuths, elevations)))
    stored = base.directions
    if wanted is stored:
        return stored.self_snap
    idx = kernels.nearest_direction(stored.search_index, wanted.azimuths, wanted.elevations)
    return idx, _Directions(stored.pairs.take(idx, axis=0))


def _snap_values(base, base_continuous, req):
    """(indices, values) of requested values on stored ones: the nearest
    stored ones, or, with no indices (None), the requested ones clamped
    into continuous limits. The values come back as a float64 array.

    A request of the non-empty stored array itself lands on it with no
    search when its values ascend strictly: distinct values are each
    their own nearest, as a search finds. Repeated values, or a nan, are
    searched, so each repeat lands on the first equal one."""
    if base_continuous:
        return None, np.clip(req, base[0], base[1])
    if req is base and base.shape[0] and np.logical_and.reduce(base[1:] > base[:-1]):
        return np.arange(base.shape[0]), base
    idx = kernels.nearest_value(base, req)
    return idx, base.take(idx)


def _coerce_values(base, base_continuous, req, req_continuous):
    if len(req) == 0:
        return req
    _, out = _snap_values(base, base_continuous, req)
    if req_continuous and not base_continuous:
        return np.array([min(out.tolist()), max(out.tolist())])
    return out


def coerce(base, requested):
    """Snap `requested` onto `base`: nearest values for discrete dimensions
    of `base`, clamping into the limits for continuous ones.

    Idempotent: a direction snaps to the first stored one with its search
    vector (kernels._search_vectors), which snaps to itself. The result
    keeps `requested`'s continuity flags; `changed` reports whether any value
    moved. An empty requested dimension stays empty; a non-empty one onto
    an empty discrete stored dimension raises ValueError.
    """
    if requested.continuity.direction:
        # Elevation limits snap to stored elevations or clamp into stored limits.
        continuous = base.continuity.direction
        stored = base.directions if continuous else base.directions.elevations
        dirs = tuple(_coerce_values(stored, continuous, requested.directions, True).tolist())
    else:
        dirs = _snap_directions(base, requested)[1] if requested.directions else ()
    freqs, dists = map(
        _coerce_values, base._values, base.continuity[1:],
        requested._values, requested.continuity[1:],
    )
    coords = CoordinateSet._unchecked(dirs, freqs, dists, requested.continuity)
    given = (requested.directions, requested.frequencies, requested.distances)
    return CoercionResult(coords, (coords.directions, coords.frequencies, coords.distances) != given)


def discrete_read_indices(stored, requested):
    """Indices of a fully discrete `requested` set within `stored`, per
    dimension, plus the actual coordinates the read lands on.

    Discrete dimensions of `stored` snap to the nearest stored value;
    continuous ones clamp into the stored limits and get no index (None),
    the same rule `coerce` applies. Returns (direction_idx, frequency_idx,
    distance_idx, actual_coords), with `actual_coords` fully discrete.
    """
    if not requested.is_discrete:
        flags = zip(Continuity._fields, requested.continuity)
        raise ValueError(
            f"matrix reads need discrete coordinates; request has continuous "
            f"{', '.join(name for name, flag in flags if flag)} (use "
            f"spectrum_series or balloon_grid for a sampled read)"
        )
    d_idx, dirs = _snap_directions(stored, requested)
    (f_base, r_base), (f_req, r_req) = stored._values, requested._values
    _, f_continuous, r_continuous = stored.continuity
    f_idx, freqs = _snap_values(f_base, f_continuous, f_req)
    r_idx, dists = _snap_values(r_base, r_continuous, r_req)
    actual = CoordinateSet._unchecked(dirs, freqs, dists, DISCRETE)
    return d_idx, f_idx, r_idx, actual


def expand_grid(cs):
    """Expand a fully discrete set into three (D, F, R) grids.

    Cell (d, f, r) of each grid holds that cell's direction (a structured
    array with azimuth/elevation fields), frequency, and distance.
    """
    if not cs.is_discrete:
        raise ValueError("cannot expand a coordinate set with continuous dimensions")
    shape = cs.shape
    pairs = cs.directions.pairs.view([("azimuth", "f8"), ("elevation", "f8")])
    direction_grid = np.broadcast_to(pairs[:, :, None], shape).copy()
    frequency_grid = np.broadcast_to(cs.frequency_array[None, :, None], shape).copy()
    distance_grid = np.broadcast_to(cs.distance_array[None, None, :], shape).copy()
    return direction_grid, frequency_grid, distance_grid


_POLE_TOL = 1e-12


def _wrap_degrees(angles):
    """Wrap a float64 array of angles in degrees into [0, 360), in place,
    and return it; a tiny negative angle % 360 is 360.0 in floating
    point, which maps to 0.0."""
    np.remainder(angles, 360.0, out=angles)
    np.copyto(angles, 0.0, where=angles == 360.0)
    return angles


def _swapped_angles(first, second, swap):
    """Angles (longitude, latitude) after the axis swap `swap(x, y, z)`;
    the longitude at the swapped poles is undefined and set to 0."""
    x, y, z = swap(*kernels._search_vectors(*np.broadcast_arrays(first, second)))
    latitude = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    longitude = _wrap_degrees(np.asarray(np.degrees(np.arctan2(y, x))))
    longitude = np.where(x * x + y * y < _POLE_TOL * _POLE_TOL, 0.0, longitude)
    if np.isscalar(first) and np.isscalar(second):
        return float(longitude), float(latitude)
    # A ufunc of 0-d input returns a scalar; keep both outputs arrays.
    return longitude, np.asarray(latitude)


def spherical_to_interaural(azimuth, elevation):
    """Vertical-polar (azimuth, elevation) to interaural-polar (polar, lateral).

    Unit-sphere Cartesian conversion, axis swap (x, y, z) -> (x, z, -y),
    then back to angles. The swap puts the poles on the ear axis: zenith
    maps to polar +90, the left ear (90, 0) to lateral -90. At
    |lateral| = 90 the polar angle is undefined and set to 0.
    """
    return _swapped_angles(azimuth, elevation, lambda x, y, z: (x, z, -y))


def interaural_to_spherical(polar, lateral):
    """Inverse of spherical_to_interaural, axis swap (x, y, z) -> (x, -z, y)."""
    return _swapped_angles(polar, lateral, lambda x, y, z: (x, -z, y))


def great_circle_angle(azimuth_a, elevation_a, azimuth_b, elevation_b):
    """Central angle between two directions, degrees in [0, 180].

    Uses atan2 of the cross-product norm against the dot product of the
    search vectors (kernels._search_vectors), which stays accurate for
    nearly parallel and nearly antipodal pairs and is exactly 0 between
    equal vectors, such as the copies of a pole. Returns a float when all
    four inputs are scalars, else an array of their broadcast shape.
    """
    ax, ay, az = kernels._search_vectors(*np.broadcast_arrays(azimuth_a, elevation_a))
    bx, by, bz = kernels._search_vectors(*np.broadcast_arrays(azimuth_b, elevation_b))
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    cross = np.sqrt(cx * cx + cy * cy + cz * cz)
    dot = ax * bx + ay * by + az * bz
    angle = np.degrees(np.arctan2(cross, dot))
    if all(np.isscalar(v) for v in (azimuth_a, elevation_a, azimuth_b, elevation_b)):
        return float(angle)
    # A ufunc of 0-d input returns a scalar; keep the output an array.
    return np.asarray(angle)
