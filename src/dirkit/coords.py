"""Coordinate model: directions, coordinate sets, coercion, conversions.

Conventions used across the whole package:

  - azimuth in degrees, [0, 360), 0 = front, counterclockwise (90 = left)
  - elevation in degrees, [-90, +90], -90 = below, +90 = zenith
  - frequency in Hz, >= 0; distance in meters, > 0
  - interaural-polar system: lateral in [-90, +90], positive toward the
    right ear; polar in [0, 360), 0 toward the front, +90 toward zenith
"""

import math
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
        az = float(self.azimuth)
        el = float(self.elevation)
        if not (math.isfinite(az) and math.isfinite(el)):
            raise ValueError(f"direction ({az}, {el}) has non-finite components")
        if not -90.0 <= el <= 90.0:
            raise ValueError(f"elevation {el} outside [-90, +90]")
        az %= 360.0
        # A tiny negative azimuth wraps to 360.0 in floating point.
        object.__setattr__(self, "azimuth", 0.0 if az == 360.0 else az)
        object.__setattr__(self, "elevation", el)

    def angle_to(self, other):
        """Great-circle angle to another direction, degrees in [0, 180]."""
        return float(
            great_circle_angle(
                self.azimuth, self.elevation, other.azimuth, other.elevation
            )
        )


def _as_direction(value):
    if isinstance(value, Direction):
        return value
    az, el = value
    return Direction(float(az), float(el))


class _Directions(tuple):
    """The directions of a discrete set: a tuple of `Direction`s holding
    the arrays, search index and self-read built from them on first use,
    which every set holding this very tuple shares."""

    @cached_property
    def azimuths(self):
        return np.array([d.azimuth for d in self], dtype=np.float64)

    @cached_property
    def elevations(self):
        return np.array([d.elevation for d in self], dtype=np.float64)

    @cached_property
    def search_index(self):
        return kernels.direction_index(self.azimuths, self.elevations)

    @cached_property
    def self_snap(self):
        """(indices, directions) of a read at these directions.

        Each uncrowded direction is its own nearest (see
        kernels.crowded_directions); only the crowded ones are searched,
        which sends every copy of a pole to its first row. When no row
        moves, the directions are this tuple itself, so the read's actual
        coordinates share these caches. Otherwise they are a new tuple
        holding `take`s of these arrays; when every row lands at or
        before itself on a row that lands on itself, as pole copies do,
        a read at that tuple lands on it again by the same indices, so
        its self-read is preset and it builds no mask or index. The
        index is built even when nothing is searched, so an empty list
        is rejected.
        """
        az, el = self.azimuths, self.elevations
        idx = np.arange(len(self), dtype=np.int64)
        rows = np.flatnonzero(kernels.crowded_directions(az, el))
        idx[rows] = kernels.nearest_direction(self.search_index, az[rows], el[rows])
        idx.setflags(write=False)
        if np.array_equal(idx[rows], rows):
            return idx, self
        moved = _Directions(self[i] for i in idx.tolist())
        vars(moved).update(azimuths=az.take(idx), elevations=el.take(idx))
        if (idx[rows] <= rows).all() and np.array_equal(idx[idx[rows]], idx[rows]):
            vars(moved)["self_snap"] = (idx, moved)
        return idx, moved


def _as_directions(values):
    """Discrete directions as a `_Directions`, keeping one as it is."""
    if type(values) is _Directions:
        return values
    return _Directions(_as_direction(d) for d in values)


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


@dataclass(frozen=True)
class CoordinateSet:
    """Direction x frequency x distance coordinates, discrete or continuous.

    A dimension flagged continuous stores exactly two limit values instead
    of an explicit list; for the direction dimension those are elevation
    limits (azimuth is unrestricted). An empty distance input defaults to
    a single distance of 1 m. Discrete directions are kept in a tuple that
    holds their caches, shared by every set built from that tuple.
    """

    directions: tuple = ()
    frequencies: tuple = ()
    distances: tuple = ()
    continuity: Continuity = DISCRETE

    def __post_init__(self):
        cont = Continuity(*(bool(flag) for flag in self.continuity))
        object.__setattr__(self, "continuity", cont)

        if cont.direction:
            dirs = _float_pair(self.directions, "direction (elevation)")
            if not (-90.0 <= dirs[0] and dirs[1] <= 90.0):
                raise ValueError(f"elevation limits {dirs} outside [-90, +90]")
        else:
            dirs = _as_directions(self.directions)
            seen = set()
            for d in dirs:
                key = (d.azimuth, d.elevation)
                if key in seen:
                    raise ValueError(f"duplicate direction {key}")
                seen.add(key)
        object.__setattr__(self, "directions", dirs)

        if cont.frequency:
            freqs = _float_pair(self.frequencies, "frequency")
            if freqs[0] < 0:
                raise ValueError(f"frequency limit {freqs[0]} is negative")
        else:
            freqs = _ascending(self.frequencies, "frequency", 0.0, strict_min=False)
        object.__setattr__(self, "frequencies", freqs)

        dists = tuple(self.distances)
        if len(dists) == 0:
            if cont.distance:
                raise ValueError(
                    "continuous distance requires two limits, got an empty vector"
                )
            dists = (1.0,)
        elif cont.distance:
            dists = _float_pair(dists, "distance")
            if dists[0] <= 0:
                raise ValueError(f"distance limit {dists[0]} is not positive")
        else:
            dists = _ascending(dists, "distance", 0.0, strict_min=True)
        object.__setattr__(self, "distances", dists)

    # False on sets built by `_unchecked`.
    _validated = True

    @classmethod
    def _unchecked(cls, directions, frequencies, distances, continuity=DISCRETE):
        """Build without validation. Coercion output may hold duplicates."""
        obj = object.__new__(cls)
        continuity = Continuity(*continuity)
        dirs = tuple(directions) if continuity.direction else _as_directions(directions)
        object.__setattr__(obj, "_validated", False)
        object.__setattr__(obj, "directions", dirs)
        object.__setattr__(obj, "frequencies", tuple(frequencies))
        object.__setattr__(obj, "distances", tuple(distances))
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
        return np.array(self.frequencies, dtype=np.float64)

    @property
    def distance_array(self):
        return np.array(self.distances, dtype=np.float64)


class CoercionResult(NamedTuple):
    coords: "CoordinateSet"
    changed: bool


def _snap_directions(base, requested):
    """Discrete requested directions onto `base`: the nearest stored
    direction, or the elevation clamped into continuous limits.

    Returns (indices, directions); indices is None for a continuous base.
    """
    if base.continuity.direction:
        lo, hi = base.elevation_limits
        return None, _Directions(
            Direction(d.azimuth, min(max(d.elevation, lo), hi))
            for d in requested.directions
        )
    stored, wanted = base.directions, requested.directions
    if wanted is stored:
        return stored.self_snap
    idx = kernels.nearest_direction(stored.search_index, wanted.azimuths, wanted.elevations)
    return idx, _Directions(stored[i] for i in idx.tolist())


def _snap_values(base_vals, base_continuous, req_vals):
    """Discrete requested values onto stored ones: the nearest stored
    value, or the value clamped into continuous limits.

    Returns (indices, values); indices is None for a continuous base.
    """
    if base_continuous:
        lo, hi = base_vals
        return None, tuple(min(max(float(v), lo), hi) for v in req_vals)
    idx = kernels.nearest_value(
        np.array(base_vals, dtype=np.float64), np.array(req_vals, dtype=np.float64)
    )
    return idx, tuple(float(base_vals[i]) for i in idx)


def _coerce_values(base_vals, base_continuous, req_vals, req_continuous):
    req = tuple(float(v) for v in req_vals)
    if len(req) == 0:
        return ()
    _, out = _snap_values(base_vals, base_continuous, req)
    if req_continuous and not base_continuous:
        out = (min(out), max(out))
    return out


def coerce(base, requested):
    """Snap `requested` onto `base`: nearest values for discrete dimensions
    of `base`, clamping into the limits for continuous ones.

    Idempotent; the result keeps `requested`'s continuity flags, and the
    `changed` flag reports whether any value moved. An empty requested
    dimension stays empty; a non-empty one onto an empty discrete stored
    dimension raises ValueError, as there is nothing to snap to.
    """
    if requested.continuity.direction:
        # Elevation limits snap to stored elevations or clamp into stored limits.
        continuous = base.continuity.direction
        stored = base.directions if continuous else base.directions.elevations
        dirs = _coerce_values(stored, continuous, requested.directions, True)
    else:
        dirs = _snap_directions(base, requested)[1] if requested.directions else ()
    freqs = _coerce_values(
        base.frequencies,
        base.continuity.frequency,
        requested.frequencies,
        requested.continuity.frequency,
    )
    dists = _coerce_values(
        base.distances,
        base.continuity.distance,
        requested.distances,
        requested.continuity.distance,
    )
    given = (requested.directions, requested.frequencies, requested.distances)
    coords = CoordinateSet._unchecked(dirs, freqs, dists, requested.continuity)
    return CoercionResult(coords, (dirs, freqs, dists) != given)


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
    f_idx, freqs = _snap_values(
        stored.frequencies, stored.continuity.frequency, requested.frequencies
    )
    r_idx, dists = _snap_values(
        stored.distances, stored.continuity.distance, requested.distances
    )
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
    direction_grid = np.zeros(shape, dtype=[("azimuth", "f8"), ("elevation", "f8")])
    direction_grid["azimuth"] = cs.azimuth_array[:, None, None]
    direction_grid["elevation"] = cs.elevation_array[:, None, None]
    frequency_grid = np.broadcast_to(cs.frequency_array[None, :, None], shape).copy()
    distance_grid = np.broadcast_to(cs.distance_array[None, None, :], shape).copy()
    return direction_grid, frequency_grid, distance_grid


_POLE_TOL = 1e-12


def _wrap_degrees(angle):
    """Angle in [0, 360); a tiny negative angle % 360 is 360.0 in floating
    point, which maps to 0.0, as in Direction."""
    wrapped = np.asarray(angle) % 360.0
    return np.where(wrapped == 360.0, 0.0, wrapped)


def _swapped_angles(first, second, swap):
    """Angles (longitude, latitude) after the axis swap `swap(x, y, z)`;
    the longitude at the swapped poles is undefined and set to 0."""
    x, y, z = swap(*kernels._unit_vectors(first, second))
    latitude = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    longitude = _wrap_degrees(np.degrees(np.arctan2(y, x)))
    longitude = np.where(x * x + y * y < _POLE_TOL * _POLE_TOL, 0.0, longitude)
    if np.isscalar(first) and np.isscalar(second):
        return float(longitude), float(latitude)
    return longitude, latitude


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

    Uses atan2 of the cross-product norm against the dot product, which
    stays accurate for nearly parallel and nearly antipodal pairs.
    """
    ax, ay, az = kernels._unit_vectors(azimuth_a, elevation_a)
    bx, by, bz = kernels._unit_vectors(azimuth_b, elevation_b)
    cx = ay * bz - az * by
    cy = az * bx - ax * bz
    cz = ax * by - ay * bx
    cross = np.sqrt(cx * cx + cy * cy + cz * cz)
    dot = ax * bx + ay * by + az * bz
    angle = np.degrees(np.arctan2(cross, dot))
    if all(np.isscalar(v) for v in (azimuth_a, elevation_a, azimuth_b, elevation_b)):
        return float(angle)
    return angle
