"""Coordinate model: directions, coordinate sets, coercion, conversions.

Conventions used across the whole package:

  - azimuth in degrees, [0, 360), 0 = front, counterclockwise (90 = left)
  - elevation in degrees, [-90, +90], -90 = below, +90 = zenith
  - frequency in Hz, >= 0; distance in meters, > 0
  - interaural-polar system: lateral in [-90, +90], positive toward the
    right ear; polar in [0, 360), 0 toward the front, +90 toward zenith
"""

import itertools
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
    a single distance of 1 m.
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
            dirs = tuple(_as_direction(d) for d in self.directions)
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

    @classmethod
    def _unchecked(cls, directions, frequencies, distances, continuity):
        """Build without validation. Coercion output may hold duplicates."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "directions", tuple(directions))
        object.__setattr__(obj, "frequencies", tuple(frequencies))
        object.__setattr__(obj, "distances", tuple(distances))
        object.__setattr__(obj, "continuity", Continuity(*continuity))
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
        return self._azimuths.copy()

    @property
    def elevation_array(self):
        if self.continuity.direction:
            raise ValueError("continuous direction set has no elevation list")
        return self._elevations.copy()

    # Cached on first use; never built by __post_init__, so sets that are
    # only requested pay nothing for them.

    @cached_property
    def _azimuths(self):
        return np.array([d.azimuth for d in self.directions], dtype=np.float64)

    @cached_property
    def _elevations(self):
        return np.array([d.elevation for d in self.directions], dtype=np.float64)

    @cached_property
    def _direction_table(self):
        """Direction key -> stored index, the first index on a repeated key.

        A key whose direction is crowded by another stored one is left
        out, so requests there take the search and keep its answer.
        """
        first = {}
        for i, key in enumerate(_direction_keys(self._azimuths, self._elevations)):
            first.setdefault(key, i)
        rows = np.fromiter(first.values(), dtype=np.int64, count=len(first))
        crowded = kernels.crowded_directions(
            self._azimuths[rows], self._elevations[rows]
        )
        return {
            key: i for (key, i), c in zip(first.items(), crowded.tolist()) if not c
        }

    @property
    def frequency_array(self):
        return np.array(self.frequencies, dtype=np.float64)

    @property
    def distance_array(self):
        return np.array(self.distances, dtype=np.float64)


def _direction_keys(azimuths, elevations):
    """Exact-match keys (azimuth, elevation); every azimuth at a pole is one point."""
    at_pole = np.abs(elevations) == 90.0
    return zip(np.where(at_pole, 0.0, azimuths).tolist(), elevations.tolist())


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
        return None, tuple(
            Direction(d.azimuth, min(max(d.elevation, lo), hi))
            for d in requested.directions
        )
    # Requests at a stored direction are looked up; only the rest are
    # searched. Both give the index the search alone would.
    table = base._direction_table
    req_az, req_el = requested._azimuths, requested._elevations
    idx = np.fromiter(
        map(table.get, _direction_keys(req_az, req_el), itertools.repeat(-1)),
        dtype=np.int64,
        count=len(req_az),
    )
    misses = np.flatnonzero(idx < 0)
    # An empty stored list goes to the search too, which rejects it.
    if misses.size or not base.directions:
        idx[misses] = kernels.nearest_direction(
            base._azimuths, base._elevations, req_az[misses], req_el[misses]
        )
    return idx, tuple(base.directions[i] for i in idx.tolist())


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


def _coerce_directions(base, requested):
    if requested.continuity.direction:
        # Elevation limits snap to stored elevations or clamp into stored limits.
        continuous = base.continuity.direction
        stored = base.directions if continuous else base._elevations
        return _coerce_values(stored, continuous, requested.directions, True)
    if len(requested.directions) == 0:
        return (), False
    _, out = _snap_directions(base, requested)
    return out, any(a != b for a, b in zip(out, requested.directions))


def _coerce_values(base_vals, base_continuous, req_vals, req_continuous):
    req = tuple(float(v) for v in req_vals)
    if len(req) == 0:
        return (), False
    _, out = _snap_values(base_vals, base_continuous, req)
    if req_continuous and not base_continuous:
        out = (min(out), max(out))
    return out, out != req


def coerce(base, requested):
    """Snap `requested` onto `base`: nearest values for discrete dimensions
    of `base`, clamping into the limits for continuous ones.

    Total and idempotent; the result keeps `requested`'s continuity flags.
    The `changed` flag reports whether any value moved.
    """
    dirs, d_changed = _coerce_directions(base, requested)
    freqs, f_changed = _coerce_values(
        base.frequencies,
        base.continuity.frequency,
        requested.frequencies,
        requested.continuity.frequency,
    )
    dists, r_changed = _coerce_values(
        base.distances,
        base.continuity.distance,
        requested.distances,
        requested.continuity.distance,
    )
    coords = CoordinateSet._unchecked(dirs, freqs, dists, requested.continuity)
    return CoercionResult(coords, d_changed or f_changed or r_changed)


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


def spherical_to_interaural(azimuth, elevation):
    """Vertical-polar (azimuth, elevation) to interaural-polar (polar, lateral).

    Unit-sphere Cartesian conversion, axis swap (x, y, z) -> (x, z, -y),
    then back to angles. The swap puts the poles on the ear axis: zenith
    maps to polar +90, the left ear (90, 0) to lateral -90. At
    |lateral| = 90 the polar angle is undefined and set to 0.
    """
    x, y, z = kernels._unit_vectors(azimuth, elevation)
    xr, yr, zr = x, z, -y
    lateral = np.degrees(np.arcsin(np.clip(zr, -1.0, 1.0)))
    polar = _wrap_degrees(np.degrees(np.arctan2(yr, xr)))
    polar = np.where(xr * xr + yr * yr < _POLE_TOL * _POLE_TOL, 0.0, polar)
    if np.isscalar(azimuth) and np.isscalar(elevation):
        return float(polar), float(lateral)
    return polar, lateral


def interaural_to_spherical(polar, lateral):
    """Inverse of spherical_to_interaural, axis swap (x, y, z) -> (x, -z, y)."""
    xr, yr, zr = kernels._unit_vectors(polar, lateral)
    x, y, z = xr, -zr, yr
    elevation = np.degrees(np.arcsin(np.clip(z, -1.0, 1.0)))
    azimuth = _wrap_degrees(np.degrees(np.arctan2(y, x)))
    azimuth = np.where(x * x + y * y < _POLE_TOL * _POLE_TOL, 0.0, azimuth)
    if np.isscalar(polar) and np.isscalar(lateral):
        return float(azimuth), float(elevation)
    return azimuth, elevation


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
