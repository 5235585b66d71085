"""Numeric inner loops: nearest-neighbor searches and basis design matrices.

Ties in the nearest-neighbor searches go to the lowest index, as
argmin/argmax over every stored entry would give them. The direction
search is banded: an index sorted by z, built once per stored list,
limits each request to the stored directions whose z lies close enough
to hold the nearest one, and evaluates those with the full scan's
expression, so its indices are bit-identical to the full scan's.
"""

import itertools
from typing import NamedTuple

import numpy as np


def _unit_vectors(azimuth_deg, elevation_deg):
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.deg2rad(np.asarray(elevation_deg, dtype=np.float64))
    cos_el = np.cos(el)
    return cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)


# Each search chunk gathers about this many (request, candidate) pairs,
# so that every temporary holds about this many float64 elements
# (128 kB) and stays in cache.
_CHUNK_ELEMENTS = 1 << 14

# Two directions whose unit vectors lie closer than this can swap places
# in the rounding of the search's dot products; see crowded_directions.
_CROWDED_CHORD = 1e-6

# Stored directions around a request, in (z, azimuth) order, whose best
# dot product seeds the band.
_SEED_WIDTH = 16

# Bounds the rounding of a dot product and of a unit vector's length.
_SLACK = 1e-12

# Azimuth span of one z ring in the seed keys; any azimuth mod 360 fits.
_RING_SPAN = 512.0


class DirectionIndex(NamedTuple):
    """Stored unit vectors ordered by (z, azimuth), for nearest_direction.

    `order` maps a sorted position to its stored index. `keys` is the rank
    of the position's z among the distinct z values times _RING_SPAN plus
    its azimuth mod 360; it is ascending, so a request's place in a ring
    is one searchsorted away.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    order: np.ndarray
    keys: np.ndarray


def direction_index(azimuth_deg, elevation_deg):
    """Build the search index of a stored direction list."""
    x, y, z = _unit_vectors(azimuth_deg, elevation_deg)
    if x.shape[0] == 0:
        raise ValueError("cannot search an empty direction list")
    az = np.mod(np.asarray(azimuth_deg, dtype=np.float64), 360.0)
    order = np.lexsort((az, z))
    zs = z[order]
    rank = np.concatenate(([0], np.cumsum(zs[1:] != zs[:-1])))
    return DirectionIndex(
        x[order], y[order], zs, order, rank * _RING_SPAN + az[order]
    )


def nearest_direction(index, req_az, req_el):
    """Index of the great-circle-nearest stored direction for each request.

    Nearest by angle == largest dot product of the unit vectors, which
    avoids an arccos per pair. The best dot product `seed` over the
    _SEED_WIDTH stored directions around a request bounds the chord to
    the nearest one, and so its z distance: only stored directions
    within `reach` of the request's z can hold or tie the maximum. Both
    passes evaluate the same dot products as a full scan, so the index
    is the one a full scan gives, ties to the lowest stored index.
    """
    req_az = np.asarray(req_az, dtype=np.float64)
    if not (np.isfinite(req_az).all() and np.isfinite(req_el).all()):
        raise ValueError("cannot search for a non-finite direction")
    rx, ry, rz = _unit_vectors(req_az, req_el)
    n = index.order.shape[0]
    width = min(_SEED_WIDTH, n)
    # The seed window sits in the lowest ring at or above the request's
    # z, at the request's azimuth.
    ring = index.keys[np.minimum(np.searchsorted(index.z, rz), n - 1)] // _RING_SPAN
    at = np.searchsorted(index.keys, ring * _RING_SPAN + np.mod(req_az, 360.0))
    first = np.clip(at - width // 2, 0, n - width)
    seed, _ = _best_in_runs(index, rx, ry, rz, first, np.full(rx.shape[0], width))
    # A stored b whose rounded dot product reaches `seed` has
    # |r - b|^2 = |r|^2 + |b|^2 - 2 r.b <= 2(1 + s)^2 - 2(seed - s), and
    # |rz - bz| <= |r - b|; the outer s covers the rounding of `reach`.
    s = _SLACK
    reach = np.sqrt(2.0 * (1.0 + s) ** 2 - 2.0 * (seed - s)) + s
    lo = np.searchsorted(index.z, rz - reach, side="left")
    hi = np.searchsorted(index.z, rz + reach, side="right")
    return _best_in_runs(index, rx, ry, rz, lo, hi - lo)[1]


def _best_in_runs(index, rx, ry, rz, first, counts):
    """Per request, the largest dot product over the `counts` sorted
    positions from `first`, and the lowest stored index that attains it.

    All runs are one ragged batch, cut into chunks of about
    _CHUNK_ELEMENTS pairs; a run longer than that is a chunk of its own.
    """
    best = np.empty(rx.shape[0], dtype=np.float64)
    arg = np.empty(rx.shape[0], dtype=np.int64)
    ends = np.cumsum(counts)
    a = 0
    while a < rx.shape[0]:
        done = ends[a] - counts[a]
        b = max(a + 1, int(np.searchsorted(ends, done + _CHUNK_ELEMENTS, side="right")))
        cnt = counts[a:b]
        heads = ends[a:b] - cnt - done
        pos = np.arange(ends[b - 1] - done) + np.repeat(first[a:b] - heads, cnt)
        dots = np.repeat(rx[a:b], cnt) * index.x.take(pos)
        dots += np.repeat(ry[a:b], cnt) * index.y.take(pos)
        dots += np.repeat(rz[a:b], cnt) * index.z.take(pos)
        best[a:b] = np.maximum.reduceat(dots, heads)
        # Every run attains its maximum at least once.
        hits = np.flatnonzero(dots == np.repeat(best[a:b], cnt))
        arg[a:b] = np.minimum.reduceat(
            index.order.take(pos.take(hits)), np.searchsorted(hits, heads)
        )
        a = b
    return best, arg


def crowded_directions(azimuth_deg, elevation_deg):
    """Mask of the directions that have another one within _CROWDED_CHORD.

    For any other direction the search's rounding cannot tie with the
    exact match, so a request equal to an uncrowded direction is served
    by that direction. Conservative: directions a few chords apart may
    be flagged too. Two points closer than one chord in every axis share
    a cell of width two chords in one of the eight half-shifted grids.
    """
    units = np.stack(_unit_vectors(azimuth_deg, elevation_deg), axis=1)
    scaled = units / _CROWDED_CHORD
    crowded = np.zeros(units.shape[0], dtype=bool)
    for shift in itertools.product((0.0, 1.0), repeat=3):
        # Cell numbers lie in (-2**19, 2**19); offset, they pack into 21 bits each.
        cells = np.floor((scaled + shift) / 2.0).astype(np.int64) + (1 << 20)
        keys = (cells[:, 0] << 42) | (cells[:, 1] << 21) | cells[:, 2]
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        crowded |= counts[inverse] > 1
    return crowded


def nearest_value(base, req):
    """Index of the nearest base value (absolute difference) per request."""
    base = np.asarray(base, dtype=np.float64)
    req = np.asarray(req, dtype=np.float64)
    if base.shape[0] == 0:
        raise ValueError("cannot search an empty value list")
    return np.argmin(np.abs(req[:, None] - base[None, :]), axis=1).astype(np.int64)


def fourier_basis(order, x):
    """Design matrix of the interleaved trigonometric family.

    Columns: 1, cos(2*pi*x), sin(2*pi*x), cos(4*pi*x), sin(4*pi*x), ...
    """
    if order < 1:
        raise ValueError(f"basis order must be >= 1, got {order}")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], order), dtype=np.float64)
    out[:, 0] = 1.0
    for k in range(1, order):
        arg = 2.0 * np.pi * ((k + 1) // 2) * x
        out[:, k] = np.cos(arg) if k % 2 == 1 else np.sin(arg)
    return out


def cosine_basis(order, x):
    """Design matrix of the half-range cosine family: cos(k*pi*x)."""
    if order < 1:
        raise ValueError(f"basis order must be >= 1, got {order}")
    x = np.asarray(x, dtype=np.float64)
    k = np.arange(order, dtype=np.float64)
    return np.cos(np.pi * x[:, None] * k[None, :])
