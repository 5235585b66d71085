"""Numeric inner loops: nearest-neighbor searches and basis design matrices.

Ties in the nearest-neighbor searches go to the lowest index, because
argmin/argmax return the first occurrence.
"""

import itertools

import numpy as np


def _unit_vectors(azimuth_deg, elevation_deg):
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.deg2rad(np.asarray(elevation_deg, dtype=np.float64))
    cos_el = np.cos(el)
    return cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)


# Requests per search chunk are sized so that each (requests x base)
# temporary holds about this many float64 elements (2 MB).
_CHUNK_ELEMENTS = 1 << 18

# Two directions whose unit vectors lie closer than this can swap places
# in the rounding of the search's dot products; see crowded_directions.
_CROWDED_CHORD = 1e-6


def nearest_direction(base_az, base_el, req_az, req_el):
    """Index of the great-circle-nearest base direction for each request.

    Nearest by angle == largest dot product of the unit vectors, which
    avoids an arccos per pair. Requests are searched in chunks, so the
    temporaries stay near _CHUNK_ELEMENTS elements at any grid size.
    """
    bx, by, bz = _unit_vectors(base_az, base_el)
    if bx.shape[0] == 0:
        raise ValueError("cannot search an empty direction list")
    rx, ry, rz = _unit_vectors(req_az, req_el)
    out = np.empty(rx.shape[0], dtype=np.int64)
    step = max(1, _CHUNK_ELEMENTS // bx.shape[0])
    for start in range(0, rx.shape[0], step):
        rows = slice(start, start + step)
        dots = rx[rows, None] * bx
        dots += ry[rows, None] * by
        dots += rz[rows, None] * bz
        out[rows] = np.argmax(dots, axis=1)
    return out


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
