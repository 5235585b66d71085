"""Numeric inner loops: nearest-neighbor searches and basis design matrices.

Ties in the nearest-neighbor searches go to the lowest index, because
argmin/argmax return the first occurrence.
"""

import numpy as np


def _unit_vectors(azimuth_deg, elevation_deg):
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.deg2rad(np.asarray(elevation_deg, dtype=np.float64))
    cos_el = np.cos(el)
    return cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)


def nearest_direction(base_az, base_el, req_az, req_el):
    """Index of the great-circle-nearest base direction for each request.

    Nearest by angle == largest dot product of the unit vectors, which
    avoids an arccos per pair.
    """
    bx, by, bz = _unit_vectors(base_az, base_el)
    if bx.shape[0] == 0:
        raise ValueError("cannot search an empty direction list")
    rx, ry, rz = _unit_vectors(req_az, req_el)
    dots = (
        rx[:, None] * bx[None, :]
        + ry[:, None] * by[None, :]
        + rz[:, None] * bz[None, :]
    )
    return np.argmax(dots, axis=1).astype(np.int64)


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
