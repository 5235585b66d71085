"""Numeric inner loops: nearest-neighbor searches and basis design matrices.

Ties in the nearest-neighbor searches go to the lowest index, as argmin
over every stored entry would give them. The direction search ranks by
squared chord, which is 0 only between equal search vectors, and is
windowed: an index of z slabs, each sorted by azimuth and built once per
stored list, limits each request to the slabs whose z lies close enough
to hold the nearest one and, in each, to the azimuth window that can
reach it. It evaluates those with the full scan's expression, so its
indices are bit-identical to the full scan's.
"""

import math
from typing import NamedTuple

import numpy as np


def _unit_vectors(azimuth_deg, elevation_deg):
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.deg2rad(np.asarray(elevation_deg, dtype=np.float64))
    cos_el = np.cos(el)
    return cos_el * np.cos(az), cos_el * np.sin(az), np.sin(el)


# Search vector components below this in magnitude are 0, so two distinct
# components differ by at least 2**-532, whose square is not 0.
_TINY = 2.0**-480


def _search_vectors(azimuth_deg, elevation_deg):
    """Unit vectors as the direction search ranks them: x = y = 0 where
    |elevation| = 90, so the copies of a pole are one point, and every
    component below _TINY is 0. So the squared chord of two is 0 exactly
    when they are equal, and a horizontal length is 0 or above _TINY."""
    el = np.asarray(elevation_deg, dtype=np.float64)
    x, y, z = _unit_vectors(azimuth_deg, el)
    pole = np.abs(el) == 90.0
    x[pole] = y[pole] = 0.0
    for v in (x, y, z):
        v[np.abs(v) < _TINY] = 0.0
    return x, y, z


def _chords(rx, ry, rz, index, pos):
    """Squared chords from (rx, ry, rz) to the stored positions `pos`."""
    x, y, z = index.x.take(pos), index.y.take(pos), index.z.take(pos)
    return (rx - x) ** 2 + (ry - y) ** 2 + (rz - z) ** 2


# Each search chunk gathers about this many (request, candidate) pairs,
# so that every temporary holds about this many float64 elements
# (128 kB) and stays in cache.
_CHUNK_ELEMENTS = 1 << 14

# Stored directions around a request, in slab and azimuth order, whose
# smallest squared chord seeds the search.
_SEED_WIDTH = 16

# Bounds the rounding of a squared chord and of a unit vector's length.
_SLACK = 1e-12

# Key span of one slab; any azimuth in [-pi, pi] fits with room to spare.
_SLAB_SPAN = 8.0


class DirectionIndex(NamedTuple):
    """Stored search vectors cut into z slabs, for nearest_direction.

    A slab is a run of about sqrt(n) z-sorted stored directions that
    never splits a ring of equal z; its positions run from `starts[k]`
    to `starts[k + 1]`, sorted by azimuth atan2(y, x). `order` maps a
    position to its stored index, and `keys` is the slab number times
    _SLAB_SPAN plus the azimuth, ascending over all positions. `z_lo`,
    `z_hi` and `rho_max` are each slab's smallest and largest z and
    largest horizontal length sqrt(x^2 + y^2).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    order: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    rho_max: np.ndarray


def direction_index(azimuth_deg, elevation_deg):
    """Build the search index of a stored direction list."""
    x, y, z = _search_vectors(azimuth_deg, elevation_deg)
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot search an empty direction list")
    by_z = np.argsort(z, kind="stable")
    zs = z[by_z]
    # Cut at the first ring start at or after each multiple of sqrt(n).
    rings = np.append(np.flatnonzero(zs[1:] != zs[:-1]) + 1, n)
    size = math.isqrt(n - 1) + 1
    cut = np.zeros(n + 1, dtype=bool)
    cut[[0, n]] = True
    cut[rings[np.searchsorted(rings, np.arange(size, n, size))]] = True
    starts = np.flatnonzero(cut)
    slab = np.repeat(np.arange(starts.shape[0] - 1), np.diff(starts))
    phi = np.arctan2(y, x)[by_z]
    within = np.lexsort((phi, slab))
    order = by_z[within]
    rho = np.hypot(x, y)
    return DirectionIndex(
        x[order],
        y[order],
        z[order],
        order,
        slab * _SLAB_SPAN + phi[within],
        starts,
        zs[starts[:-1]],
        zs[starts[1:] - 1],
        np.maximum.reduceat(rho[order], starts[:-1]),
    )


def nearest_direction(index, req_az, req_el):
    """Index of the great-circle-nearest stored direction for each request.

    Nearest by angle == smallest squared chord of the search vectors,
    which avoids an arccos per pair and is 0 only between equal ones, so
    a stored direction finds itself or an earlier equal one. The best
    chord `seed` over the _SEED_WIDTH stored directions around a request
    bounds the z slabs that can hold the nearest one. In each such slab
    only an azimuth window around the request's azimuth can reach the
    seed (see _windows), so only that window is compared: rings first,
    then one azimuth range per ring, as in HEALPix's query_disc (Gorski
    et al. 2005). Both passes evaluate _chords, as a full scan would, so
    the index is the one a full scan gives, ties to the lowest index.
    """
    req_az = np.asarray(req_az, dtype=np.float64)
    if not (np.isfinite(req_az).all() and np.isfinite(req_el).all()):
        raise ValueError("cannot search for a non-finite direction")
    rx, ry, rz = _search_vectors(req_az, req_el)
    phi, rho = np.arctan2(ry, rx), np.hypot(rx, ry)
    n, q = index.order.shape[0], rx.shape[0]
    width = min(_SEED_WIDTH, n)
    # The seed window sits at the request's azimuth in the highest slab
    # whose lowest z is at or below the request's, or in the first slab.
    slab = np.maximum(index.z_lo.searchsorted(rz, side="right") - 1, 0)
    at = index.keys.searchsorted(slab * _SLAB_SPAN + phi)
    first = np.clip(at - width // 2, 0, n - width)
    seed = np.empty(q, dtype=np.float64)
    step = max(1, _CHUNK_ELEMENTS // width)
    for a in range(0, q, step):
        pos = first[a : a + step, None] + np.arange(width)
        r = slice(a, a + step)
        seed[r] = _chords(rx[r, None], ry[r, None], rz[r, None], index, pos).min(axis=1)
    # A stored b whose rounded chord reaches `seed` has |rz - bz| <=
    # |r - b| <= sqrt(seed + s); the outer s covers the rounding of `reach`.
    s = _SLACK
    reach = np.sqrt(seed + s) + s
    lo = index.z_hi.searchsorted(rz - reach, side="left")
    slabs = index.z_lo.searchsorted(rz + reach, side="right") - lo
    arg = np.empty(q, dtype=np.int64)
    for c in _chunks(slabs):
        starts, lengths = _windows(index, phi[c], rho[c], rz[c], seed[c], lo[c], slabs[c])
        arg[c] = _best_in_runs(index, rx[c], ry[c], rz[c], starts, lengths, slabs[c])
    return arg


def _chunks(counts):
    """Slices of consecutive requests whose counts sum to at most
    _CHUNK_ELEMENTS; a request with more is a chunk of its own."""
    ends = counts.cumsum()
    a = 0
    while a < ends.shape[0]:
        done = ends[a] - counts[a]
        b = max(a + 1, int(ends.searchsorted(done + _CHUNK_ELEMENTS, side="right")))
        yield slice(a, b)
        a = b


def _windows(index, phi, rho, rz, seed, first, slabs):
    """The sorted positions that can reach each request's seed in the
    `slabs` slabs from `first`: two runs (starts, lengths) per request
    and slab, in request order, as arrays of shape (pairs, 2).

    A stored b whose rounded squared chord reaches `seed` has
    |r - b|^2 <= seed + s, so r.b >= 1 - (seed + s) / 2 (chord^2 =
    2 - 2 r.b; s covers the lengths) and rho_r rho_b cos(dphi) >= num.
    When num <= 0 the whole slab is taken. Otherwise cos(dphi) >=
    num / (rho_r rho_max), and a slab where that exceeds 1, or where
    rho_r rho_max is 0 (a request at a pole, a slab of poles), holds no
    such b. The second s in `num` and the one on the half-width cover
    the rounding of the bound, of the azimuths and of the wrap at +-pi.
    """
    s = _SLACK
    ends = slabs.cumsum()
    req = np.arange(phi.shape[0]).repeat(slabs)
    k = np.arange(ends[-1]) + (first - ends + slabs).repeat(slabs)
    rz, phi = rz[req], phi[req]
    num = 1.0 - (seed[req] + s) / 2.0 - s - np.maximum(rz * index.z_lo[k], rz * index.z_hi[k])
    rhos = rho[req] * index.rho_max[k]  # 0 or above _TINY**2: no overflow
    cos_min = np.divide(num, rhos, out=np.full_like(num, 2.0), where=rhos > 0.0)
    half = np.arccos(np.maximum(np.minimum(cos_min, 1.0), -1.0)) + s
    half[cos_min > 1.0] = -1.0
    whole = num <= 0.0
    phi[whole], half[whole] = 0.0, np.pi
    left, right = phi - half, phi + half
    # A window across +-pi is the slab's two ends.
    under, over = left < -np.pi, right > np.pi
    left += under * (2.0 * np.pi)
    right -= over * (2.0 * np.pi)
    wrapped = under | over
    base = k * _SLAB_SPAN
    lo = index.keys.searchsorted(base + left, side="left")
    hi = index.keys.searchsorted(base + right, side="right")
    head, tail = index.starts[k], index.starts[k + 1]
    starts = np.empty((k.shape[0], 2), dtype=np.int64)
    lengths = np.empty((k.shape[0], 2), dtype=np.int64)
    starts[:, 0], starts[:, 1] = lo, head
    lengths[:, 0] = np.maximum(hi + wrapped * (tail - hi) - lo, 0)
    lengths[:, 1] = wrapped * (hi - head)
    return starts, lengths


def _best_in_runs(index, rx, ry, rz, starts, lengths, slabs):
    """Per request, the lowest stored index that attains the smallest
    squared chord over its runs of sorted positions: the runs of `slabs[i]`
    rows of (starts, lengths), after those of the requests before it.

    The runs are one ragged batch, cut into chunks of about
    _CHUNK_ELEMENTS pairs; a request with more is a chunk of its own.
    """
    arg = np.empty(rx.shape[0], dtype=np.int64)
    rows = slabs.cumsum()
    counts = np.add.reduceat(lengths.sum(axis=1), rows - slabs)
    for c in _chunks(counts):
        r = slice(rows[c.start] - slabs[c.start], rows[c.stop - 1])
        cnt, length = counts[c], lengths[r].ravel()
        heads = cnt.cumsum() - cnt
        offsets = length.cumsum() - length
        pos = np.arange(heads[-1] + cnt[-1]) + (starts[r].ravel() - offsets).repeat(length)
        chords = _chords(rx[c].repeat(cnt), ry[c].repeat(cnt), rz[c].repeat(cnt), index, pos)
        best = np.minimum.reduceat(chords, heads)
        # Every request attains its minimum at least once.
        hits = (chords == best.repeat(cnt)).nonzero()[0]
        arg[c] = np.minimum.reduceat(
            index.order.take(pos.take(hits)), hits.searchsorted(heads)
        )
    return arg


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
