"""Numeric inner loops: nearest-neighbor searches and basis design matrices.

Ties in the nearest-neighbor searches go to the lowest index, as argmin
over every stored entry would give them. The direction search ranks by
squared chord, which is 0 only between equal search vectors, and is
windowed: an index of z slabs, each sorted by azimuth and built once per
stored list, limits each request to the slabs whose z lies close enough
to hold the nearest one and, in each, to the azimuth window that can
reach it. It evaluates those with the full scan's expression, so its
indices are bit-identical to the full scan's.

A search of a few requests costs its numpy calls more than its
arithmetic, so the search keeps their number fixed and small: what a
step reads of a request or of a slab is one row of one array, each pass
gathers its candidates' (x, y, z) columns with one `take`, slabs that
cannot hold the nearest direction are dropped before their windows are
searched, and a batch within one chunk runs no chunk loop.
"""

import math
from typing import NamedTuple

import numpy as np


# Search vector components below this in magnitude are 0, so two distinct
# components differ by at least 2**-532, whose square is not 0.
_TINY = 2.0**-480

# Bounds the rounding of a squared chord and of a unit vector's length.
_SLACK = 1e-12

# Key span of one slab; any azimuth in [-pi, pi] fits with room to spare.
_SLAB_SPAN = 8.0

# The search's scalars as 0-d arrays, which numpy applies faster than
# Python floats; the values are the same.
_C = {
    name: np.array(value)
    for name, value in dict(
        tiny=_TINY, pole=90.0, slack=_SLACK, span=_SLAB_SPAN, one=1.0, two=2.0,
        minus_one=-1.0, zero=0.0, rho_floor=_TINY**2, pi=np.pi, inf=np.inf,
        largest=np.finfo(np.float64).max,
    ).items()
}


def _search_vectors(azimuth_deg, elevation_deg):
    """Unit vectors as the direction search ranks them, rows x, y and z
    of a (3,) + shape array for inputs of one shape: x = y = 0 where
    |elevation| = 90, so the copies of a pole are one point, and every
    component below _TINY is 0. So the squared chord of two is 0 exactly
    when they are equal, and a horizontal length is 0 or above _TINY.
    The great-circle angle and the interaural conversions use them too."""
    angles = np.array((azimuth_deg, elevation_deg), dtype=np.float64)
    magnitudes = np.abs(angles)
    if np.count_nonzero(magnitudes <= _C["largest"]) < angles.size:
        raise ValueError("cannot search for a non-finite direction")
    rad = np.deg2rad(angles)
    # Rows cos(az), sin(az), sin(el), cos(el); cos(el) is set to 0 at
    # the poles, and the flush turns an x or y of -0 that gives into 0.
    trig = np.empty((4,) + rad.shape[1:])
    np.cos(rad, out=trig[::3])
    np.sin(rad, out=trig[1:3])
    np.putmask(trig[3:], magnitudes[1:] == _C["pole"], 0.0)
    trig[:2] *= trig[3:]
    vectors = trig[:3]
    np.putmask(vectors, np.abs(vectors) < _C["tiny"], 0.0)
    return vectors


def _chords(index, req, pos):
    """Squared chords from the request vectors `req` to the stored
    positions `pos`, `req` shaped to broadcast against (3,) + pos.shape."""
    d = index.vectors.take(pos, axis=1)
    d -= req
    d *= d
    return d[0] + d[1] + d[2]


# Each search chunk gathers about this many (request, candidate) pairs,
# so that every temporary holds about this many float64 elements
# (128 kB) and stays in cache.
_CHUNK_ELEMENTS = 1 << 14

# Stored directions around a request, in slab and azimuth order, whose
# smallest squared chord seeds the search.
_SEED_WIDTH = 16


class DirectionIndex(NamedTuple):
    """Stored search vectors cut into z slabs, for nearest_direction.

    A slab is a run of about sqrt(n) z-sorted stored directions that
    never splits a ring of equal z; its positions run from `starts[k]`
    to `starts[k + 1]`, sorted by azimuth atan2(y, x). `vectors` holds
    the x, y and z rows of the positions, `order` their stored indices
    and `ties` those indices times 1j. `keys` is the slab number times
    _SLAB_SPAN plus the azimuth, ascending over all positions. `z_lo`
    and `z_hi` are each slab's smallest and largest z. Column k of
    `slab_rows` is what _windows reads of slab k: k * _SLAB_SPAN, z_lo,
    z_hi and rho_max, the largest horizontal length sqrt(x^2 + y^2);
    column k of `slab_bounds` is starts[k] and starts[k + 1].
    """

    vectors: np.ndarray
    order: np.ndarray
    ties: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    z_lo: np.ndarray
    z_hi: np.ndarray
    slab_rows: np.ndarray
    slab_bounds: np.ndarray


def direction_index(azimuth_deg, elevation_deg):
    """Build the search index of a stored direction list."""
    vectors = _search_vectors(azimuth_deg, elevation_deg)
    x, y, z = vectors
    n = z.shape[0]
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
    z_lo, z_hi = zs[starts[:-1]], zs[starts[1:] - 1]
    rho_max = np.maximum.reduceat(np.hypot(x, y)[order], starts[:-1])
    base = np.arange(starts.shape[0] - 1) * _SLAB_SPAN
    return DirectionIndex(
        vectors.take(order, axis=1),
        order,
        order * 1j,
        slab * _SLAB_SPAN + phi[within],
        starts,
        z_lo,
        z_hi,
        np.stack((base, z_lo, z_hi, rho_max)),
        np.stack((starts[:-1], starts[1:])),
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

    A small batch costs a fixed number of numpy calls, about a hundred:
    each pass gathers its candidates' vectors with one `take`, and what
    a step needs of a request or a slab is one row of one array.
    """
    req = _search_vectors(req_az, req_el)
    x, y, z = req
    q, n = z.shape[0], index.order.shape[0]
    if q == 0:
        return np.empty(0, dtype=np.int64)
    # Per request, what _windows reads: z twice, rho, c (set below), phi.
    table = np.empty((5, q))
    table[:2] = z
    np.hypot(x, y, out=table[2])
    phi = np.arctan2(y, x, out=table[4])
    # The seed window sits at the request's azimuth in the highest slab
    # whose lowest z is at or below the request's, or in the first slab;
    # searching the keys without their ends clips it into the positions.
    width = min(_SEED_WIDTH, n)
    slab = index.z_lo[1:].searchsorted(z, "right")
    first = index.keys[width // 2 : n - width + width // 2].searchsorted(
        slab * _C["span"] + phi
    )
    seed = np.empty(q)
    window = np.arange(width)[:, None]
    step = max(1, _CHUNK_ELEMENTS // width)
    for a in range(0, q, step):
        r = slice(a, a + step)
        chords = _chords(index, req[:, None, r], first[r] + window)
        np.minimum.reduce(chords, axis=0, out=seed[r])
    # A stored b whose rounded chord reaches `seed` has |rz - bz| <=
    # |r - b| <= sqrt(seed + s); the outer s covers the rounding of `reach`.
    s = _C["slack"]
    bound = seed + s
    reach = np.sqrt(bound) + s
    lo = index.z_hi.searchsorted(z - reach)
    slabs = index.z_lo.searchsorted(z + reach, "right") - lo
    np.subtract(_C["one"] - bound / _C["two"], s, out=table[3])
    ends = np.add.accumulate(slabs)
    if ends[-1] <= _CHUNK_ELEMENTS:
        return _nearest_in_bands(index, req, table, lo, slabs)
    arg = np.empty(q, dtype=np.int64)
    for a, b in _chunks(ends):
        r = slice(a, b)
        arg[r] = _nearest_in_bands(index, req[:, r], table[:, r], lo[r], slabs[r])
    return arg


def _nearest_in_bands(index, req, table, first, slabs):
    """nearest_direction's result for requests whose bands are the
    `slabs` slabs from `first`."""
    starts, lengths, kept = _windows(index, table, first, slabs)
    return _best_in_runs(index, req, starts, lengths, 2 * kept)


# _windows' edges phi - half and phi + half are phi plus these times half;
# where one crosses -pi or pi, it moves back by these.
_EDGE_SIGN = np.array([[-1.0], [1.0]])
_EDGE_WRAP = np.array([[-2.0 * np.pi], [2.0 * np.pi]])
# The edges of a whole slab.
_EDGE_WHOLE = np.array([[-np.pi], [np.pi]])


def _windows(index, table, first, slabs):
    """The sorted positions that can reach each request's seed in the
    `slabs` slabs from `first`: two runs per request and slab that can
    hold such positions, in request order, as flat arrays (starts,
    lengths), and the number of those slabs per request. `table` has
    rows z, z, rho, c and phi of the requests, c = 1 - (seed + s)/2 - s.

    A stored b whose rounded squared chord reaches `seed` has
    |r - b|^2 <= seed + s, so r.b >= 1 - (seed + s) / 2 (chord^2 =
    2 - 2 r.b; s covers the lengths) and rho_r rho_b cos(dphi) >= num.
    A slab where num exceeds the rho product rho_r rho_max holds no such
    b and is dropped; that covers a product of 0 (a request at a pole, a
    slab of poles). When num <= 0 the whole slab is taken. Otherwise
    cos(dphi) >= num / (rho_r rho_max), which bounds the window's
    half-width. The second s in `num` and the one on the half-width
    cover the rounding of the bound, of the azimuths and of the wrap at
    +-pi.

    A window across -pi or pi, moved back by 2 pi, is the slab's two
    ends: the runs [lo, tail) and [head, hi), where one within [-pi, pi]
    is [lo, hi) and [head, head).
    """
    ends = np.add.accumulate(slabs)
    k = np.arange(ends[-1]) + (first - ends + slabs).repeat(slabs)
    # Rows z, z, rho, c, phi of the request and k * _SLAB_SPAN, z_lo,
    # z_hi, rho_max of the slab, per (request, slab) pair; the products
    # z z_lo, z z_hi, rho rho_max and then num replace the first four.
    pairs = np.concatenate((table.repeat(slabs, axis=1), index.slab_rows.take(k, axis=1)))
    np.multiply(pairs[:3], pairs[6:], out=pairs[:3])
    rhos, num = pairs[2], pairs[3]
    np.subtract(num, np.maximum(pairs[0], pairs[1]), out=num)
    keep = num <= rhos
    kept = np.add.reduceat(keep, ends - slabs)
    k = k.compress(keep)
    rhos, num, phi, base = pairs[2:6].compress(keep, axis=1)
    # rhos is 0 or above _TINY**2, so the quotient does not overflow, and
    # it is at most 1: num <= rhos.
    cos_min = num / np.maximum(rhos, _C["rho_floor"])
    half = np.arccos(np.maximum(cos_min, _C["minus_one"]))
    half += _C["slack"]
    edges = phi + half * _EDGE_SIGN
    np.copyto(edges, _EDGE_WHOLE, where=num <= _C["zero"])
    cross = edges * _EDGE_SIGN > _C["pi"]
    np.subtract(edges, _EDGE_WRAP, out=edges, where=cross)
    wrapped = cross[0] | cross[1]
    edges += base
    # The upper edge's right-side search, as a left-side one.
    np.nextafter(edges[1], _C["inf"], out=edges[1])
    lo_hi = index.keys.searchsorted(edges)
    # Rows lo, hi, head, tail, hi.
    found = np.concatenate((lo_hi, index.slab_bounds.take(k, axis=1), lo_hi[1:]))
    starts = found[0:3:2]
    lengths = np.maximum(np.maximum(found[1:3], found[3:5] * wrapped) - starts, 0)
    return starts.T.ravel(), lengths.T.ravel(), kept


def _chunks(ends):
    """(a, b) bounds of consecutive requests whose counts, summed up to
    `ends`, total at most _CHUNK_ELEMENTS; a request with more is a
    chunk of its own."""
    bounds, a, q = [], 0, ends.shape[0]
    while a < q:
        done = ends[a - 1] if a else 0
        b = max(a + 1, int(ends.searchsorted(done + _CHUNK_ELEMENTS, "right")))
        bounds.append((a, b))
        a = b
    return bounds


def _best_in_runs(index, req, starts, lengths, runs):
    """Per request, the lowest stored index that attains the smallest
    squared chord over its runs of sorted positions: the `runs[i]` runs
    (starts, lengths) after those of the requests before it.

    The runs are one ragged batch of positions, compared at once when
    it holds at most _CHUNK_ELEMENTS and otherwise in chunks of about
    that many; a request with more is a chunk of its own.
    """
    ends = np.add.accumulate(lengths)
    offsets = ends - lengths
    run_ends = np.add.accumulate(runs)
    heads = offsets.take(run_ends - runs)
    shift = starts - offsets
    if ends[-1] <= _CHUNK_ELEMENTS:
        return _best_of(index, req, runs, shift, lengths, heads, 0, ends[-1])
    arg = np.empty(runs.shape[0], dtype=np.int64)
    done = np.append(heads[1:], ends[-1])
    for a, b in _chunks(done):
        r = slice(run_ends[a] - runs[a], run_ends[b - 1])
        arg[a:b] = _best_of(
            index, req[:, a:b], runs[a:b], shift[r], lengths[r], heads[a:b] - heads[a],
            heads[a], done[b - 1],
        )
    return arg


def _best_of(index, req, runs, shift, lengths, heads, first, last):
    """_best_in_runs over positions `first` to `last` of the batch, the
    requests' first ones at `heads` from `first`. The smallest chord +
    1j * stored index is the smallest chord at the lowest index, as
    numpy orders complex numbers by real part first."""
    pos = np.arange(first, last) + shift.repeat(lengths)
    reqs = req.repeat(runs, axis=1).repeat(lengths, axis=1)
    keys = _chords(index, reqs, pos) + index.ties.take(pos)
    return np.minimum.reduceat(keys, heads).imag.astype(np.int64)


# nearest_value compares about this many (request, value) pairs at once
# (512 kB per temporary); a read of all 129 bins at all 129 bins is one
# chunk.
_VALUE_CHUNK_ELEMENTS = 1 << 16


def nearest_value(base, req):
    """Index of the nearest base value (absolute difference) per request.

    The base may be in any order. Requests are compared with every base
    value in chunks of rows, so memory stays bounded for any sizes.
    """
    base = np.asarray(base, dtype=np.float64)
    req = np.asarray(req, dtype=np.float64)
    if base.shape[0] == 0:
        raise ValueError("cannot search an empty value list")
    arg = np.empty(req.shape[0], dtype=np.int64)
    step = max(1, _VALUE_CHUNK_ELEMENTS // base.shape[0])
    for a in range(0, req.shape[0], step):
        gaps = req[a : a + step, None] - base
        np.abs(gaps, out=gaps).argmin(axis=1, out=arg[a : a + step])
    return arg


def fourier_basis(order, x):
    """Design matrix of the interleaved trigonometric family.

    Columns: 1, cos(2*pi*x), sin(2*pi*x), cos(4*pi*x), sin(4*pi*x), ...
    """
    if order < 1:
        raise ValueError(f"basis order must be >= 1, got {order}")
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], order), dtype=np.float64)
    out[:, 0] = 1.0
    # Harmonics m = 1 .. order//2 in one C-contiguous argument grid: a
    # strided argument takes another ufunc loop, whose last bits can differ.
    arg = x[:, None] * (2.0 * np.pi * np.arange(1, order // 2 + 1, dtype=np.float64))
    out[:, 1::2] = np.cos(arg)
    out[:, 2::2] = np.sin(arg)[:, : (order - 1) // 2]
    return out


def cosine_basis(order, x):
    """Design matrix of the half-range cosine family: cos(k*pi*x)."""
    if order < 1:
        raise ValueError(f"basis order must be >= 1, got {order}")
    x = np.asarray(x, dtype=np.float64)
    k = np.arange(order, dtype=np.float64)
    return np.cos(np.pi * x[:, None] * k[None, :])
