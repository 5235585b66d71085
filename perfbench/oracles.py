"""Reference computations that share no code with dirkit.

Each oracle follows the documented semantics of the package, not its
implementation: the closed-form synthetic spectrum, a brute-force
great-circle nearest search, a QR least-squares projection with its own
design matrix, and plain text parsers for the DIRD/DIRM formats and for
32-bit float WAV files.
"""

import struct

import numpy as np


class Mismatch(Exception):
    """An output disagrees with its oracle. `known` marks a named fault."""

    def __init__(self, message, known=False):
        super().__init__(message)
        self.known = known


def expect_close(what, got, want, atol, rtol=0.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if not np.all(err <= limit):
        worst = int(np.argmax(err - limit))
        raise Mismatch(
            f"{what}: {got.ravel()[worst]!r} != {want.ravel()[worst]!r} "
            f"at flat index {worst}"
        )


# -- closed-form synthetic spectra -----------------------------------------

def lowpass_gain(g0, g1, azimuth_deg, elevation_deg):
    """g = g0 + g1*cos(el)*sin(az): the documented per-direction gain."""
    az = np.radians(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.radians(np.asarray(elevation_deg, dtype=np.float64))
    return g0 + g1 * np.cos(el) * np.sin(az)


def lowpass_shape(a, length):
    """|1 + a*e^{-i 2 pi k / L}| at the one-sided bins k = 0 .. L/2."""
    k = np.arange(length // 2 + 1)
    return np.abs(1.0 + a * np.exp(-2j * np.pi * k / length))


def to_db(magnitude):
    return 20.0 * np.log10(magnitude)


# -- great-circle and nearest-value searches -------------------------------

def unit_vectors(azimuth_deg, elevation_deg):
    az = np.radians(np.asarray(azimuth_deg, dtype=np.float64))
    el = np.radians(np.asarray(elevation_deg, dtype=np.float64))
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], -1)


def check_nearest_directions(what, stored_units, req_az, req_el, got_az, got_el):
    """Each landed direction must be a stored one at the smallest great-circle
    angle from its request. Angles, not indices, are compared, so any of the
    tied directions at a pole passes."""
    req = unit_vectors(req_az, req_el)
    best_cos = np.max(req @ stored_units.T, axis=1)
    landed = unit_vectors(got_az, got_el)
    got_cos = np.sum(req * landed, axis=1)
    # The cosine falls monotonically with the angle; 1e-12 absorbs rounding
    # and is far below the cosine step between stored neighbours.
    bad = np.flatnonzero(got_cos < best_cos - 1e-12)
    if bad.size:
        i = bad[0]
        got, best = np.degrees(np.arccos(np.clip([got_cos[i], best_cos[i]], -1, 1)))
        raise Mismatch(
            f"{what}: request ({req_az[i]:.9g}, {req_el[i]:.9g}) landed "
            f"{got:.9g} deg away at ({got_az[i]:.9g}, {got_el[i]:.9g}); "
            f"nearest stored is {best:.9g} deg away"
        )
    on_grid = np.max(landed @ stored_units.T, axis=1)
    if np.any(on_grid < 1.0 - 1e-12):
        raise Mismatch(f"{what}: a landed direction is not a stored direction")


def check_nearest_values(what, stored, requested, got):
    stored = np.asarray(stored, dtype=np.float64)
    requested = np.asarray(requested, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    best = np.min(np.abs(requested[:, None] - stored[None, :]), axis=1)
    if not np.all(np.isin(got, stored)):
        raise Mismatch(f"{what}: a landed value is not a stored value")
    if np.any(np.abs(requested - got) > best):
        raise Mismatch(f"{what}: a value did not land on the nearest stored one")


def stored_index(stored_az, stored_el, az, el):
    """Index of a stored direction given by its exact angles (first match)."""
    hits = np.flatnonzero((stored_az == az) & (stored_el == el))
    if hits.size == 0:
        raise Mismatch(f"({az}, {el}) is not a stored direction")
    return int(hits[0])


# -- least-squares projection ----------------------------------------------

def fourier_design(order, x):
    """Columns 1, cos(2 pi x), sin(2 pi x), cos(4 pi x), sin(4 pi x), ..."""
    x = np.asarray(x, dtype=np.float64)
    columns = [np.ones_like(x)]
    for k in range(1, order):
        harmonic = 2.0 * np.pi * ((k + 1) // 2) * x
        columns.append(np.cos(harmonic) if k % 2 else np.sin(harmonic))
    return np.stack(columns, axis=1)


def fit_positions(count):
    """Fit abscissa of `count` retained bins: x_j = j / count."""
    return np.arange(count) / count


def query_positions(frequencies, lo, hi, count):
    """Fit abscissa of arbitrary frequencies after clamping into [lo, hi]."""
    f = np.clip(np.asarray(frequencies, dtype=np.float64), lo, hi)
    return (f - lo) / (hi - lo) * ((count - 1) / count)


def project(order, values):
    """Least-squares coefficients of `values` (bins along axis 0) on the first
    `order` Fourier columns, by QR of the design matrix."""
    values = np.asarray(values, dtype=np.float64)
    design = fourier_design(order, fit_positions(values.shape[0]))
    q, r = np.linalg.qr(design)
    flat = values.reshape(values.shape[0], -1)
    return np.linalg.solve(r, q.T @ flat).reshape((order,) + values.shape[1:])


# -- file parsers ----------------------------------------------------------

def _numbers(tokens):
    return [float(token) for token in tokens]


def parse_dird(path):
    """Plain DIRD parser: returns fs, directions (D, 2), distances, irs (D, L, R)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines[0] != "DIRD 1":
        raise Mismatch(f"{path}: bad signature {lines[0]!r}")
    head = lines[1].split()
    fs, d_count, length, r_count = float(head[1]), int(head[3]), int(head[5]), int(head[7])
    distances = _numbers(lines[3].split()[1:])
    directions = np.array([_numbers(lines[4 + d].split()[1:]) for d in range(d_count)])
    irs = np.empty((d_count, length, r_count))
    row = 4 + d_count
    for r in range(r_count):
        for d in range(d_count):
            irs[d, :, r] = _numbers(lines[row].split()[1:])
            row += 1
    return fs, directions, np.array(distances), irs


def parse_dirm_coefficients(path):
    """Plain DIRM parser: returns the order and coefficients (D, K, R)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    if lines[0] != "DIRM 1":
        raise Mismatch(f"{path}: bad signature {lines[0]!r}")
    head = lines[1].split()
    order, d_count, r_count = int(head[3]), int(head[11]), int(head[13])
    coef = np.empty((d_count, order, r_count))
    row = 5 + d_count
    for r in range(r_count):
        for d in range(d_count):
            coef[d, :, r] = _numbers(lines[row].split()[1:])
            row += 1
    return order, coef


def parse_csv(path):
    """Rows of a CSV file as lists of strings, header first."""
    with open(path, encoding="utf-8") as handle:
        return [line.split(",") for line in handle.read().splitlines()]


def parse_float_wav(path):
    """Sample rate and samples of a mono IEEE-float 32-bit WAV file."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise Mismatch(f"{path}: not a RIFF/WAVE file")
    pos, rate, samples = 12, None, None
    while pos + 8 <= len(data):
        tag, size = data[pos:pos + 4], struct.unpack("<I", data[pos + 4:pos + 8])[0]
        body = data[pos + 8:pos + 8 + size]
        if tag == b"fmt ":
            fmt, channels, rate = struct.unpack("<HHI", body[:8])
            bits = struct.unpack("<H", body[14:16])[0]
            if fmt != 3 or channels != 1 or bits != 32:
                raise Mismatch(f"{path}: format {fmt}, {channels} ch, {bits} bit")
        elif tag == b"data":
            samples = np.frombuffer(body, dtype="<f4")
        pos += 8 + size + (size & 1)
    if rate is None or samples is None:
        raise Mismatch(f"{path}: missing fmt or data chunk")
    return rate, samples
