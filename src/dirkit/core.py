"""The uniform representation contract and the shared read machinery.

Every directivity representation exposes the same surface: an info
string, a coordinate set, a set of supported datatypes, and a matrix
read that coerces requested coordinates onto what the representation can
actually serve. Vector reads, spectrum series, and balloon grids are
derived from the matrix read once, here.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .coords import (
    CoordinateSet,
    _ascending,
    _as_directions,
    _check_value,
    _Directions,
    coerce,
)
from .errors import UnsupportedDatatypeError

DB_FLOOR = -300.0
SERIES_SAMPLES = 512
SERIES_MIN_HZ = 20.0
BALLOON_STEP_DEG = 5.0


class DataType(Enum):
    """The value kinds a representation can serve."""

    IMPULSE_RESPONSES = "irs"
    COMPLEX_SPECTRUM = "complex"
    LINEAR_MAGNITUDE = "lin"
    POWER_SPECTRUM = "pow"
    LOG_MAGNITUDE = "log"

    @classmethod
    def parse(cls, text):
        aliases = {
            "irs": cls.IMPULSE_RESPONSES,
            "ir": cls.IMPULSE_RESPONSES,
            "impulse": cls.IMPULSE_RESPONSES,
            "complex": cls.COMPLEX_SPECTRUM,
            "lin": cls.LINEAR_MAGNITUDE,
            "linear": cls.LINEAR_MAGNITUDE,
            "pow": cls.POWER_SPECTRUM,
            "power": cls.POWER_SPECTRUM,
            "log": cls.LOG_MAGNITUDE,
            "db": cls.LOG_MAGNITUDE,
        }
        key = str(text).strip().lower()
        if key not in aliases:
            raise ValueError(f"unknown datatype {text!r} (try irs/complex/lin/pow/log)")
        return aliases[key]

    @property
    def is_spectral(self):
        return self is not DataType.IMPULSE_RESPONSES


def linear_to_db(linear):
    """20*log10 of a magnitude in a new array, floored at -300 dB so zeros
    stay finite."""
    db = magnitude_as(DataType.LOG_MAGNITUDE, np.array(linear, dtype=np.float64))
    return db if db.ndim else db[()]


_LN10_OVER_20 = np.log(10.0) / 20.0


def db_to_linear(db):
    """10**(db/20) in a new array, computed as exp(db * ln(10)/20).

    Within a relative 1e-14 of the `10.0 ** (db / 20.0)` power form over
    [DB_FLOOR, 300] dB; 0 dB maps to exactly 1.0.
    """
    linear = np.array(db, dtype=np.float64)
    _db_to_linear_in_place(linear)
    return linear if linear.ndim else linear[()]


def _db_to_linear_in_place(db):
    """db_to_linear written into the float64 array `db` itself."""
    np.multiply(db, _LN10_OVER_20, out=db)
    return np.exp(db, out=db)


_GATHER_STEP = 1 << 16


def _run(idx):
    """The slice equal to `idx` when it ascends by one from its first entry
    (an empty index too), else None."""
    if len(idx) > 1 and np.count_nonzero(idx[1:] - idx[:-1] != 1):
        return None
    start = int(idx[0]) if len(idx) else 0
    return slice(start, start + len(idx))


def gather(values, d_idx, f_idx, r_idx):
    """`values[np.ix_(d_idx, f_idx, r_idx)]` of a (D, F, R) array, bit for
    bit, as a new C-contiguous array.

    When the frequency and the distance indices are each a run of
    consecutive ascending indices (a whole-set read, an IR read), the read
    is one slice copy, `values[d_idx, f0:f1, r0:r1]`. Otherwise the
    (frequency, distance) pairs are one flat index into the rows of
    `values.reshape(D, F*R)`, and rows are taken in chunks of about 64k
    output elements straight into the output, so the only temporary is
    one chunk's flat index. Indices must be non-negative and in range.
    """
    d_idx, f_idx, r_idx = (np.asarray(i, dtype=np.int64) for i in (d_idx, f_idx, r_idx))
    f_run, r_run = _run(f_idx), _run(r_idx)
    if f_run is not None and r_run is not None:
        # A Fortran-ordered input gives a non-contiguous slice copy.
        return np.ascontiguousarray(values[d_idx, f_run, r_run])
    _, freq_count, dist_count = values.shape
    row_len = freq_count * dist_count
    cells = (f_idx[:, None] * dist_count + r_idx).ravel()
    out = np.empty((len(d_idx), len(f_idx), len(r_idx)), dtype=values.dtype)
    flat_out = out.reshape(len(d_idx), len(cells))
    flat = values.reshape(-1)
    starts = d_idx * row_len
    step = max(1, min(len(d_idx), _GATHER_STEP // max(1, len(cells))))
    index = np.empty((step, len(cells)), dtype=np.int64)
    for lo in range(0, len(d_idx), step):
        hi = min(lo + step, len(d_idx))
        rows = np.add(starts[lo:hi, None], cells, out=index[: hi - lo])
        # mode="wrap" writes straight into `out`; "raise" would buffer it.
        np.take(flat, rows, out=flat_out[lo:hi], mode="wrap")
    return out


def magnitude_as(datatype, magnitude):
    """Convert a float64 linear magnitude array to lin, pow, or log in
    place, and return it."""
    if datatype is DataType.LINEAR_MAGNITUDE:
        return magnitude
    if datatype is DataType.POWER_SPECTRUM:
        return np.multiply(magnitude, magnitude, out=magnitude)
    if datatype is DataType.LOG_MAGNITUDE:
        with np.errstate(divide="ignore"):
            np.log10(magnitude, out=magnitude)
        np.multiply(magnitude, 20.0, out=magnitude)
        return np.maximum(magnitude, DB_FLOOR, out=magnitude)
    raise ValueError(f"{datatype} is not a magnitude datatype")


@dataclass(frozen=True)
class DataVolume:
    """Values read at actual coordinates, shaped (direction, frequency, distance).

    For impulse-response reads the middle axis indexes time samples and
    `coords.frequencies` holds the sample times in seconds.
    """

    values: np.ndarray
    coords: CoordinateSet
    datatype: DataType

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 3:
            raise ValueError(f"volume must be 3D, got shape {values.shape}")
        expected = (
            len(self.coords.directions),
            len(self.coords.frequencies),
            len(self.coords.distances),
        )
        if values.shape != expected:
            raise ValueError(
                f"volume shape {values.shape} does not match coords {expected}"
            )
        if (values.dtype.kind == "c") != (self.datatype is DataType.COMPLEX_SPECTRUM):
            raise ValueError(
                f"element kind {values.dtype} does not match datatype {self.datatype.value}"
            )
        object.__setattr__(self, "values", values)


class SpectrumSeries(NamedTuple):
    frequencies: np.ndarray
    values: np.ndarray
    coords: CoordinateSet


class BalloonGrid(NamedTuple):
    directions: tuple
    values: np.ndarray
    coords: CoordinateSet


class Directivity(ABC):
    """Abstract directivity representation.

    Immutable after construction; all reads are pure functions of the
    requested coordinates and datatype.
    """

    def __init__(self, info, coords):
        self._info = str(info)
        self._coords = coords

    @property
    def info(self):
        return self._info

    @property
    def coords(self):
        return self._coords

    @property
    @abstractmethod
    def supported_datatypes(self):
        """Frozen set of DataType values get_data_matrix accepts."""

    @abstractmethod
    def get_data_matrix(self, requested, datatype):
        """Read a DataVolume at the coerced coordinates, its values a new
        array that the caller may write into."""

    def _check_datatype(self, datatype):
        if datatype not in self.supported_datatypes:
            raise UnsupportedDatatypeError(datatype, self.supported_datatypes)

    def get_data_vector(self, requested, datatype):
        """Matrix read flattened with the direction index varying fastest,
        then frequency, then distance. Returns (vector, actual coords)."""
        volume = self.get_data_matrix(requested, datatype)
        return np.ravel(volume.values, order="F"), volume.coords

    def spectrum_series(self, direction, distance=1.0, datatype=DataType.LOG_MAGNITUDE):
        """Spectrum at one direction/distance as (frequencies, values).

        Frequency-discrete representations report every stored bin;
        frequency-continuous ones are sampled at the distinct values of 512
        log-spaced points between the limits (a lower limit of 0 floored at
        20 Hz, or at the upper limit when that is below 20 Hz), or at the one
        frequency of equal limits.
        """
        if not datatype.is_spectral:
            raise ValueError("spectrum_series needs a spectral datatype")
        distance = float(distance)
        # Checked as a CoordinateSet would check them. The stored bins are
        # read as they are: a read at its own strictly ascending bins lands
        # on them with no search, and repeated bins are searched.
        dirs = _as_directions((direction,))
        if self.coords.continuity.frequency:
            lo, hi = self.coords.frequencies
            if lo == 0.0:
                lo = min(SERIES_MIN_HZ, hi)
            if lo == hi:  # one frequency, which geomspace would round
                freqs = np.array([hi])
            else:
                # Limits a few ulps apart give repeated points; serve each once.
                freqs = np.unique(np.geomspace(lo, hi, SERIES_SAMPLES))
            freqs = _ascending(freqs, "frequency", 0.0, strict_min=False)
        else:
            freqs = self.coords._values[0]
        _check_value(distance, "distance", 0.0, strict_min=True)
        requested = CoordinateSet._unchecked(dirs, freqs, (distance,))
        volume = self.get_data_matrix(requested, datatype)
        return SpectrumSeries(
            volume.coords.frequency_array, volume.values[0, :, 0], volume.coords
        )

    def balloon_grid(self, frequency, distance=1.0, datatype=DataType.LOG_MAGNITUDE):
        """Values over direction at one frequency/distance.

        Direction-discrete representations report every stored direction,
        read at the stored directions; direction-continuous ones are
        sampled on a 5-degree equiangular grid inside the elevation limits.
        """
        if not datatype.is_spectral:
            raise ValueError("balloon_grid needs a spectral datatype")
        dirs = self.coords.directions
        if self.coords.continuity.direction:
            lo, hi = self.coords.elevation_limits
            elevations = np.arange(-90.0, 90.0 + BALLOON_STEP_DEG, BALLOON_STEP_DEG)
            elevations = elevations[(elevations >= lo) & (elevations <= hi)]
            grid = np.meshgrid(np.arange(0.0, 360.0, BALLOON_STEP_DEG), elevations)
            dirs = _Directions(np.stack(grid, axis=-1).reshape(-1, 2))
        # Only frequency and distance need checking: the directions are
        # distinct or the stored ones (a diff's may repeat the pole).
        frequency, distance = float(frequency), float(distance)
        _check_value(frequency, "frequency", 0.0, strict_min=False)
        _check_value(distance, "distance", 0.0, strict_min=True)
        requested = CoordinateSet._unchecked(dirs, (frequency,), (distance,))
        volume = self.get_data_matrix(requested, datatype)
        return BalloonGrid(
            volume.coords.directions, volume.values[:, 0, 0], volume.coords
        )

    def coerce_onto(self, requested):
        """Coerce a requested set onto this representation's coordinates."""
        return coerce(self.coords, requested)
