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

from .coords import CoordinateSet, Direction, _as_direction, coerce
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
    """20*log10 of a magnitude, floored at -300 dB so zeros stay finite."""
    linear = np.asarray(linear, dtype=np.float64)
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(linear)
    return np.maximum(db, DB_FLOOR)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=np.float64) / 20.0)


def magnitude_as(datatype, magnitude):
    """Convert a linear magnitude array to lin, pow, or log."""
    magnitude = np.asarray(magnitude, dtype=np.float64)
    if datatype is DataType.LINEAR_MAGNITUDE:
        return magnitude
    if datatype is DataType.POWER_SPECTRUM:
        return magnitude * magnitude
    if datatype is DataType.LOG_MAGNITUDE:
        return linear_to_db(magnitude)
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
        if np.iscomplexobj(values) != (self.datatype is DataType.COMPLEX_SPECTRUM):
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
        """Read a DataVolume at the coerced coordinates."""

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
        frequency-continuous ones are sampled at 512 log-spaced points
        between the limits (lower limit floored at 20 Hz when it is 0).
        """
        if not datatype.is_spectral:
            raise ValueError("spectrum_series needs a spectral datatype")
        if self.coords.continuity.frequency:
            lo, hi = self.coords.frequencies
            lo = SERIES_MIN_HZ if lo == 0.0 else lo
            freqs = np.geomspace(lo, hi, SERIES_SAMPLES)
        else:
            freqs = self.coords.frequency_array
        requested = CoordinateSet(
            directions=(_as_direction(direction),),
            frequencies=tuple(freqs),
            distances=(float(distance),),
        )
        volume = self.get_data_matrix(requested, datatype)
        return SpectrumSeries(
            volume.coords.frequency_array, volume.values[0, :, 0], volume.coords
        )

    def balloon_grid(self, frequency, distance=1.0, datatype=DataType.LOG_MAGNITUDE):
        """Values over direction at one frequency/distance.

        Direction-discrete representations report every stored direction;
        direction-continuous ones are sampled on a 5-degree equiangular
        grid inside the elevation limits.
        """
        if not datatype.is_spectral:
            raise ValueError("balloon_grid needs a spectral datatype")
        if self.coords.continuity.direction:
            lo, hi = self.coords.elevation_limits
            elevations = np.arange(-90.0, 90.0 + BALLOON_STEP_DEG, BALLOON_STEP_DEG)
            elevations = elevations[(elevations >= lo) & (elevations <= hi)]
            azimuths = np.arange(0.0, 360.0, BALLOON_STEP_DEG)
            dirs = tuple(
                Direction(az, el) for el in elevations for az in azimuths
            )
        else:
            dirs = self.coords.directions
        requested = CoordinateSet(
            directions=dirs,
            frequencies=(float(frequency),),
            distances=(float(distance),),
        )
        volume = self.get_data_matrix(requested, datatype)
        return BalloonGrid(
            volume.coords.directions, volume.values[:, 0, 0], volume.coords
        )

    def coerce_onto(self, requested):
        """Coerce a requested set onto this representation's coordinates."""
        return coerce(self.coords, requested)
