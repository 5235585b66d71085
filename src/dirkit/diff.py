"""Pointwise comparison of two representations and error aggregation.

A DirectivityDiff reads both objects at the same requested coordinates,
stores evaluand minus reference together with the reference values, and
aggregates them into spectral distortion

    SD = sqrt( (1/N) * sum_n delta_dB[n]^2 )             [dB]

or the normalized mean-square error

    MSE = sum_n |H[n] - H_ref[n]|^2 / sum_n |H_ref[n]|^2  [ratio]

over any coordinate selection, per frequency bin, or around the
horizontal plane. Both measures sum squares without a squared copy of a
volume: a total is one `dot` of the raveled values with themselves, a
per-bin or per-azimuth curve one `einsum` pass, and a complex value
counts as its real and imaginary parts. A sum that overflows float64
raises ValueError. The diff itself honors the common read contract, so
stored differences are browsable like any representation.
"""

import warnings

import numpy as np

from .coords import CoordinateSet, discrete_read_indices, great_circle_angle
from .core import DataType, DataVolume, Directivity, gather
from .errors import CoordinateMismatchError

DIRECTION_TOL_DEG = 0.5
HORIZONTAL_TOL_DEG = 1e-6
DISTANCE_TOL_M = 1e-3

_DIFF_TYPES = frozenset(
    {DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE, DataType.COMPLEX_SPECTRUM}
)


class CoordinateMismatchWarning(UserWarning):
    """The two reads landed on different coordinates, within tolerance."""


def _frequency_tolerance(reference):
    """Half the reference's bin spacing; zero when it has no discrete bins."""
    coords = reference.coords
    if not coords.continuity.frequency and len(coords.frequencies) >= 2:
        return 0.5 * float(np.min(np.diff(coords.frequency_array)))
    return 0.0


def _max_deviation(ref_coords, eva_coords):
    """Per-dimension worst coordinate deviation between two actual reads,
    0.0 for an empty dimension. Reads that landed on the same directions
    object (a fitted model and its source at the stored directions) deviate
    by 0.0 in direction, with no angles computed."""
    ref, eva = ref_coords.directions, eva_coords.directions
    if ref is eva:
        angles = ()
    else:
        angles = great_circle_angle(ref.azimuths, ref.elevations, eva.azimuths, eva.elevations)
    return tuple(
        float(np.max(dev, initial=0.0))
        for dev in (
            angles,
            np.abs(ref_coords.frequency_array - eva_coords.frequency_array),
            np.abs(ref_coords.distance_array - eva_coords.distance_array),
        )
    )


def _comparison_grid(reference, evaluand):
    """The reference's stored coordinates, keeping only the bins inside a
    frequency-continuous evaluand's limits."""
    base = reference.coords
    if not base.is_discrete:
        raise ValueError("the reference must store discrete coordinates")
    if not evaluand.coords.continuity.frequency:
        return base
    lo, hi = evaluand.coords.frequencies
    freqs = base.frequency_array
    kept = freqs[(freqs >= lo) & (freqs <= hi)]
    if not kept.size:
        raise ValueError("no reference frequency bins inside the evaluand's limits")
    return CoordinateSet._unchecked(base.directions, kept.tolist(), base.distances)


class DirectivityDiff(Directivity):
    """Differences evaluand - reference at shared coordinates.

    Both are read at `at`, by default the comparison grid: the reference's
    stored coordinates, keeping only the bins inside the evaluand's limits
    when it is continuous in frequency (a fitted model's leave out DC).
    """

    def __init__(self, info, reference, evaluand, at=None, datatype=DataType.LOG_MAGNITUDE):
        if datatype not in _DIFF_TYPES:
            raise ValueError(
                f"diff supports log, lin, and complex datatypes, not {datatype.value}"
            )
        if at is None:
            at = _comparison_grid(reference, evaluand)
        ref_vol = reference.get_data_matrix(at, datatype)
        eva_vol = evaluand.get_data_matrix(at, datatype)

        if ref_vol.values.shape != eva_vol.values.shape:
            raise CoordinateMismatchError(
                f"reads disagree on shape: reference {ref_vol.values.shape}, "
                f"evaluand {eva_vol.values.shape}"
            )
        d_dev, f_dev, r_dev = _max_deviation(ref_vol.coords, eva_vol.coords)
        f_tol = _frequency_tolerance(reference)
        if d_dev > DIRECTION_TOL_DEG or f_dev > f_tol or r_dev > DISTANCE_TOL_M:
            raise CoordinateMismatchError(
                f"actual coordinates differ beyond tolerance: direction "
                f"{d_dev:.6g} deg (tol {DIRECTION_TOL_DEG}), frequency {f_dev:.6g} Hz "
                f"(tol {f_tol:.6g}), distance {r_dev:.6g} m (tol {DISTANCE_TOL_M})"
            )
        warned = d_dev > 0.0 or f_dev > 0.0 or r_dev > 0.0
        if warned:
            warnings.warn(
                f"reads landed on slightly different coordinates (direction "
                f"{d_dev:.3g} deg, frequency {f_dev:.3g} Hz, distance {r_dev:.3g} m); "
                f"proceeding on the reference's coordinates",
                CoordinateMismatchWarning,
                stacklevel=2,
            )

        text = str(info).strip()
        if not text:
            text = f"diff of {evaluand.info} vs {reference.info}"
        super().__init__(f"{text} ({datatype.value})", ref_vol.coords)
        self._datatype = datatype
        ref, eva = ref_vol.values, eva_vol.values
        # Every read returns a new array, so the difference can take the
        # evaluand read's buffer; a read-only or narrower one is kept apart.
        into = eva.flags.writeable and eva.dtype == np.result_type(eva, ref)
        self._diff = np.subtract(eva, ref, out=eva if into else None)
        self._reference = ref
        self._warned = warned

    @property
    def datatype(self):
        return self._datatype

    @property
    def coordinate_warning(self):
        return self._warned

    @property
    def differences(self):
        return self._diff.copy()

    @property
    def reference_values(self):
        return self._reference.copy()

    @property
    def supported_datatypes(self):
        return frozenset({self._datatype})

    def get_data_matrix(self, requested, datatype):
        self._check_datatype(datatype)
        d_idx, f_idx, r_idx, actual = discrete_read_indices(self.coords, requested)
        values = gather(self._diff, d_idx, f_idx, r_idx)
        return DataVolume(values, actual, datatype)

    # -- aggregation ------------------------------------------------------

    def _measure_fn(self, measure):
        if callable(measure):
            return measure
        key = str(measure).strip().lower()
        if key == "sd":
            if self._datatype is not DataType.LOG_MAGNITUDE:
                raise ValueError(
                    f"SD needs log-magnitude differences, this diff stores "
                    f"{self._datatype.value}"
                )
            return _sd_measure
        if key == "mse":
            if self._datatype is DataType.LOG_MAGNITUDE:
                raise ValueError(
                    "MSE needs linear or complex differences, this diff stores log"
                )
            return _mse_measure
        raise ValueError(f"unknown measure {measure!r} (try sd, mse, or a callable)")

    def _reduce(self, measure, select, keep=None):
        """`measure` over the cells `select` picks from a stored volume: one
        value (keep=None), or one per index of axis `keep` of the selection,
        aggregated over its other two axes. The built-in measures sum per
        index in one pass; a callable gets each slice raveled."""
        fn = self._measure_fn(measure)
        diff = select(self._diff)
        # SD reads no reference values.
        ref = self._reference if fn is _sd_measure else select(self._reference)
        if keep is None:
            return float(fn(diff.ravel(), ref.ravel()))
        if fn in (_sd_measure, _mse_measure):
            return fn(diff, ref, keep=keep)
        slices = zip(np.moveaxis(diff, keep, 0), np.moveaxis(ref, keep, 0))
        return np.array([fn(d.ravel(), r.ravel()) for d, r in slices])

    def _aggregate(self, measure, over):
        """One measure over a coordinate selection (None selects all)."""
        if over is None:
            return self._reduce(measure, lambda values: values)
        picker = discrete_read_indices(self.coords, over)[:3]
        return self._reduce(measure, lambda values: gather(values, *picker))

    def compute_sd(self, over=None):
        """Spectral distortion in dB over a coordinate selection (default all)."""
        return self._aggregate("sd", over)

    def compute_mse(self, over=None):
        """Normalized mean-square error over a coordinate selection (default all)."""
        return self._aggregate("mse", over)

    def _bin_range(self, freq_range):
        """Slice of the stored bins inside freq_range (default: all). The
        stored bins ascend, so the bins inside are one run."""
        freqs = self.coords.frequency_array
        if freq_range is None:
            return slice(None)
        lo, hi = (float(v) for v in freq_range)
        inside = np.flatnonzero((freqs >= lo) & (freqs <= hi))
        if len(inside) == 0:
            raise ValueError("no stored frequency bins inside the requested range")
        return slice(inside[0], inside[-1] + 1)

    def error_vs_frequency(self, measure="sd", freq_range=None):
        """Per-bin error aggregated over directions and distances.

        Returns (frequencies, errors) for the stored bins inside
        freq_range (default: all bins).
        """
        bins = self._bin_range(freq_range)
        errors = self._reduce(measure, lambda values: values[:, bins], keep=1)
        return self.coords.frequency_array[bins], errors

    def error_horizontal(self, measure="sd", freq_range=None):
        """Per-azimuth error on the horizontal plane, aggregated over the
        frequency bins in range and all distances.

        Returns (azimuths, errors) sorted by azimuth.
        """
        bins = self._bin_range(freq_range)
        elevations = self.coords.elevation_array
        selected = np.flatnonzero(np.abs(elevations) <= HORIZONTAL_TOL_DEG)
        if len(selected) == 0:
            raise ValueError(
                f"no stored directions within {HORIZONTAL_TOL_DEG} deg of the "
                f"horizontal plane"
            )
        azimuths = self.coords.azimuth_array[selected]
        order = np.argsort(azimuths, kind="stable")
        rows = selected[order]
        errors = self._reduce(measure, lambda values: values[rows, bins], keep=0)
        return azimuths[order], errors


def _sum_squares(values, keep=None):
    """Sum of |values|**2 over every cell (keep=None), or one sum per index
    of axis `keep` (0 or 1) of a (D, F, R) volume, with no squared copy; a
    complex volume is read as its float64 (re, im) pairs. Raises
    ValueError when the sum overflows float64."""
    if np.iscomplexobj(values):
        values = values.view(np.float64)
    # An overflow is reported by the error below, not by a warning.
    with np.errstate(over="ignore"):
        if keep is None:
            flat = values.ravel()
            sums = np.dot(flat, flat)
        else:
            rows = values.reshape(values.shape[0], -1)
            if keep == 0:
                sums = np.einsum("ij,ij->i", rows, rows)
            else:
                sums = np.einsum("ij,ij->j", rows, rows)
                sums = sums.reshape(values.shape[1], -1).sum(axis=1)
    if not np.all(np.isfinite(sums)):
        raise ValueError("sum of squares is not finite: it overflows float64")
    return sums


def _sd_measure(differences, _reference_values, keep=None):
    differences = np.asarray(differences, dtype=np.float64)
    if differences.size == 0:
        raise ValueError("empty selection")
    squares = _sum_squares(differences, keep)
    return np.sqrt(squares / (differences.size // np.size(squares)))


def _mse_measure(differences, reference_values, keep=None):
    if np.size(differences) == 0:
        raise ValueError("empty selection")
    denom = _sum_squares(reference_values, keep)
    if np.any(denom == 0.0):
        raise ValueError("reference selection is identically zero; MSE undefined")
    return _sum_squares(differences, keep) / denom
