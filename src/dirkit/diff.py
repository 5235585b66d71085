"""Pointwise comparison of two representations and error aggregation.

A DirectivityDiff reads both objects at the same requested coordinates,
stores evaluand minus reference together with the reference values, and
aggregates them into spectral distortion

    SD = sqrt( (1/N) * sum_n delta_dB[n]^2 )             [dB]

or the normalized mean-square error

    MSE = sum_n |H[n] - H_ref[n]|^2 / sum_n |H_ref[n]|^2  [ratio]

over any coordinate selection, per frequency bin, or around the
horizontal plane. The diff itself honors the common read contract, so
stored differences are browsable like any representation.
"""

import warnings

import numpy as np

from .coords import discrete_read_indices, great_circle_angle
from .core import DataType, DataVolume, Directivity
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
    0.0 for an empty dimension."""
    return tuple(
        float(np.max(dev, initial=0.0))
        for dev in (
            great_circle_angle(
                ref_coords.azimuth_array,
                ref_coords.elevation_array,
                eva_coords.azimuth_array,
                eva_coords.elevation_array,
            ),
            np.abs(ref_coords.frequency_array - eva_coords.frequency_array),
            np.abs(ref_coords.distance_array - eva_coords.distance_array),
        )
    )


class DirectivityDiff(Directivity):
    """Differences evaluand - reference at shared coordinates."""

    def __init__(self, info, reference, evaluand, at=None, datatype=DataType.LOG_MAGNITUDE):
        if datatype not in _DIFF_TYPES:
            raise ValueError(
                f"diff supports log, lin, and complex datatypes, not {datatype.value}"
            )
        if at is None:
            at = reference.coords
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
        self._diff = eva_vol.values - ref_vol.values
        self._reference = ref_vol.values
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
        values = self._diff[np.ix_(d_idx, f_idx, r_idx)]
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

    def _aggregate(self, measure, over):
        """One measure over a coordinate selection (None selects all)."""
        fn = self._measure_fn(measure)
        diff, ref = self._diff, self._reference
        if over is not None:
            picker = np.ix_(*discrete_read_indices(self.coords, over)[:3])
            diff, ref = diff[picker], ref[picker]
        return fn(diff.ravel(), ref.ravel())

    def compute_sd(self, over=None):
        """Spectral distortion in dB over a coordinate selection (default all)."""
        return self._aggregate("sd", over)

    def compute_mse(self, over=None):
        """Normalized mean-square error over a coordinate selection (default all)."""
        return self._aggregate("mse", over)

    def _bin_mask(self, freq_range):
        freqs = self.coords.frequency_array
        if freq_range is None:
            mask = np.ones(len(freqs), dtype=bool)
        else:
            lo, hi = (float(v) for v in freq_range)
            mask = (freqs >= lo) & (freqs <= hi)
        if not np.any(mask):
            raise ValueError("no stored frequency bins inside the requested range")
        return mask

    def error_vs_frequency(self, measure="sd", freq_range=None):
        """Per-bin error aggregated over directions and distances.

        Returns (frequencies, errors) for the stored bins inside
        freq_range (default: all bins).
        """
        fn = self._measure_fn(measure)
        mask = self._bin_mask(freq_range)
        freqs = self.coords.frequency_array[mask]
        errors = np.array(
            [
                fn(self._diff[:, j, :].ravel(), self._reference[:, j, :].ravel())
                for j in np.flatnonzero(mask)
            ]
        )
        return freqs, errors

    def error_horizontal(self, measure="sd", freq_range=None):
        """Per-azimuth error on the horizontal plane, aggregated over the
        frequency bins in range and all distances.

        Returns (azimuths, errors) sorted by azimuth.
        """
        fn = self._measure_fn(measure)
        mask = self._bin_mask(freq_range)
        elevations = self.coords.elevation_array
        selected = np.flatnonzero(np.abs(elevations) <= HORIZONTAL_TOL_DEG)
        if len(selected) == 0:
            raise ValueError(
                f"no stored directions within {HORIZONTAL_TOL_DEG} deg of the "
                f"horizontal plane"
            )
        azimuths = self.coords.azimuth_array[selected]
        order = np.argsort(azimuths, kind="stable")
        selected = selected[order]
        cols = np.flatnonzero(mask)
        errors = np.array(
            [
                fn(
                    self._diff[i][cols, :].ravel(),
                    self._reference[i][cols, :].ravel(),
                )
                for i in selected
            ]
        )
        return azimuths[order], errors


def _sd_measure(differences, _reference_values):
    differences = np.asarray(differences, dtype=np.float64)
    if differences.size == 0:
        raise ValueError("empty selection")
    return float(np.sqrt(np.mean(differences * differences)))


def _mse_measure(differences, reference_values):
    differences = np.asarray(differences)
    reference_values = np.asarray(reference_values)
    if differences.size == 0:
        raise ValueError("empty selection")
    denom = float(np.sum(np.abs(reference_values) ** 2))
    if denom == 0.0:
        raise ValueError("reference selection is identically zero; MSE undefined")
    return float(np.sum(np.abs(differences) ** 2) / denom)
