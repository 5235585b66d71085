"""Per-direction basis-function spectrum models, continuous in frequency.

The log-magnitude spectrum of each direction/distance cell is
approximated by the first K functions of a one-dimensional family,
fitted by least squares on the source's native frequency bins (the DC
bin excluded). Two families are built in:

  - fourier: 1, cos(2 pi x), sin(2 pi x), cos(4 pi x), sin(4 pi x), ...
  - cosine:  cos(k pi x) for k = 0, 1, 2, ...

Bins map to the fit abscissa as x_j = j/N in ascending order, so on a
uniform grid the fourier design matrix is orthogonal and K = N
reproduces the source exactly at the fit bins.
"""

from enum import Enum

import numpy as np

from . import kernels
from .coords import Continuity, CoordinateSet, discrete_read_indices
from .core import DataType, DataVolume, Directivity, db_to_linear, magnitude_as

_MODEL_TYPES = frozenset(
    {DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE, DataType.POWER_SPECTRUM}
)


class BasisFamily(Enum):
    FOURIER = "fourier"
    COSINE = "cosine"

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower()
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"unknown basis family {text!r} (try fourier/cosine)")


def eval_basis(family, order, x):
    """Evaluate the first `order` family members at positions x in [0, 1).

    Returns a (len(x), order) design matrix.
    """
    if family is BasisFamily.FOURIER:
        return kernels.fourier_basis(int(order), x)
    if family is BasisFamily.COSINE:
        return kernels.cosine_basis(int(order), x)
    raise ValueError(f"unknown basis family {family!r}")


class BasisSpectrumModel(Directivity):
    """Magnitude-only spectrum model, coefficients per direction/distance.

    Frequency is continuous between the stored limits; requests outside
    are clamped. Impulse responses and complex spectra are not served.
    """

    def __init__(self, info, family, coefficients, source_bins, directions, distances=()):
        family = BasisFamily(family)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.ndim == 2:
            coefficients = coefficients[:, :, np.newaxis]
        if coefficients.ndim != 3:
            raise ValueError(
                f"coefficients must be (D, K, R) or (D, K), got {coefficients.shape}"
            )
        if not np.all(np.isfinite(coefficients)):
            raise ValueError("coefficients contain non-finite values")
        bins = tuple(float(b) for b in source_bins)
        if len(bins) < 1:
            raise ValueError("need at least one source bin")
        if any(b <= a for a, b in zip(bins, bins[1:])):
            raise ValueError("source bins must be strictly ascending")
        order = coefficients.shape[1]
        if order < 1 or order > len(bins):
            raise ValueError(
                f"order {order} outside [1, {len(bins)}] set by the source bins"
            )
        coords = CoordinateSet(
            directions=directions,
            frequencies=(bins[0], bins[-1]),
            distances=distances,
            continuity=Continuity(False, True, False),
        )
        if coefficients.shape[0] != len(coords.directions) or coefficients.shape[
            2
        ] != len(coords.distances):
            raise ValueError(
                f"coefficients shape {coefficients.shape} does not match "
                f"{len(coords.directions)} directions and {len(coords.distances)} distances"
            )
        super().__init__(info, coords)
        self._family = family
        self._coefficients = coefficients
        self._bins = bins

    @property
    def family(self):
        return self._family

    @property
    def order(self):
        return self._coefficients.shape[1]

    @property
    def coefficients(self):
        return self._coefficients.copy()

    @property
    def source_bins(self):
        return self._bins

    @property
    def frequency_limits(self):
        return self.coords.frequencies

    @property
    def supported_datatypes(self):
        return _MODEL_TYPES

    def _positions(self, frequencies):
        """Map frequencies inside the limits to fit positions in [0, (N-1)/N]."""
        lo, hi = self.coords.frequencies
        f = np.asarray(frequencies, dtype=np.float64)
        n = len(self._bins)
        if n == 1:
            return np.zeros_like(f)
        return (f - lo) / (hi - lo) * ((n - 1) / n)

    def get_data_matrix(self, requested, datatype):
        self._check_datatype(datatype)
        # Directions and distances snap; frequencies clamp into the limits.
        d_idx, _, r_idx, actual = discrete_read_indices(self.coords, requested)
        x = self._positions(actual.frequencies)
        design = eval_basis(self._family, self.order, x)
        coef = self._coefficients[d_idx][:, :, r_idx]
        db = np.einsum("dkr,fk->dfr", coef, design)
        if datatype is DataType.LOG_MAGNITUDE:
            return DataVolume(db, actual, datatype)
        return DataVolume(magnitude_as(datatype, db_to_linear(db)), actual, datatype)


def fit_basis_model(info, source, family, order, frequency_limits=None):
    """Least-squares fit of a BasisSpectrumModel to a frequency-discrete source.

    Fits the source's log-magnitude values at its native bins within
    `frequency_limits` (default: lowest non-DC bin through the highest
    bin); the DC bin never participates. Requires order <= retained bin
    count and a full-rank design; rank-deficient fits are rejected.
    """
    family = BasisFamily(family) if not isinstance(family, str) else BasisFamily.parse(family)
    order = int(order)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not source.coords.is_discrete:
        raise ValueError("fit source must have fully discrete coordinates")

    bins = source.coords.frequency_array
    keep = bins > 0.0
    if frequency_limits is not None:
        lo, hi = (float(v) for v in frequency_limits)
        if not lo < hi:
            raise ValueError(f"frequency limits ({lo}, {hi}) are not ascending")
        keep &= (bins >= lo) & (bins <= hi)
    fit_bins = bins[keep]
    n = len(fit_bins)
    if n == 0:
        raise ValueError("no non-DC source bins inside the frequency limits")
    if order > n:
        raise ValueError(f"order {order} exceeds the {n} bins available for fitting")

    requested = CoordinateSet(
        directions=source.coords.directions,
        frequencies=tuple(fit_bins),
        distances=source.coords.distances,
    )
    volume = source.get_data_matrix(requested, DataType.LOG_MAGNITUDE)
    d_count, _, r_count = volume.values.shape

    x = np.arange(n, dtype=np.float64) / n
    design = eval_basis(family, order, x)
    # One solve for all direction/distance cells: columns are cells.
    rhs = volume.values.transpose(1, 0, 2).reshape(n, d_count * r_count)
    solution, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < order:
        raise ValueError(
            f"design matrix rank {rank} below order {order}; fit is underdetermined"
        )
    coefficients = solution.reshape(order, d_count, r_count).transpose(1, 0, 2)
    return BasisSpectrumModel(
        info,
        family,
        coefficients,
        tuple(fit_bins),
        source.coords.directions,
        source.coords.distances,
    )
