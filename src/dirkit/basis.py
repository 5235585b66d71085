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

The fit is one thin singular value decomposition A = U S V^T of the
(N, K) design matrix, shared by every cell: V S^-1 U^T is formed once,
and one product with it gives every cell's coefficients in (D, K, R)
order (Golub & Van Loan, Matrix Computations, ch. 5). The same singular
values give the rank: a design with fewer than K of them above the
cut-off S.max() * max(N, K) * eps of `numpy.linalg.matrix_rank` and the
least-squares solvers is rejected.

A fitted model is built by the public constructor, like any other, from
the source's stored directions and distances, which it checks. Its
coordinate set keeps the source's directions holder as it is, an array
of (azimuth, elevation) rows, and with it the repeat verdict the source
kept and the search index and cached read at those directions that the
fit's read at the source builds, so fitting many orders checks and
builds them once and a read there does no search.
The coefficients are stored C-contiguous, and a read gathers the rows it
needs with `core.gather` before one matrix product.

Linear and power reads convert that product where it stands, as
exp(dB * ln(10)/20) (squared for power), so a read allocates little
beyond its output. Linear reads are within a relative 1e-14 of
10**(dB/20) over [-300, 300] dB, and power reads within twice that,
since squaring doubles a relative error; log reads are the product
itself.
"""

from enum import Enum

import numpy as np

from . import kernels
from .coords import Continuity, CoordinateSet, _ascending, discrete_read_indices
from .core import (
    DataType,
    DataVolume,
    Directivity,
    _db_to_linear_in_place,
    gather,
    magnitude_as,
)

_MODEL_TYPES = frozenset(
    {DataType.LOG_MAGNITUDE, DataType.LINEAR_MAGNITUDE, DataType.POWER_SPECTRUM}
)


class BasisFamily(Enum):
    FOURIER = "fourier"
    COSINE = "cosine"

    @classmethod
    def parse(cls, text):
        """The member named by `text` (any case, outer spaces ignored), or
        `text` itself when it is already a member."""
        if isinstance(text, cls):
            return text
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
        family = BasisFamily.parse(family)
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.ndim == 2:
            coefficients = coefficients[:, :, np.newaxis]
        if coefficients.ndim != 3:
            raise ValueError(
                f"coefficients must be (D, K, R) or (D, K), got {coefficients.shape}"
            )
        _check_finite(coefficients)
        bins = tuple(_ascending(source_bins, "source bin", 0.0, strict_min=False).tolist())
        if len(bins) < 1:
            raise ValueError("need at least one source bin")
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
        if coefficients.shape[::2] != (len(coords.directions), len(coords.distances)):
            raise ValueError(
                f"coefficients shape {coefficients.shape} does not match "
                f"{len(coords.directions)} directions and {len(coords.distances)} distances"
            )
        super().__init__(info, coords)
        self._family = family
        # C order, so that a read's gather never copies the whole array first.
        self._coefficients = np.ascontiguousarray(coefficients)
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
        x = self._positions(actual.frequency_array)
        design = eval_basis(self._family, self.order, x)
        coef = gather(self._coefficients, d_idx, np.arange(self.order), r_idx)
        values = np.matmul(design, coef)
        if datatype is not DataType.LOG_MAGNITUDE:
            # The product is a new array; convert it where it stands.
            magnitude_as(datatype, _db_to_linear_in_place(values))
        return DataVolume(values, actual, datatype)


def _check_finite(coefficients):
    if not np.all(np.isfinite(coefficients)):
        raise ValueError("coefficients contain non-finite values")


def fit_basis_model(info, source, family, order, frequency_limits=None):
    """Least-squares fit of a BasisSpectrumModel to a frequency-discrete source.

    Fits the source's log-magnitude values at its native bins within
    `frequency_limits` (default: lowest non-DC bin through the highest
    bin); the DC bin never participates. Requires order <= retained bin
    count and a full-rank design; rank-deficient fits are rejected.
    """
    family = BasisFamily.parse(family)
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

    stored = source.coords
    # The request keeps the stored directions, so the read takes their
    # self-snap; the model's constructor takes their kept repeat verdict.
    requested = CoordinateSet._unchecked(stored.directions, fit_bins, stored.distances)
    volume = source.get_data_matrix(requested, DataType.LOG_MAGNITUDE)

    x = np.arange(n, dtype=np.float64) / n
    design = eval_basis(family, order, x)
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = np.count_nonzero(s > s[0] * max(n, order) * np.finfo(np.float64).eps)
    if rank < order:
        raise ValueError(
            f"design matrix rank {rank} below order {order}; fit is underdetermined"
        )
    # V S^-1 U^T is formed once, and one product with it gives every cell's
    # coefficients in (D, K, R) order.
    projection = (vt.T / s) @ u.T
    coefficients = np.matmul(projection, volume.values)
    return BasisSpectrumModel(
        info, family, coefficients, fit_bins, stored.directions, stored.distances
    )
