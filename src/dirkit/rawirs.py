"""Raw impulse responses: the base representation and reference benchmark.

Stores one real impulse response per direction and distance together with
the sample rate. Spectral datatypes are served through the one-sided DFT

    H[k] = sum_n h[n] * exp(-i 2 pi k n / L),  k = 0 .. floor(L/2)

with no normalization, evaluated once, on the first spectral read.
Responses whose spectra overflow float64 (samples near 1e308) can still
be read and written as responses; their spectral reads are rejected.
"""

from functools import cached_property

import numpy as np

from .coords import CoordinateSet, discrete_read_indices
from .core import DataType, DataVolume, Directivity, magnitude_as

_ALL_TYPES = frozenset(DataType)


class RawIRs(Directivity):
    """Impulse responses on a discrete direction/distance grid.

    The frequency axis is derived from the IR length and sample rate as
    k*fs/L for k = 0 .. floor(L/2); callers never supply it.
    """

    def __init__(self, info, irs, sample_rate, directions, distances=()):
        irs = np.array(irs, dtype=np.float64)
        if irs.ndim == 2:
            irs = irs[:, :, np.newaxis]
        if irs.ndim != 3:
            raise ValueError(f"irs must be (D, L, R) or (D, L), got shape {irs.shape}")
        sample_rate = float(sample_rate)
        if not sample_rate > 0 or not np.isfinite(sample_rate):
            raise ValueError(f"sample rate must be positive, got {sample_rate}")
        if irs.shape[1] < 2:
            raise ValueError(f"need at least 2 samples per response, got {irs.shape[1]}")
        if not np.all(np.isfinite(irs)):
            raise ValueError("impulse responses contain non-finite samples")

        length = irs.shape[1]
        bins = np.arange(length // 2 + 1) * (sample_rate / length)
        with np.errstate(over="ignore"):
            times = np.arange(length) / sample_rate
        if not (bins[1] > 0.0 and np.isfinite(times[-1])):
            raise ValueError(
                f"sample rate {sample_rate} Hz is too small for {length} samples per "
                f"response: the frequency bins collapse or the sample times overflow"
            )
        coords = CoordinateSet(
            directions=directions, frequencies=tuple(bins), distances=distances
        )
        shape = coords.shape
        if irs.shape[0] != shape[0] or irs.shape[2] != shape[2]:
            raise ValueError(
                f"irs shape {irs.shape} does not match {shape[0]} directions "
                f"and {shape[2]} distances"
            )
        super().__init__(info, coords)
        irs.setflags(write=False)
        self._irs = irs
        self._sample_rate = sample_rate
        self._times = times

    @property
    def sample_rate(self):
        return self._sample_rate

    @property
    def ir_length(self):
        return self._irs.shape[1]

    @property
    def irs(self):
        """Stored responses, shaped (direction, time, distance); read-only."""
        return self._irs

    @property
    def supported_datatypes(self):
        return _ALL_TYPES

    @cached_property
    def _spectra(self):
        """One-sided spectra over the time axis, computed on the first spectral read."""
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = np.fft.rfft(self._irs, axis=1)
        if not np.all(np.isfinite(spectra)):
            raise ValueError("spectra overflow float64; only IR reads are served")
        return spectra

    def get_data_matrix(self, requested, datatype):
        self._check_datatype(datatype)
        d_idx, f_idx, r_idx, actual = discrete_read_indices(self.coords, requested)

        if datatype is DataType.IMPULSE_RESPONSES:
            # Full-length responses; the requested frequency vector has no
            # role here and the middle axis becomes time in seconds.
            values = self._irs[d_idx][:, :, r_idx]
            coords = CoordinateSet._unchecked(
                actual.directions,
                tuple(self._times),
                actual.distances,
                actual.continuity,
            )
            return DataVolume(values, coords, datatype)

        spectra = self._spectra[d_idx][:, f_idx][:, :, r_idx]
        if datatype is DataType.COMPLEX_SPECTRUM:
            return DataVolume(spectra, actual, datatype)
        return DataVolume(magnitude_as(datatype, np.abs(spectra)), actual, datatype)
