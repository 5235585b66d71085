"""Raw impulse responses: the base representation and reference benchmark.

Stores one real impulse response per direction and distance together with
the sample rate. Spectral datatypes are served through the one-sided DFT

    H[k] = sum_n h[n] * exp(-i 2 pi k n / L),  k = 0 .. floor(L/2)

with no normalization. Responses whose spectra overflow float64 (samples
near 1e308) can still be read and written as responses; their spectral
reads are rejected.

A set keeps one store: for each datatype read so far, the whole-set
array its reads gather from. It holds the responses from construction
on. Each spectral datatype is added on its first read, built straight
into the array it keeps one chunk of directions at a time from that
chunk's own DFT, so no whole-set temporary is made and each first read
runs its own DFT, once per set. A kept magnitude datatype (lin, pow,
log) takes D*F*R*8 bytes and the complex spectrum twice that (4 MB and
8 MB for 1944 directions x 129 bins x 2 distances).

Every read is one chunked gather (`core.gather`) into a new C-contiguous
array, at about the cost of copying its output, so writing into a read's
values never touches the stored data, and the values equal those of
converting the gathered spectra bit for bit.
"""

import numpy as np

from .coords import CoordinateSet, discrete_read_indices
from .core import _GATHER_STEP, DataType, DataVolume, Directivity, gather, magnitude_as

_ALL_TYPES = frozenset(DataType)


def _handed_over(irs):
    """Whether `irs` is kept as given: a float64 ndarray that owns its
    memory and is already read-only (the class docstring's hand-over)."""
    return (
        type(irs) is np.ndarray
        and irs.dtype == np.float64
        and irs.flags.owndata
        and not irs.flags.writeable
    )


def _checked_rfft(irs):
    """One-sided spectra of (D, L, R) responses over the time axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        spectra = np.fft.rfft(irs, axis=1)
    if not np.all(np.isfinite(spectra)):
        raise ValueError("spectra overflow float64; only IR reads are served")
    return spectra


class RawIRs(Directivity):
    """Impulse responses on a discrete direction/distance grid.

    The frequency axis is derived from the IR length and sample rate as
    k*fs/L for k = 0 .. floor(L/2); callers never supply it.

    `irs` is copied into a new read-only float64 array unless it is
    handed over: a float64 ndarray that owns its memory and is already
    read-only is kept as given. A writeable array, another dtype, a view
    (a read-only one too) and any other sequence are copied, so later
    writes to them never reach the set. `irs` is read-only in every case.
    A handed-over array belongs to the set: it must never be made
    writeable again, since the spectra a set keeps are not rebuilt
    when its samples change. `synth_test_set` and `read_dird` hand over
    arrays that no caller holds.
    """

    def __init__(self, info, irs, sample_rate, directions, distances=()):
        if not _handed_over(irs):
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
        coords = CoordinateSet(directions=directions, frequencies=bins, distances=distances)
        shape = coords.shape
        if irs.shape[0] != shape[0] or irs.shape[2] != shape[2]:
            raise ValueError(
                f"irs shape {irs.shape} does not match {shape[0]} directions "
                f"and {shape[2]} distances"
            )
        super().__init__(info, coords)
        irs.setflags(write=False)
        self._store = {DataType.IMPULSE_RESPONSES: irs}
        self._sample_rate = sample_rate
        self._times = times

    def __setstate__(self, state):
        vars(self).update(state)
        self.irs.setflags(write=False)  # pickle brings arrays back writeable

    @property
    def sample_rate(self):
        return self._sample_rate

    @property
    def ir_length(self):
        return self.irs.shape[1]

    @property
    def irs(self):
        """Stored responses, shaped (direction, time, distance); read-only."""
        return self._store[DataType.IMPULSE_RESPONSES]

    @property
    def supported_datatypes(self):
        return _ALL_TYPES

    def _stored(self, datatype):
        """The whole-set array a read of `datatype` gathers from. A spectral
        datatype is built on its first read straight into the kept array,
        one chunk of directions at a time: the chunk's spectra, kept as they
        are for complex, else their modulus converted in place."""
        if datatype not in self._store:
            shape = self.coords.shape
            is_complex = datatype is DataType.COMPLEX_SPECTRUM
            out = np.empty(shape, dtype=np.complex128 if is_complex else np.float64)
            step = max(1, _GATHER_STEP // (shape[1] * shape[2]))
            for lo in range(0, shape[0], step):
                chunk = slice(lo, lo + step)
                spectra = _checked_rfft(self.irs[chunk])
                if is_complex:
                    out[chunk] = spectra
                else:
                    magnitude_as(datatype, np.abs(spectra, out=out[chunk]))
            self._store[datatype] = out
        return self._store[datatype]

    def get_data_matrix(self, requested, datatype):
        self._check_datatype(datatype)
        d_idx, f_idx, r_idx, actual = discrete_read_indices(self.coords, requested)
        if datatype is DataType.IMPULSE_RESPONSES:
            # Full-length responses; the requested frequency vector has no
            # role here and the middle axis becomes time in seconds.
            f_idx = np.arange(self.ir_length)
            actual = CoordinateSet._unchecked(
                actual.directions, self._times, actual.distances, actual.continuity
            )
        values = gather(self._stored(datatype), d_idx, f_idx, r_idx)
        return DataVolume(values, actual, datatype)
