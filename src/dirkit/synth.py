"""Synthetic impulse-response sets with closed-form spectra.

The generator lays directions on an equiangular grid and gives each one
the gain

    g(az, el) = g0 + g1 * cos(delta),

where delta is the great-circle angle from (90, 0), i.e.
cos(delta) = cos(el) * sin(az). With g0 > g1 >= 0 the gain stays
strictly positive. Two IR shapes are available:

  - flat:    h = (g, 0, ..., 0); log magnitude is exactly 20*log10(g)
             at every bin, so every downstream result has a closed form
  - lowpass: h = (g, g*a, 0, ..., 0); |H[k]| = g * |1 + a*exp(-i2pik/L)|
"""

import math
from dataclasses import dataclass

import numpy as np

from .rawirs import RawIRs

MODES = ("flat", "lowpass")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic test set."""

    mode: str = "flat"
    azimuth_step: float = 5.0
    elevation_step: float = 10.0
    elevation_limits: tuple = (0.0, 0.0)
    length: int = 256
    sample_rate: float = 48000.0
    g0: float = 0.6
    g1: float = 0.4
    lowpass_a: float = 0.5

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.azimuth_step <= 360.0:
            raise ValueError(f"azimuth step {self.azimuth_step} outside (0, 360]")
        if self.elevation_step <= 0.0:
            raise ValueError(f"elevation step {self.elevation_step} must be positive")
        lo, hi = (float(v) for v in self.elevation_limits)
        if not (-90.0 <= lo <= hi <= 90.0):
            raise ValueError(f"elevation limits ({lo}, {hi}) invalid")
        object.__setattr__(self, "elevation_limits", (lo, hi))
        if self.length < 2:
            raise ValueError(f"length {self.length} must be at least 2")
        if self.sample_rate <= 0.0:
            raise ValueError(f"sample rate {self.sample_rate} must be positive")
        if not self.g0 > self.g1 >= 0.0:
            raise ValueError(
                f"need g0 > g1 >= 0 for a strictly positive gain, got "
                f"g0={self.g0}, g1={self.g1}"
            )
        if not 0.0 < self.lowpass_a < 1.0:
            raise ValueError(f"lowpass parameter {self.lowpass_a} outside (0, 1)")


def synth_gain(spec, azimuth, elevation):
    """The closed-form per-direction gain of a spec."""
    az = np.deg2rad(np.asarray(azimuth, dtype=np.float64))
    el = np.deg2rad(np.asarray(elevation, dtype=np.float64))
    return spec.g0 + spec.g1 * np.cos(el) * np.sin(az)


def synth_directions(spec):
    """The equiangular direction grid of a spec, elevation slow."""
    lo, hi = spec.elevation_limits
    n_el = int(math.floor((hi - lo) / spec.elevation_step + 1e-9)) + 1
    elevations = lo + spec.elevation_step * np.arange(n_el)
    n_az = int(math.ceil(360.0 / spec.azimuth_step - 1e-9))
    azimuths = spec.azimuth_step * np.arange(n_az)
    return [(az, el) for el in elevations for az in azimuths]


def synth_test_set(spec, info=""):
    """Generate the RawIRs object described by a SynthSpec."""
    directions = synth_directions(spec)
    gains = synth_gain(spec, *np.array(directions).T)
    irs = np.zeros((len(directions), spec.length, 1))
    irs[:, 0, 0] = gains
    if spec.mode == "lowpass":
        irs[:, 1, 0] = gains * spec.lowpass_a
    irs.setflags(write=False)  # handed over to the set, not copied
    if not info:
        info = (
            f"synthetic {spec.mode} set, {len(directions)} directions, "
            f"L={spec.length}, fs={spec.sample_rate:g} Hz"
        )
    return RawIRs(info, irs, spec.sample_rate, directions, (1.0,))
