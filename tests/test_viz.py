"""SVG line and polar plots over value ranges at the ends of float64, and
the WAV writer against scipy.io.wavfile, kept as the test-only reference."""

import math
import re

import numpy as np
import pytest
from scipy.io import wavfile

from dirkit.viz import PlotSeries, line_plot_svg, polar_plot_svg, write_wav

Y_LABEL = re.compile(r'text-anchor="end"[^>]*>([^<]*)</text>')
MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "ys, labels",
    [
        # A step of 0.5 does not move 1e16, whose floats are 2 apart.
        ((1e16, 1e16 + 2), ["1e+16"]),
        # A span of one subnormal has no power-of-ten step.
        ((0.0, 5e-324), ["0", "4.94066e-324"]),
    ],
    ids=["few-ulps-at-1e16", "one-subnormal"],
)
def test_a_y_range_of_a_few_ulps_gets_bounded_ticks(tmp_path, ys, labels):
    out = tmp_path / "plot.svg"
    line_plot_svg(out, [PlotSeries("s", np.array([1.0, 2.0]), np.array(ys))])
    text = out.read_text()
    assert text.startswith("<svg ") and text.endswith("</svg>\n")
    assert Y_LABEL.findall(text) == labels


# Every number an SVG file carries: coordinates, polyline points, labels.
NUMBER = re.compile(r'(?:x1?|y1?|x2|y2)="([^"]*)"|points="([^"]*)"|>([^<]*)</text>')


def _numbers(text):
    out = []
    for groups in NUMBER.findall(text):
        for token in re.split(r"[ ,]", "".join(groups)):
            try:
                out.append(float(token))
            except ValueError:  # a series or axis name
                pass
    return out


@pytest.mark.parametrize(
    "top, labels",
    [
        # 5 % of the span on each side still fits in float64.
        (1e308, ["-1.1e+308", "1.1e+308"]),
        # The padded range stops at float64's ends.
        (MAX, ["-1.79769e+308", "1.79769e+308"]),
    ],
    ids=["1e308", "float-max"],
)
def test_values_spanning_past_float64s_range_plot_finite(tmp_path, top, labels):
    line, polar = tmp_path / "line.svg", tmp_path / "polar.svg"
    line_plot_svg(line, [PlotSeries("s", np.array([1.0, 2.0]), np.array([-top, top]))])
    polar_plot_svg(polar, [0.0, 180.0], [-top, top])
    for path in (line, polar):
        numbers = _numbers(path.read_text())
        assert len(numbers) > 20 and all(math.isfinite(n) for n in numbers), path.name
    assert Y_LABEL.findall(line.read_text()) == labels


def _line(xs, ys, **options):
    return lambda out: line_plot_svg(
        out, [PlotSeries("s", np.array(xs), np.array(ys))], **options
    )


@pytest.mark.parametrize(
    "draw",
    [
        _line([-MAX, MAX], [1.0, 2.0]),
        _line([1.0, MAX], [1.0, 2.0], x_log=True),
        _line([1.0, 2.0], [0.75 * MAX, MAX]),
        # Constant values: a step of 1 does not move 1e17, whose floats
        # are 16 apart.
        _line([1.0, 2.0], [1e17, 1e17]),
        lambda out: polar_plot_svg(out, [0.0, 180.0], [1e17, 1e17]),
        lambda out: polar_plot_svg(out, [0.0, 180.0], [MAX, MAX]),
    ],
    ids=["x-span", "log-x-to-max", "y-near-max", "line-1e17", "polar-1e17", "polar-max"],
)
def test_any_finite_values_plot_finite(tmp_path, draw):
    out = tmp_path / "plot.svg"
    draw(out)
    numbers = _numbers(out.read_text())
    assert len(numbers) > 20 and all(math.isfinite(n) for n in numbers)


@pytest.mark.parametrize(
    "length, rate",
    [(1, 1), (4, 44100), (256, 48000), (1000, 44100.5), (7, 96000), (3, 1073741823)],
)
def test_write_wav_matches_scipy_byte_for_byte(tmp_path, length, rate):
    samples = np.random.default_rng(length).standard_normal(length)
    ours, reference = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(ours, samples, rate)
    wavfile.write(reference, int(round(rate)), samples.astype(np.float32))
    assert ours.read_bytes() == reference.read_bytes()
    assert len(ours.read_bytes()) == 58 + 4 * length


# The largest mono float32 WAV whose RIFF size, 50 + 4 * count, fits a u32.
WAV_MAX_SAMPLES = (2**32 - 1 - 50) // 4


@pytest.mark.parametrize(
    "samples, rate, message",
    [
        ([0.0], 0.4, r"sample rate must round into 1\.\.1073741823 Hz, got 0\.4"),
        ([0.0], 0.5, r"must round into 1\.\.1073741823 Hz, got 0\.5"),
        ([0.0], -48000, r"must round into 1\.\.1073741823 Hz, got -48000\.0"),
        ([0.0], 1073741823.5, r"must round into 1\.\.1073741823 Hz, got 1073741823\.5"),
        ([0.0], 2e9, r"must round into 1\.\.1073741823 Hz, got 2000000000\.0"),
        ([0.0], math.nan, r"must round into 1\.\.1073741823 Hz, got nan"),
        ([0.0], math.inf, r"must round into 1\.\.1073741823 Hz, got inf"),
        ([0.0, 1e300], 48000, r"not finite as 32-bit floats; write \.csv output instead"),
        ([-3.5e38], 48000, r"not finite as 32-bit floats"),
        ([math.nan], 48000, r"not finite as 32-bit floats"),
        # A zero-stride view: the count is checked before any sample is read.
        (np.broadcast_to(np.float32(0.0), (WAV_MAX_SAMPLES + 1,)), 48000,
         rf"{WAV_MAX_SAMPLES + 1} samples exceed the {WAV_MAX_SAMPLES} a WAV file can hold"),
        (np.zeros((2, 2)), 48000, r"mono output needs a 1D sample array"),
    ],
    ids=["rate-0.4", "rate-0.5", "rate-negative", "rate-rounds-past-max", "rate-2e9",
         "rate-nan", "rate-inf", "sample-1e300", "sample-below-float32", "sample-nan",
         "riff-size", "two-channels"],
)
def test_write_wav_rejects_what_a_wav_cannot_hold(tmp_path, samples, rate, message):
    # The directory does not exist, so opening the file would raise OSError.
    out = tmp_path / "absent" / "x.wav"
    with pytest.raises(ValueError, match=message):
        write_wav(out, samples, rate)
    assert not out.parent.exists()
