"""Output emitters: CSV tables, self-contained SVG plots, WAV files.

Everything here is deterministic: identical inputs produce byte-identical
CSV files, and SVG files identical apart from the version comment on
line 2. Numbers in CSV files carry 17 significant digits; pixel
coordinates in SVG files are rounded to 1/100 px. WAV files are mono
32-bit float: one `struct`-packed 58-byte header, then the samples.
"""

import csv
import math
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from .formats import _fmt

SVG_COMMENT = "<!-- dirkit-svg v1 -->"

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7995d", "#882e72", "#666666")

# Canvas sizes in px: line plots are wide, polar plots square.
_LINE_WIDTH, _LINE_HEIGHT = 960, 600
_POLAR_SIZE = 640

# A mono float32 WAV is a 58-byte header and then the samples; its RIFF
# size, 50 + 4 * count, and its byte rate, 4 * rate, are u32 fields.
_WAV_MAX_SAMPLES = (0xFFFFFFFF - 50) // 4
_WAV_MAX_RATE = 0xFFFFFFFF // 4


@dataclass(frozen=True)
class PlotSeries:
    """One labeled line: x strictly ascending, y finite."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError(f"series shapes {x.shape} and {y.shape} do not match")
        if x.size == 0:
            raise ValueError("empty series")
        if np.any(x[1:] <= x[:-1]):
            raise ValueError("series x values must be strictly ascending")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def write_csv(path, header, rows):
    """Write a CSV table; floats get 17 significant digits, and a cell
    holding a comma, a quote or a line break is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(
            [cell if isinstance(cell, str) else _fmt(cell) for cell in row] for row in rows
        )


def series_csv(path, series_list, x_name, y_name):
    """Long-format CSV for one or more series: series,<x_name>,<y_name>."""
    rows = []
    for series in series_list:
        for x, y in zip(series.x, series.y):
            rows.append((series.label, x, y))
    write_csv(path, ("series", x_name, y_name), rows)


# --------------------------------------------------------------------------
# SVG helpers
# --------------------------------------------------------------------------

def _px(value):
    return format(value, ".2f")


def _value_range(lo, hi, pad=0.0):
    """The axis range over values from `lo` to `hi`, widened on each side
    by `pad` times its span, within float64's range. Equal ends are first
    moved apart by 1 each way, or by half their magnitude where a step of 1
    is lost to rounding."""
    top = sys.float_info.max
    lo, hi = float(lo), float(hi)
    if hi == lo:
        half = 1.0 if lo - 1.0 < hi + 1.0 else abs(lo) / 2
        lo, hi = max(lo - half, -top), min(hi + half, top)
    margin = pad * (hi / 2 - lo / 2) * 2  # as pad * (hi - lo), with no overflow
    return max(lo - margin, -top), min(hi + margin, top)


def _fraction(v, lo, hi):
    """(v - lo) / (hi - lo) for lo < hi, at half scale where a difference
    overflows float64."""
    v = float(v)
    if math.isinf(v - lo) or math.isinf(hi - lo):
        v, lo, hi = v / 2, lo / 2, hi / 2
    return (v - lo) / (hi - lo)


def _nice_ticks(lo, hi, target=6):
    """About `target` ticks at round multiples over [lo, hi], at most a
    few more for any finite lo < hi."""
    if hi <= lo:
        return [lo]
    raw_step = (hi - lo) / max(target, 2)
    # A span past float64's range, or of a few subnormals, has no
    # power-of-ten step: its ends are its ticks.
    mag = 10.0 ** math.floor(math.log10(raw_step)) if 0.0 < raw_step < math.inf else 0.0
    if mag == 0.0:
        return [lo, hi]
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw_step <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    # Past float64's maximum the next tick would be inf.
    while v <= min(hi + step * 1e-9, sys.float_info.max):
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        if v + step == v:  # the step is below half the spacing of floats at v
            break
        v += step
    return ticks


def _log_ticks(lo, hi):
    top = sys.float_info.max_10_exp  # 10.0 ** (top + 1) overflows
    major = []
    k = math.ceil(math.log10(lo) - 1e-9)
    while k <= top and 10.0 ** k <= hi * (1 + 1e-9):
        major.append(10.0 ** k)
        k += 1
    minor = []
    k = math.floor(math.log10(lo))
    while k <= top and 10.0 ** k <= hi:
        for mult in range(2, 10):
            v = mult * 10.0 ** k
            if lo <= v <= hi:
                minor.append(v)
        k += 1
    if not major:
        major = [lo, hi]
    return major, minor


def _tick_label(value):
    return format(float(value), "g")


@dataclass
class _Canvas:
    width: int
    height: int
    parts: list = field(default_factory=list)

    def add(self, element):
        self.parts.append(element)

    def text(self, x, y, content, *, size=13, anchor="middle", color="#222222", rotate=None):
        transform = ""
        if rotate is not None:
            transform = f' transform="rotate({rotate} {_px(x)} {_px(y)})"'
        content = (
            content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )
        self.add(
            f'<text x="{_px(x)}" y="{_px(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}" '
            f'font-family="sans-serif"{transform}>{content}</text>'
        )

    def line(self, x1, y1, x2, y2, color="#cccccc", width=1.0):
        self.add(
            f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polyline(self, points, color, width=1.8):
        coords = " ".join(f"{_px(x)},{_px(y)}" for x, y in points)
        self.add(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}" stroke-linejoin="round"/>'
        )

    def render(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(
                f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
                f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            )
            handle.write(SVG_COMMENT + "\n")
            handle.write(
                f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>\n'
            )
            for part in self.parts:
                handle.write(part + "\n")
            handle.write("</svg>\n")


def line_plot_svg(path, series_list, *, title="", x_name="x", y_name="y", x_log=False):
    """Render labeled line series to a standalone SVG file."""
    series_list = list(series_list)
    if not series_list:
        raise ValueError("nothing to plot")
    if x_log:
        # A log axis cannot carry x <= 0; such points are not rendered.
        filtered = []
        for s in series_list:
            keep = s.x > 0
            if not np.any(keep):
                raise ValueError(
                    f"series {s.label!r} has no positive x values for the log axis"
                )
            filtered.append(PlotSeries(s.label, s.x[keep], s.y[keep]))
        series_list = filtered
    x_lo = float(min(s.x.min() for s in series_list))
    x_hi = float(max(s.x.max() for s in series_list))
    y_lo, y_hi = _value_range(
        min(s.y.min() for s in series_list), max(s.y.max() for s in series_list), pad=0.05
    )

    left, right, top, bottom = 72, 24, 48, 58
    plot_w = _LINE_WIDTH - left - right
    plot_h = _LINE_HEIGHT - top - bottom

    def x_pos(v):
        if x_log:
            span = math.log10(x_hi) - math.log10(x_lo)
            frac = 0.5 if span == 0 else (math.log10(v) - math.log10(x_lo)) / span
        else:
            frac = 0.5 if x_hi == x_lo else _fraction(v, x_lo, x_hi)
        return left + frac * plot_w

    def y_pos(v):
        return top + (1.0 - _fraction(v, y_lo, y_hi)) * plot_h

    canvas = _Canvas(_LINE_WIDTH, _LINE_HEIGHT)

    if x_log:
        major, minor = _log_ticks(x_lo, x_hi)
        for v in minor:
            canvas.line(x_pos(v), top, x_pos(v), top + plot_h, color="#eeeeee")
    else:
        major = _nice_ticks(x_lo, x_hi)
    for v in major:
        canvas.line(x_pos(v), top, x_pos(v), top + plot_h, color="#dddddd")
        canvas.text(x_pos(v), top + plot_h + 18, _tick_label(v))
    for v in _nice_ticks(y_lo, y_hi):
        canvas.line(left, y_pos(v), left + plot_w, y_pos(v), color="#dddddd")
        canvas.text(left - 8, y_pos(v) + 4, _tick_label(v), anchor="end")

    canvas.line(left, top, left, top + plot_h, color="#222222", width=1.2)
    canvas.line(left, top + plot_h, left + plot_w, top + plot_h, color="#222222", width=1.2)
    canvas.text(left + plot_w / 2, _LINE_HEIGHT - 14, x_name, size=14)
    canvas.text(18, top + plot_h / 2, y_name, size=14, rotate=-90)
    if title:
        canvas.text(_LINE_WIDTH / 2, 24, title, size=16)

    for i, series in enumerate(series_list):
        color = _PALETTE[i % len(_PALETTE)]
        points = [(x_pos(x), y_pos(y)) for x, y in zip(series.x, series.y)]
        canvas.polyline(points, color)

    labeled = [s for s in series_list if s.label]
    if labeled:
        legend_x = left + plot_w - 180
        legend_y = top + 10
        for i, series in enumerate(series_list):
            if not series.label:
                continue
            color = _PALETTE[i % len(_PALETTE)]
            canvas.line(legend_x, legend_y + 6, legend_x + 26, legend_y + 6, color=color, width=2.4)
            canvas.text(legend_x + 32, legend_y + 10, series.label, anchor="start")
            legend_y += 20

    canvas.render(path)


def polar_plot_svg(path, azimuths, values, *, title="", value_name="value"):
    """Render a horizontal-plane cut as a polar SVG plot.

    Azimuth 0 points up (front) and angles grow counterclockwise on the
    screen, matching the package's view-from-above convention. The
    radius maps the value range linearly onto the rings.
    """
    azimuths = np.asarray(azimuths, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if azimuths.size == 0 or azimuths.shape != values.shape:
        raise ValueError("need matching, non-empty azimuth and value arrays")
    if not np.all(np.isfinite(values)):
        raise ValueError("polar plot values must be finite")

    v_lo, v_hi = _value_range(values.min(), values.max())

    cx = cy = _POLAR_SIZE / 2
    r_inner = 0.12 * _POLAR_SIZE
    r_outer = 0.42 * _POLAR_SIZE

    def radius(v):
        return r_inner + _fraction(v, v_lo, v_hi) * (r_outer - r_inner)

    def position(az_deg, r):
        az = math.radians(az_deg)
        return cx - r * math.sin(az), cy - r * math.cos(az)

    canvas = _Canvas(_POLAR_SIZE, _POLAR_SIZE)
    for ring_value in (v_lo, v_lo / 2 + v_hi / 2, v_hi):
        r = radius(ring_value)
        steps = 180
        ring = [
            position(360.0 * i / steps, r) for i in range(steps + 1)
        ]
        canvas.polyline(ring, "#dddddd", width=1.0)
        canvas.text(cx + 4, cy - r - 4, _tick_label(ring_value), anchor="start", size=11, color="#555555")
    for spoke in range(0, 360, 30):
        x, y = position(spoke, r_outer)
        canvas.line(cx, cy, x, y, color="#eeeeee")
        lx, ly = position(spoke, r_outer + 16)
        canvas.text(lx, ly + 4, str(spoke), size=11, color="#555555")

    order = np.argsort(azimuths, kind="stable")
    pts = [position(azimuths[i], radius(values[i])) for i in order]
    pts.append(pts[0])
    canvas.polyline(pts, _PALETTE[0])

    if title:
        canvas.text(_POLAR_SIZE / 2, 22, title, size=15)
    canvas.text(_POLAR_SIZE / 2, _POLAR_SIZE - 10, f"{value_name} vs azimuth (deg)", size=12, color="#555555")
    canvas.render(path)


def write_wav(path, samples, sample_rate):
    """Write a mono 32-bit float WAV file (WAVE_FORMAT_IEEE_FLOAT, RFC 2361):
    `RIFF` and `WAVE`, an 18-byte `fmt ` chunk, a `fact` chunk holding the
    sample count, and `data` holding the samples as little-endian float32.

    Raises ValueError, before the file is opened, for a rate that does not
    round into 1.._WAV_MAX_RATE Hz, for more than _WAV_MAX_SAMPLES samples
    (no impulse response comes near that, so there is no RF64 output), and
    for samples that are not finite as float32 (CSV output keeps float64).
    """
    fs = float(sample_rate)
    rate = round(fs) if math.isfinite(fs) else 0
    if not 1 <= rate <= _WAV_MAX_RATE:
        raise ValueError(f"WAV sample rate must round into 1..{_WAV_MAX_RATE} Hz, got {fs}")
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError(f"mono output needs a 1D sample array, got {samples.shape}")
    count = samples.size
    if count > _WAV_MAX_SAMPLES:
        raise ValueError(f"{count} samples exceed the {_WAV_MAX_SAMPLES} a WAV file can hold")
    with np.errstate(over="ignore", invalid="ignore"):
        samples = samples.astype("<f4")
    if not np.isfinite(samples).all():
        raise ValueError("samples are not finite as 32-bit floats; write .csv output instead")
    # fmt: tag 3 (IEEE float), 1 channel, rate, byte rate, block align 4,
    # 32 bits per sample, cbSize 0.
    header = struct.pack(
        "<4sI4s4sIHHIIHHH4sII4sI",
        b"RIFF", 50 + 4 * count, b"WAVE",
        b"fmt ", 18, 3, 1, rate, 4 * rate, 4, 32, 0,
        b"fact", 4, count,
        b"data", 4 * count,
    )
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(samples.tobytes())
