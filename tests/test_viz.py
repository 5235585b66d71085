"""SVG line and polar plots over value ranges at the ends of float64."""

import math
import re

import numpy as np
import pytest

from dirkit.viz import PlotSeries, line_plot_svg, polar_plot_svg

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
