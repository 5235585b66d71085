"""SVG line plots over value ranges at the ends of float64."""

import re

import numpy as np
import pytest

from dirkit.viz import PlotSeries, line_plot_svg

Y_LABEL = re.compile(r'text-anchor="end"[^>]*>([^<]*)</text>')


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
