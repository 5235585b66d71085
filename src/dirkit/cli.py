"""Command-line front end: synthesize, convert, fit, compare, export.

Every command reads representations from files (.dird, .dirm, .sofa),
writes DIRD/DIRM/CSV/SVG/WAV outputs chosen by the output extension,
exits 0 on success, and prints failures to stderr as a single
`error: ...` line. An input's suffix picks its reader, which returns
one object per receiver (a DIRD or DIRM file holds receiver 0 only),
and `--receiver` is checked for every input.

A command that writes a file declares its output suffixes next to its
function, and `main` checks the output's suffix against them before the
command reads any input. The command returns its report lines and one
writer per suffix; `main` runs the chosen writer and only then prints
the lines, ending with `wrote <output>`. So a failed command prints
nothing on stdout.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisFamily, fit_basis_model
from .coords import CoordinateSet, Direction
from .core import DataType
from .diff import DirectivityDiff
from .errors import DirectivityError
from .formats import read_dird, read_dirm, write_dird, write_dirm
from .rawirs import RawIRs
from .sofa import load_sofa
from .synth import MODES, SynthSpec, synth_test_set
from .viz import PlotSeries, line_plot_svg, polar_plot_svg, series_csv, write_csv, write_wav

_Y_NAMES = {
    DataType.LOG_MAGNITUDE: "magnitude_db",
    DataType.LINEAR_MAGNITUDE: "magnitude_linear",
    DataType.POWER_SPECTRUM: "power",
}


# Each input suffix's reader returns the file's objects, one per receiver,
# and looks its function up in this module when it runs.
_READERS = {
    ".dird": lambda path: [read_dird(path)],
    ".dirm": lambda path: [read_dirm(path)],
    ".sofa": lambda path: load_sofa(path),
}


def _load(path, receiver=0):
    reader = _READERS.get(Path(path).suffix.lower())
    if reader is None:
        raise ValueError(
            f"cannot infer the format of {path!r} (expected .dird, .dirm, or .sofa)"
        )
    objects = reader(path)
    if not 0 <= receiver < len(objects):
        raise ValueError(f"receiver {receiver} out of range, file has {len(objects)}")
    return objects[receiver]


def _series_writers(series_list, x_name, y_name, x_log, title):
    """The .csv and .svg writers of the series of one line plot."""
    return {
        ".csv": lambda path: series_csv(path, series_list, x_name, y_name),
        ".svg": lambda path: line_plot_svg(
            path, series_list, title=title, x_name=x_name, y_name=y_name, x_log=x_log
        ),
    }


def _freq_range(args):
    if args.fmin is None and args.fmax is None:
        return None
    lo = 0.0 if args.fmin is None else args.fmin
    hi = float("inf") if args.fmax is None else args.fmax
    return (lo, hi)


def _spectral_datatype(text):
    datatype = DataType.parse(text)
    if datatype not in _Y_NAMES:
        raise ValueError(f"this command plots magnitudes, not {datatype.value}")
    return datatype


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_info(args):
    obj = _load(args.input, args.receiver)
    coords = obj.coords
    lines = [f"info: {obj.info}", f"type: {type(obj).__name__}"]
    if coords.continuity.direction:
        lo, hi = coords.elevation_limits
        lines.append(f"directions: continuous, elevation limits [{lo}, {hi}] deg")
    else:
        lines.append(f"directions: {len(coords.directions)}")
    if coords.continuity.frequency:
        lo, hi = coords.frequencies
        lines.append(f"frequencies: continuous, [{lo:g}, {hi:g}] Hz")
    else:
        f = coords.frequency_array
        span = f" [{f[0]:g}, {f[-1]:g}] Hz" if len(f) else ""
        lines.append(f"frequencies: {len(f)} bins{span}")
    lines.append(f"distances: {', '.join(format(v, 'g') for v in coords.distances)} m")
    lines.append(f"datatypes: {', '.join(sorted(t.value for t in obj.supported_datatypes))}")
    if isinstance(obj, RawIRs):
        lines.append(f"sample rate: {obj.sample_rate:g} Hz, IR length: {obj.ir_length}")
    return lines, {}


def cmd_synth(args):
    spec = SynthSpec(
        mode=args.mode,
        azimuth_step=args.azimuth_step,
        elevation_step=args.elevation_step,
        elevation_limits=(args.elevation_min, args.elevation_max),
        length=args.length,
        sample_rate=args.sample_rate,
        g0=args.g0,
        g1=args.g1,
        lowpass_a=args.lowpass_a,
    )
    raw = synth_test_set(spec, args.info)
    d, f, r = raw.coords.shape
    line = f"{d} directions, {f} bins, {r} distances"
    return [line], {".dird": lambda path: write_dird(raw, path)}


def cmd_convert(args):
    obj = _load(args.input, args.receiver)
    if not isinstance(obj, RawIRs):
        raise ValueError("convert expects an impulse-response input")
    return [], {".dird": lambda path: write_dird(obj, path)}


def cmd_spectrum(args):
    datatype = _spectral_datatype(args.datatype)
    direction = Direction(args.azimuth, args.elevation)
    series_list, lines = [], []
    for i, path in enumerate(args.inputs):
        obj = _load(path, args.receiver)
        series = obj.spectrum_series(direction, args.distance, datatype)
        label = Path(path).stem or f"series{i}"
        while any(s.label == label for s in series_list):
            label = f"{label}-{i}"
        series_list.append(PlotSeries(label, series.frequencies, series.values))
        actual = series.coords.directions[0]
        lines.append(
            f"{path}: read at ({actual.azimuth:g}, {actual.elevation:g}) deg, "
            f"{series.coords.distances[0]:g} m"
        )
    title = args.title or f"spectrum at ({args.azimuth:g}, {args.elevation:g})"
    return lines, _series_writers(series_list, "frequency_hz", _Y_NAMES[datatype], True, title)


def cmd_fit(args):
    source = _load(args.input, args.receiver)
    model = fit_basis_model(args.info, source, args.family, args.order, _freq_range(args))
    lo, hi = model.frequency_limits
    line = f"family {model.family.value}, order {model.order}, limits [{lo:g}, {hi:g}] Hz"
    return [line], {".dirm": lambda path: write_dirm(model, path)}


def cmd_diff(args):
    reference = _load(args.reference)
    evaluand = _load(args.evaluand)
    default = "log" if args.measure == "sd" else "lin"
    datatype = DataType.parse(default if args.datatype is None else args.datatype)
    diff = DirectivityDiff(args.info, reference, evaluand, datatype=datatype)
    freq_range = _freq_range(args)
    y_name = "sd_db" if args.measure == "sd" else "mse_ratio"
    if args.mode == "frequency":
        x, y = diff.error_vs_frequency(args.measure, freq_range)
        x_name, x_log = "frequency_hz", True
    else:
        x, y = diff.error_horizontal(args.measure, freq_range)
        x_name, x_log = "azimuth_deg", False
    overall = diff.compute_sd() if args.measure == "sd" else diff.compute_mse()
    title = args.title or f"{args.measure} vs {args.mode}"
    line = f"overall {args.measure} over the comparison grid: {overall:.6g}"
    return [line], _series_writers([PlotSeries(args.measure, x, y)], x_name, y_name, x_log, title)


def cmd_sweep(args):
    if args.max_order < 1:
        raise ValueError(f"max order must be >= 1, got {args.max_order}")
    reference = _load(args.reference)
    family = BasisFamily.parse(args.family)
    orders = np.arange(1, args.max_order + 1)
    errors = []
    for order in orders:
        model = fit_basis_model("", reference, family, int(order), None)
        diff = DirectivityDiff("", reference, model, datatype=DataType.LINEAR_MAGNITUDE)
        errors.append(diff.compute_mse())
    series = PlotSeries("mse", orders.astype(float), np.array(errors))
    title = args.title or f"model error vs order ({family.value})"
    line = f"mse: {errors[0]:.6g} at order 1, {errors[-1]:.6g} at order {args.max_order}"
    return [line], _series_writers([series], "order", "mse_ratio", False, title)


def cmd_extract_ir(args):
    obj = _load(args.input, args.receiver)
    requested = CoordinateSet(directions=[(args.azimuth, args.elevation)], distances=(args.distance,))
    vector, actual = obj.get_data_vector(requested, DataType.IMPULSE_RESPONSES)
    direction = actual.directions[0]
    rows = zip(range(len(vector)), actual.frequency_array, vector)
    line = (
        f"extracted {len(vector)} samples at ({direction.azimuth:g}, "
        f"{direction.elevation:g}) deg, {actual.distances[0]:g} m"
    )
    return [line], {
        ".wav": lambda path: write_wav(path, vector, obj.sample_rate),
        ".csv": lambda path: write_csv(path, ("sample_index", "time_s", "amplitude"), rows),
    }


def cmd_balloon(args):
    obj = _load(args.input, args.receiver)
    datatype = _spectral_datatype(args.datatype)
    grid = obj.balloon_grid(args.frequency, args.distance, datatype)
    actual_freq = grid.coords.frequencies[0]
    azimuths, elevations = grid.coords.azimuth_array, grid.coords.elevation_array
    y_name = _Y_NAMES[datatype]

    def ring_svg(path):
        ring = np.abs(elevations - args.ring_elevation) <= 1e-6
        if not np.any(ring):
            raise ValueError(
                f"no stored directions at elevation {args.ring_elevation:g}; "
                f"use a .csv output for the full grid"
            )
        title = args.title or f"{y_name} at {actual_freq:g} Hz"
        polar_plot_svg(path, azimuths[ring], grid.values[ring], title=title, value_name=y_name)

    rows = zip(azimuths.tolist(), elevations.tolist(), grid.values)
    return [f"balloon read at {actual_freq:g} Hz"], {
        ".csv": lambda path: write_csv(path, ("azimuth_deg", "elevation_deg", y_name), rows),
        ".svg": ring_svg,
    }


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def _add_receiver(parser):
    parser.add_argument(
        "--receiver",
        type=int,
        default=0,
        help="receiver index (default 0); a DIRD or DIRM file holds only 0",
    )


def _add_direction(parser):
    parser.add_argument("--azimuth", type=float, default=0.0, help="degrees, 0=front, CCW")
    parser.add_argument("--elevation", type=float, default=0.0, help="degrees, +90=up")
    parser.add_argument("--distance", type=float, default=1.0, help="meters (default 1)")


def _add_freq_range(parser):
    parser.add_argument("--fmin", type=float, default=None, help="lower frequency bound, Hz")
    parser.add_argument("--fmax", type=float, default=None, help="upper frequency bound, Hz")


def _add_output(parser, func, *formats):
    """Add `-o` for a command whose output suffix picks one of `formats`,
    the keys of the writers the command returns."""
    parser.add_argument(
        "-o", "--output", required=True, help=f"output file: {' or '.join(formats)}"
    )
    parser.set_defaults(func=func, formats=formats)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dirkit",
        description="Directivity datasets: synthesize, convert, model, compare, export.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(formats=())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="describe a representation file")
    p.add_argument("input")
    _add_receiver(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("synth", help="generate a synthetic IR set as DIRD")
    p.add_argument("--mode", choices=MODES, default="flat")
    p.add_argument("--azimuth-step", type=float, default=5.0)
    p.add_argument("--elevation-step", type=float, default=10.0)
    p.add_argument("--elevation-min", type=float, default=0.0)
    p.add_argument("--elevation-max", type=float, default=0.0)
    p.add_argument("--length", type=int, default=256)
    p.add_argument("--sample-rate", type=float, default=48000.0)
    p.add_argument("--g0", type=float, default=0.6)
    p.add_argument("--g1", type=float, default=0.4)
    p.add_argument("--lowpass-a", type=float, default=0.5)
    p.add_argument("--info", default="")
    _add_output(p, cmd_synth, ".dird")

    p = sub.add_parser("convert", help="convert a SOFA (or DIRD) input to DIRD")
    p.add_argument("input")
    _add_receiver(p)
    _add_output(p, cmd_convert, ".dird")

    p = sub.add_parser("spectrum", help="spectrum at one direction as CSV/SVG")
    p.add_argument("inputs", nargs="+", metavar="input")
    _add_receiver(p)
    _add_direction(p)
    p.add_argument("--datatype", default="log", help="log, lin, or pow (default log)")
    p.add_argument("--title", default="")
    _add_output(p, cmd_spectrum, ".csv", ".svg")

    p = sub.add_parser("fit", help="fit a basis spectrum model, write DIRM")
    p.add_argument("input")
    _add_receiver(p)
    p.add_argument("--family", default="fourier", help="fourier or cosine")
    p.add_argument("-k", "--order", type=int, required=True)
    _add_freq_range(p)
    p.add_argument("--info", default="")
    _add_output(p, cmd_fit, ".dirm")

    p = sub.add_parser("diff", help="error of an evaluand against a reference")
    p.add_argument("reference")
    p.add_argument("evaluand")
    p.add_argument("--measure", choices=("sd", "mse"), default="sd")
    p.add_argument(
        "--datatype",
        default=None,
        help="override the difference datatype (default: log for sd, lin for mse)",
    )
    p.add_argument("--mode", choices=("frequency", "horizontal"), default="frequency")
    _add_freq_range(p)
    p.add_argument("--info", default="")
    p.add_argument("--title", default="")
    _add_output(p, cmd_diff, ".csv", ".svg")

    p = sub.add_parser("sweep", help="model error against model order")
    p.add_argument("reference")
    p.add_argument("--family", default="fourier")
    p.add_argument("-k", "--max-order", type=int, required=True)
    p.add_argument("--title", default="")
    _add_output(p, cmd_sweep, ".csv", ".svg")

    p = sub.add_parser("extract-ir", help="write one impulse response as WAV/CSV")
    p.add_argument("input")
    _add_receiver(p)
    _add_direction(p)
    _add_output(p, cmd_extract_ir, ".wav", ".csv")

    p = sub.add_parser("balloon", help="directional pattern at one frequency")
    p.add_argument("input")
    _add_receiver(p)
    p.add_argument("--frequency", type=float, required=True)
    p.add_argument("--distance", type=float, default=1.0)
    p.add_argument("--datatype", default="log")
    p.add_argument(
        "--ring-elevation",
        type=float,
        default=0.0,
        help="elevation of the ring rendered in SVG output (default 0)",
    )
    p.add_argument("--title", default="")
    _add_output(p, cmd_balloon, ".csv", ".svg")

    return parser


def _output_suffix(args):
    """The suffix that picks the writer of `args.output`, checked against
    the command's formats; None for a command with no output file."""
    if not args.formats:
        return None
    suffix = Path(args.output).suffix.lower()
    if suffix not in args.formats:
        raise ValueError(
            f"unsupported output format {suffix!r} (use {' or '.join(args.formats)})"
        )
    return suffix


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        suffix = _output_suffix(args)
        lines, writers = args.func(args)
        if suffix is not None:
            writers[suffix](args.output)
            lines.append(f"wrote {args.output}")
    except (DirectivityError, ValueError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
