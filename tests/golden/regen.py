"""CLI goldens: the commands, how they run, and how outputs compare.

`tests/test_golden.py` runs every case below in process through
`dirkit.cli.main`, in one working directory holding a copy of
`input.dird`, in list order (later cases read files earlier ones wrote),
and compares the results with the committed goldens:

  - `streams.json`: each case's argv, exit code, stdout and stderr
  - `files/`: every file the cases wrote

Exit codes, stdout, stderr and DIRD, SVG and WAV bytes must match
exactly. DIRM and CSV text must match exactly outside its numbers, and
each number within max(1e-12 * |golden|, 1e-13), since BLAS order may
move last bits.

Run this file to rewrite the goldens after an intended output change:

    PYTHONPATH=src python tests/golden/regen.py

It prints each changed file with its largest relative change. It writes
`input.dird` only when it is missing, from a fixed seed.
"""

import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
INPUT = "input.dird"
STREAMS = HERE / "streams.json"
FILES = HERE / "files"

# (name, argv) in run order.
CASES = [
    ("info-dird", ["info", INPUT]),
    ("synth", ["synth", "--mode", "lowpass", "--azimuth-step", "60", "--length", "16",
               "--info", "synth ring", "-o", "synth.dird"]),
    ("convert", ["convert", INPUT, "-o", "converted.dird"]),
    ("fit-fourier", ["fit", INPUT, "-k", "7", "--info", "fourier 7", "-o", "fourier.dirm"]),
    ("fit-cosine", ["fit", INPUT, "--family", "cosine", "-k", "9", "--fmin", "3000",
                    "--fmax", "21000", "--info", "cosine 9", "-o", "cosine.dirm"]),
    ("info-dirm", ["info", "fourier.dirm"]),
    ("spectrum-csv", ["spectrum", INPUT, "fourier.dirm", "cosine.dirm", "--azimuth", "40",
                      "--elevation", "10", "--distance", "1.6", "-o", "spectrum.csv"]),
    ("spectrum-svg", ["spectrum", INPUT, "fourier.dirm", "--azimuth", "200",
                      "--elevation", "-20", "--datatype", "lin", "-o", "spectrum.svg"]),
    ("diff-sd-frequency-csv", ["diff", INPUT, "fourier.dirm", "-o", "sd-frequency.csv"]),
    ("diff-sd-frequency-range-svg", ["diff", INPUT, "fourier.dirm", "--fmin", "4000",
                                     "--fmax", "18000", "-o", "sd-frequency-range.svg"]),
    ("diff-sd-horizontal-csv", ["diff", INPUT, "cosine.dirm", "--mode", "horizontal",
                                "-o", "sd-horizontal.csv"]),
    ("diff-sd-horizontal-range-svg", ["diff", INPUT, "fourier.dirm", "--mode", "horizontal",
                                      "--fmin", "6000", "--fmax", "12000",
                                      "-o", "sd-horizontal-range.svg"]),
    ("diff-mse-frequency-range-csv", ["diff", INPUT, "cosine.dirm", "--measure", "mse",
                                      "--fmin", "4000", "--fmax", "18000",
                                      "-o", "mse-frequency-range.csv"]),
    ("diff-mse-frequency-svg", ["diff", INPUT, "fourier.dirm", "--measure", "mse",
                                "-o", "mse-frequency.svg"]),
    ("diff-mse-horizontal-csv", ["diff", INPUT, "fourier.dirm", "--measure", "mse",
                                 "--mode", "horizontal", "-o", "mse-horizontal.csv"]),
    ("diff-mse-horizontal-range-svg", ["diff", INPUT, "fourier.dirm", "--measure", "mse",
                                       "--mode", "horizontal", "--fmin", "3000",
                                       "--fmax", "9000", "-o", "mse-horizontal-range.svg"]),
    ("sweep", ["sweep", INPUT, "-k", "8", "-o", "sweep.csv"]),
    ("extract-ir-csv", ["extract-ir", INPUT, "--azimuth", "100", "--elevation", "-25",
                        "--distance", "1.8", "-o", "ir.csv"]),
    ("extract-ir-wav", ["extract-ir", INPUT, "--azimuth", "330", "--elevation", "80",
                        "-o", "ir.wav"]),
    ("balloon-csv", ["balloon", INPUT, "--frequency", "5000", "-o", "balloon.csv"]),
    ("balloon-svg", ["balloon", "fourier.dirm", "--frequency", "7000", "--datatype", "pow",
                     "--ring-elevation", "30", "-o", "balloon.svg"]),
    ("error-fit-order", ["fit", INPUT, "-k", "40", "-o", "never.dirm"]),
    ("error-spectrum-format", ["spectrum", INPUT, "-o", "spectrum.txt"]),
]

NUMERIC_SUFFIXES = {".dirm", ".csv"}
_NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def make_input(path):
    """37 directions (rings at -30, 0 and 30 degrees every 30 degrees, and
    the zenith) x 32 taps x 2 distances of exponentially decaying noise."""
    from dirkit.formats import write_dird
    from dirkit.rawirs import RawIRs

    rings = [(az, el) for el in (-30.0, 0.0, 30.0) for az in range(0, 360, 30)]
    directions = rings + [(0.0, 90.0)]
    rng = np.random.default_rng(20261019)
    decay = np.exp(-np.arange(32) / 6.0)[None, :, None]
    irs = rng.standard_normal((len(directions), 32, 2)) * decay
    write_dird(RawIRs("golden input", irs, 48000.0, directions, (1.0, 2.0)), path)


def run_cases(workdir):
    """Run every case in `workdir`, which holds `input.dird`; returns one
    {name, argv, exit, stdout, stderr} record per case."""
    from dirkit.cli import main

    records = []
    with contextlib.chdir(workdir):
        for name, argv in CASES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            records.append({"name": name, "argv": argv, "exit": code,
                            "stdout": out.getvalue(), "stderr": err.getvalue()})
    return records


def written_files(workdir):
    """{name: bytes} of every file in `workdir` except the input."""
    return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())
            if p.name != INPUT}


def _split_numbers(text):
    parts = _NUMBER.split(text)
    return parts[0::2], [float(v) for v in parts[1::2]]


def largest_change(name, golden, actual):
    """None when `actual` matches `golden` under the rules above;
    otherwise a description of the difference, with the largest relative
    change of a numeric file whose text matches outside its numbers."""
    if golden == actual:
        return None
    if Path(name).suffix in NUMERIC_SUFFIXES:
        g_text, g_nums = _split_numbers(golden.decode())
        a_text, a_nums = _split_numbers(actual.decode())
        if g_text == a_text:
            g, a = np.array(g_nums), np.array(a_nums)
            gap = np.abs(a - g)
            if np.all(gap <= np.maximum(1e-12 * np.abs(g), 1e-13)):
                return None
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(g != 0.0, gap / np.abs(g), np.where(gap > 0.0, np.inf, 0.0))
            i = int(np.argmax(rel))
            return (f"largest relative change {rel[i]:.3g} "
                    f"({g_nums[i]!r} -> {a_nums[i]!r})")
        return "text outside numbers differs"
    return f"bytes differ ({len(golden)} -> {len(actual)} bytes)"


def main():
    if not (HERE / INPUT).exists():
        make_input(HERE / INPUT)
        print(f"wrote {INPUT}")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(HERE / INPUT, tmp)
        records = run_cases(tmp)
        files = written_files(tmp)

    old = json.loads(STREAMS.read_text()) if STREAMS.exists() else []
    old_by_name = {r["name"]: r for r in old}
    for record in records:
        if old_by_name.get(record["name"]) != record:
            print(f"streams.json: case {record['name']} changed")
    for name in sorted(set(old_by_name) - {r["name"] for r in records}):
        print(f"streams.json: case {name} removed")
    old_files = {p.name: p.read_bytes() for p in FILES.iterdir()} if FILES.exists() else {}
    for name in sorted(set(old_files) | set(files)):
        if name not in files:
            print(f"files/{name}: removed")
        elif name not in old_files:
            print(f"files/{name}: new")
        elif (change := largest_change(name, old_files[name], files[name])) is not None:
            print(f"files/{name}: {change}")
        else:
            files[name] = old_files[name]  # within tolerance: keep the golden

    STREAMS.write_text(json.dumps(records, indent=1) + "\n")
    shutil.rmtree(FILES, ignore_errors=True)
    FILES.mkdir()
    for name, data in files.items():
        (FILES / name).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
