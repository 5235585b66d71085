"""End-to-end exercise of the command-line interface through main(argv)."""

import argparse
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import dirkit
from dirkit.cli import build_parser, main
from dirkit.formats import read_dird, read_dirm, write_dird
from dirkit.rawirs import RawIRs


def run(argv, capsys):
    """Invoke the CLI in-process, returning (exit code, stdout, stderr)."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env():
    """The environment of a child interpreter that imports this dirkit."""
    src = str(Path(dirkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture()
def workspace(tmp_path):
    """A small synthesized IR set and a fitted model next to it."""
    dird = tmp_path / "ring.dird"
    dirm = tmp_path / "ring-model.dirm"
    assert main([
        "synth", "--mode", "lowpass", "--azimuth-step", "30",
        "--length", "64", "--info", "ring set", "-o", str(dird),
    ]) == 0
    assert main(["fit", str(dird), "-k", "4", "--info", "ring model",
                 "-o", str(dirm)]) == 0
    return tmp_path, dird, dirm


# -- synth / info / convert --------------------------------------------------

def test_synth_writes_a_loadable_file(tmp_path, capsys):
    out = tmp_path / "set.dird"
    code, stdout, stderr = run(
        ["synth", "--mode", "lowpass", "--azimuth-step", "30",
         "--length", "64", "--info", "ring set", "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert stderr == ""
    assert stdout == f"12 directions, 33 bins, 1 distances\nwrote {out}\n"
    raw = read_dird(out)
    assert raw.info == "ring set"
    assert raw.coords.shape == (12, 33, 1)


def test_info_describes_an_ir_set(workspace, capsys):
    _, dird, _ = workspace
    code, stdout, stderr = run(["info", str(dird)], capsys)
    assert code == 0
    assert stderr == ""
    assert "info: ring set" in stdout
    assert "type: RawIRs" in stdout
    assert "directions: 12" in stdout
    assert "frequencies: 33 bins [0, 24000] Hz" in stdout
    assert "distances: 1 m" in stdout
    assert "datatypes: complex, irs, lin, log, pow" in stdout
    assert "sample rate: 48000 Hz, IR length: 64" in stdout


def test_info_describes_a_model(workspace, capsys):
    _, _, dirm = workspace
    code, stdout, stderr = run(["info", str(dirm)], capsys)
    assert code == 0
    assert stderr == ""
    assert "info: ring model" in stdout
    assert "type: BasisSpectrumModel" in stdout
    assert "frequencies: continuous, [750, 24000] Hz" in stdout
    assert "datatypes: lin, log, pow" in stdout


def test_fit_reports_family_order_and_limits(workspace, capsys):
    tmp_path, dird, _ = workspace
    out = tmp_path / "cos.dirm"
    code, stdout, stderr = run(
        ["fit", str(dird), "--family", "cosine", "-k", "3", "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout == f"family cosine, order 3, limits [750, 24000] Hz\nwrote {out}\n"
    assert read_dirm(out).order == 3


def test_convert_reproduces_the_input_byte_for_byte(workspace, capsys):
    tmp_path, dird, _ = workspace
    out = tmp_path / "copy.dird"
    code, stdout, stderr = run(["convert", str(dird), "-o", str(out)], capsys)
    assert code == 0
    assert out.read_bytes() == dird.read_bytes()


def test_convert_keeps_the_rows_of_coinciding_directions(tmp_path, capsys):
    raw = RawIRs("zenith", np.arange(8.0).reshape(2, 4), 48000.0,
                 [(0.0, 90.0), (90.0, 90.0)])
    source, out = tmp_path / "zenith.dird", tmp_path / "copy.dird"
    write_dird(raw, source)
    code, _, _ = run(["convert", str(source), "-o", str(out)], capsys)
    assert code == 0
    np.testing.assert_array_equal(read_dird(out).irs, raw.irs)
    assert out.read_bytes() == source.read_bytes()


def test_wav_output_loads_no_scipy(workspace):
    # A fresh interpreter writes a WAV through main(); no scipy module loads.
    tmp_path, dird, _ = workspace
    script = (
        "import sys\n"
        "from dirkit.cli import main\n"
        "code = main(['extract-ir', sys.argv[1], '-o', sys.argv[2]])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(dird), str(tmp_path / "x.wav")],
        capture_output=True, text=True, env=_child_env(), check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "x.wav").read_bytes()[:4] == b"RIFF"


# -- spectrum ----------------------------------------------------------------

def test_spectrum_csv_is_long_format_over_both_inputs(workspace, capsys):
    tmp_path, dird, dirm = workspace
    out = tmp_path / "spectrum.csv"
    code, stdout, stderr = run(
        ["spectrum", str(dird), str(dirm), "--azimuth", "90", "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert "read at (90, 0) deg, 1 m" in stdout
    rows = read_rows(out)
    assert rows[0] == ["series", "frequency_hz", "magnitude_db"]
    labels = {row[0] for row in rows[1:]}
    assert labels == {"ring", "ring-model"}
    # 33 stored bins from the IR set plus the model's sampled sweep.
    assert sum(r[0] == "ring" for r in rows[1:]) == 33
    assert sum(r[0] == "ring-model" for r in rows[1:]) == 512


def test_spectrum_svg_renders_both_labels(workspace, capsys):
    tmp_path, dird, dirm = workspace
    out = tmp_path / "spectrum.svg"
    code, stdout, stderr = run(
        ["spectrum", str(dird), str(dirm), "-o", str(out)], capsys
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg ")
    assert text.splitlines()[1] == "<!-- dirkit-svg v1 -->"
    assert ">ring</text>" in text
    assert ">ring-model</text>" in text


def test_spectrum_deduplicates_equal_stems(workspace, capsys):
    tmp_path, dird, _ = workspace
    other_dir = tmp_path / "other"
    other_dir.mkdir()
    twin = other_dir / "ring.dird"
    twin.write_bytes(dird.read_bytes())
    # The twin's first suffixed label, `ring-2`, is this input's stem.
    taken = tmp_path / "ring-2.dird"
    taken.write_bytes(dird.read_bytes())
    out = tmp_path / "twin.csv"
    code, stdout, stderr = run(
        ["spectrum", str(dird), str(taken), str(twin), "-o", str(out)], capsys
    )
    assert code == 0
    rows = read_rows(out)[1:]
    assert {row[0] for row in rows} == {"ring", "ring-2", "ring-2-2"}
    assert len(rows) == 3 * 33


def test_spectrum_csv_quotes_a_label_with_a_comma(workspace, capsys):
    tmp_path, dird, _ = workspace
    source, out = tmp_path / "left,ear.dird", tmp_path / "s.csv"
    source.write_bytes(dird.read_bytes())
    code, _, _ = run(["spectrum", str(source), "-o", str(out)], capsys)
    assert code == 0
    rows = read_rows(out)
    assert {len(row) for row in rows} == {3}
    assert {row[0] for row in rows[1:]} == {"left,ear"}


# -- diff and sweep ----------------------------------------------------------

def test_diff_frequency_csv(workspace, capsys):
    tmp_path, dird, dirm = workspace
    out = tmp_path / "err.csv"
    code, stdout, stderr = run(["diff", str(dird), str(dirm), "-o", str(out)], capsys)
    assert code == 0
    assert "overall sd over the comparison grid:" in stdout
    rows = read_rows(out)
    assert rows[0] == ["series", "frequency_hz", "sd_db"]
    # The comparison grid drops the DC bin, outside the model's limits.
    assert len(rows) == 1 + 32
    freqs = [float(r[1]) for r in rows[1:]]
    assert freqs[0] == 750.0 and freqs[-1] == 24000.0
    errors = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(np.isfinite(errors)) and np.all(errors >= 0)


def test_diff_output_is_byte_stable(workspace, capsys):
    tmp_path, dird, dirm = workspace
    first = tmp_path / "err1.csv"
    second = tmp_path / "err2.csv"
    assert main(["diff", str(dird), str(dirm), "-o", str(first)]) == 0
    assert main(["diff", str(dird), str(dirm), "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_diff_horizontal_mse_svg(workspace, capsys):
    tmp_path, dird, dirm = workspace
    out = tmp_path / "horizontal.svg"
    code, stdout, stderr = run(
        ["diff", str(dird), str(dirm), "--measure", "mse",
         "--mode", "horizontal", "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert "overall mse over the comparison grid:" in stdout
    assert out.read_text().startswith("<svg ")


def test_sweep_csv_covers_every_order(workspace, capsys):
    tmp_path, dird, _ = workspace
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run(["sweep", str(dird), "-k", "6", "-o", str(out)], capsys)
    assert code == 0
    assert "at order 1," in stdout and "at order 6" in stdout
    rows = read_rows(out)
    assert rows[0] == ["series", "order", "mse_ratio"]
    assert [float(r[1]) for r in rows[1:]] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    errors = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(np.isfinite(errors)) and np.all(errors >= 0)


def test_sweep_fits_each_order_once(workspace, capsys, monkeypatch):
    tmp_path, dird, _ = workspace
    fitted = []
    real_fit = dirkit.cli.fit_basis_model

    def counting_fit(info, source, family, order, limits):
        fitted.append(order)
        return real_fit(info, source, family, order, limits)

    monkeypatch.setattr(dirkit.cli, "fit_basis_model", counting_fit)
    out = tmp_path / "sweep.csv"
    code, _, _ = run(["sweep", str(dird), "-k", "4", "-o", str(out)], capsys)
    assert code == 0
    assert fitted == [1, 2, 3, 4]


@pytest.fixture()
def fits(monkeypatch):
    """The argument tuples of every fit_basis_model call the CLI makes; none fits."""
    fitted = []
    monkeypatch.setattr(dirkit.cli, "fit_basis_model", lambda *args: fitted.append(args))
    return fitted


@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_sweep_below_order_one_fails_before_any_fit(workspace, capsys, fits, max_order):
    tmp_path, dird, _ = workspace
    out = tmp_path / "sweep.csv"
    code, _, stderr = run(["sweep", str(dird), "-k", max_order, "-o", str(out)], capsys)
    assert code == 1
    assert stderr == f"error: max order must be >= 1, got {max_order}\n"
    assert fits == []
    assert not out.exists()


def test_sweep_to_an_unsupported_format_fits_nothing(workspace, capsys, fits):
    tmp_path, dird, _ = workspace
    out = tmp_path / "s.png"
    code, stdout, stderr = run(["sweep", str(dird), "-k", "4", "-o", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert stderr == "error: unsupported output format '.png' (use .csv or .svg)\n"
    assert fits == []
    assert not out.exists()


# -- extract-ir and balloon ----------------------------------------------------

def test_extract_ir_wav(workspace, capsys):
    tmp_path, dird, _ = workspace
    out = tmp_path / "left.wav"
    code, stdout, stderr = run(
        ["extract-ir", str(dird), "--azimuth", "90", "-o", str(out)], capsys
    )
    assert code == 0
    assert "extracted 64 samples at (90, 0) deg, 1 m" in stdout
    rate, data = wavfile.read(out)
    assert rate == 48000
    assert data.dtype == np.float32
    assert data.shape == (64,)
    # Side gain at (90, 0) is g0 + g1 = 1.0 with the lowpass tap at 0.5.
    assert data[0] == np.float32(1.0)
    assert data[1] == np.float32(0.5)
    assert np.all(data[2:] == 0.0)


def _huge_view(monkeypatch):
    """Make every IR read return a zero-stride view one sample longer than
    a WAV file holds, so the writer sees the count without any samples."""
    read = RawIRs.get_data_vector
    count = (2**32 - 1 - 50) // 4 + 1

    def huge(self, *args, **kwargs):
        _, actual = read(self, *args, **kwargs)
        return np.broadcast_to(np.float32(0.0), (count,)), actual

    monkeypatch.setattr(RawIRs, "get_data_vector", huge)


def _infinite_rate(monkeypatch):
    monkeypatch.setattr(RawIRs, "sample_rate", property(lambda self: float("inf")))


# case: (samples, sample rate, patch applied after the file is written, error)
WAV_REJECTIONS = {
    "rate-2e9": ([1.0, 0.5], 2e9, None,
                 "WAV sample rate must round into 1..1073741823 Hz, got 2000000000.0"),
    "rate-0.4": ([1.0, 0.5], 0.4, None,
                 "WAV sample rate must round into 1..1073741823 Hz, got 0.4"),
    "rate-inf": ([1.0, 0.5], 48000.0, _infinite_rate,
                 "WAV sample rate must round into 1..1073741823 Hz, got inf"),
    "riff-size": ([1.0, 0.5], 48000.0, _huge_view,
                  "1073741812 samples exceed the 1073741811 a WAV file can hold"),
    "sample-1e300": ([1.0, 1e300], 48000.0, None,
                     "samples are not finite as 32-bit floats; write .csv output instead"),
}


@pytest.mark.parametrize("case", sorted(WAV_REJECTIONS))
def test_extract_ir_rejects_what_a_wav_cannot_hold(case, tmp_path, monkeypatch, capsys):
    samples, sample_rate, patch, message = WAV_REJECTIONS[case]
    # The directory does not exist, so opening the file would fail with
    # another error, and no writer can leave a file behind.
    source, out = tmp_path / "one.dird", tmp_path / "absent" / "x.wav"
    write_dird(RawIRs("one", np.array([samples]), sample_rate, [(0.0, 0.0)]), source)
    if patch is not None:
        patch(monkeypatch)
    code, stdout, stderr = run(["extract-ir", str(source), "-o", str(out)], capsys)
    assert code == 1 and stdout == ""
    assert stderr == f"error: {message}\n"
    assert not out.parent.exists()


def test_extract_ir_csv(workspace, capsys):
    tmp_path, dird, _ = workspace
    out = tmp_path / "front.csv"
    code, stdout, stderr = run(["extract-ir", str(dird), "-o", str(out)], capsys)
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["sample_index", "time_s", "amplitude"]
    assert len(rows) == 1 + 64
    assert float(rows[1][1]) == 0.0
    assert float(rows[2][1]) == pytest.approx(1.0 / 48000.0)
    # Front gain is g0 = 0.6.
    assert float(rows[1][2]) == pytest.approx(0.6)
    assert float(rows[2][2]) == pytest.approx(0.3)


def test_balloon_csv_lists_every_direction(workspace, capsys):
    tmp_path, dird, _ = workspace
    out = tmp_path / "balloon.csv"
    code, stdout, stderr = run(
        ["balloon", str(dird), "--frequency", "1000", "-o", str(out)], capsys
    )
    assert code == 0
    assert "balloon read at 750 Hz" in stdout
    rows = read_rows(out)
    assert rows[0] == ["azimuth_deg", "elevation_deg", "magnitude_db"]
    assert len(rows) == 1 + 12
    assert [float(r[0]) for r in rows[1:]] == [30.0 * i for i in range(12)]


def test_balloon_svg_horizontal_ring(workspace, capsys):
    tmp_path, dird, _ = workspace
    out = tmp_path / "balloon.svg"
    code, stdout, stderr = run(
        ["balloon", str(dird), "--frequency", "1500", "-o", str(out)], capsys
    )
    assert code == 0
    assert "balloon read at 1500 Hz" in stdout
    assert out.read_text().startswith("<svg ")


# -- failure paths -------------------------------------------------------------

FAILING = {
    "missing input": lambda t, d, m: ["info", str(t / "absent.dird")],
    "unknown extension": lambda t, d, m: ["info", str(t / "notes.txt")],
    "spectrum complex": lambda t, d, m: [
        "spectrum", str(d), "--datatype", "complex", "-o", str(t / "s.csv")],
    "spectrum txt output": lambda t, d, m: [
        "spectrum", str(d), "-o", str(t / "s.txt")],
    "fit order too big": lambda t, d, m: [
        "fit", str(d), "-k", "40", "-o", str(t / "m.dirm")],
    "sweep order below one": lambda t, d, m: [
        "sweep", str(d), "-k", "0", "-o", str(t / "s.csv")],
    "diff empty range": lambda t, d, m: [
        "diff", str(d), str(m), "--fmin", "30000", "-o", str(t / "d.csv")],
    "diff mse on log": lambda t, d, m: [
        "diff", str(d), str(m), "--measure", "mse", "--datatype", "log",
        "-o", str(t / "d.csv")],
    "balloon off-grid ring": lambda t, d, m: [
        "balloon", str(d), "--frequency", "750", "--ring-elevation", "45",
        "-o", str(t / "b.svg")],
    "extract-ir from model": lambda t, d, m: [
        "extract-ir", str(m), "-o", str(t / "e.wav")],
    "convert model": lambda t, d, m: ["convert", str(m), "-o", str(t / "c.dird")],
    "synth equal gains": lambda t, d, m: [
        "synth", "--g0", "0.4", "--g1", "0.4", "-o", str(t / "bad.dird")],
    "fit csv output": lambda t, d, m: ["fit", str(d), "-k", "2", "-o", str(t / "m.csv")],
    "receiver out of range on a DIRD": lambda t, d, m: [
        "info", str(d), "--receiver", "1"],
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failures_exit_one_with_error_line(case, workspace, capsys):
    tmp_path, dird, dirm = workspace
    (tmp_path / "notes.txt").write_text("not a dataset\n")
    argv = FAILING[case](tmp_path, dird, dirm)
    code, stdout, stderr = run(argv, capsys)
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: ")
    assert stderr.strip().count("\n") == 0
    if "-o" in argv:
        assert not Path(argv[argv.index("-o") + 1]).exists()


# Each output command on a DIRD and a DIRM path, with `-o` left off, and
# the formats it writes.
OUTPUT_COMMANDS = {
    "synth": (lambda d, m: ["synth", "--azimuth-step", "60", "--length", "16"], ".dird"),
    "convert": (lambda d, m: ["convert", str(d)], ".dird"),
    "fit": (lambda d, m: ["fit", str(d), "-k", "2"], ".dirm"),
    "spectrum": (lambda d, m: ["spectrum", str(d), str(m)], ".csv or .svg"),
    "diff": (lambda d, m: ["diff", str(d), str(m)], ".csv or .svg"),
    "sweep": (lambda d, m: ["sweep", str(d), "-k", "3"], ".csv or .svg"),
    "extract-ir": (lambda d, m: ["extract-ir", str(d)], ".wav or .csv"),
    "balloon": (lambda d, m: ["balloon", str(d), "--frequency", "1000"], ".csv or .svg"),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_an_unsupported_format_fails_before_any_input_is_read(command, tmp_path, capsys):
    make_argv, formats = OUTPUT_COMMANDS[command]
    argv = make_argv(tmp_path / "absent.dird", tmp_path / "absent.dirm")
    code, stdout, stderr = run([*argv, "-o", str(tmp_path / "out.txt")], capsys)
    assert code == 1 and stdout == ""
    assert stderr == f"error: unsupported output format '.txt' (use {formats})\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_every_declared_format_is_written(command, workspace, capsys):
    tmp_path, dird, dirm = workspace
    make_argv, formats = OUTPUT_COMMANDS[command]
    argv = make_argv(dird, dirm)
    declared = build_parser().parse_args([*argv, "-o", "x"]).formats
    assert " or ".join(declared) == formats
    for suffix in declared:
        out = tmp_path / f"{command}{suffix}"
        code, stdout, stderr = run([*argv, "-o", str(out)], capsys)
        assert (code, stderr) == (0, "")
        assert out.stat().st_size > 0
        assert stdout.splitlines()[-1] == f"wrote {out}"


def test_every_command_with_an_output_declares_its_formats():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        if any("-o" in action.option_strings for action in sub._actions):
            assert sub.get_default("formats"), name


def test_module_entry_point_fails_with_one_error_line(tmp_path):
    # `python -m dirkit` exits with main()'s code and prints nothing on stdout.
    done = subprocess.run(
        [sys.executable, "-m", "dirkit", "spectrum", "absent.dird", "-o", "x.txt"],
        cwd=tmp_path, capture_output=True, text=True, env=_child_env(), check=False,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: unsupported output format '.txt' (use .csv or .svg)\n"


def test_spectrum_of_overflowing_responses_fails_with_error_line(tmp_path, capsys):
    loud = tmp_path / "loud.dird"
    write_dird(RawIRs("loud", np.full((1, 8), 1e308), 48000.0, [(0, 0)]), loud)
    out = tmp_path / "s.csv"
    code, _, stderr = run(["spectrum", str(loud), "-o", str(out)], capsys)
    assert code == 1
    assert stderr.startswith("error: ") and "spectra overflow float64" in stderr
    assert stderr.strip().count("\n") == 0
    assert not out.exists()


def test_an_oversize_dird_header_fails_with_error_line(tmp_path, capsys):
    big = tmp_path / "big.dird"
    big.write_text("DIRD 1\nfs 48000 D 1 L 1000000000000 R 1\ninfo\ndist 1\ndir 0 0\nir 0 0\n")
    code, stdout, stderr = run(["info", str(big)], capsys)
    assert code == 1 and stdout == ""
    assert stderr == f"error: {big}:6: 'ir' line carries 2 values, expected 1000000000000\n"


def test_failed_commands_do_not_write_output(workspace, capsys):
    tmp_path, dird, dirm = workspace
    out = tmp_path / "d.csv"
    code, _, _ = run(
        ["diff", str(dird), str(dirm), "--fmin", "30000", "-o", str(out)], capsys
    )
    assert code == 1
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "dirkit 1.0.0" in capsys.readouterr().out


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
