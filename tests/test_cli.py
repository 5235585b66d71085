"""End-to-end exercise of the command-line interface through main(argv)."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import dirkit
from dirkit.cli import main
from dirkit.formats import read_dird, read_dirm, write_dird
from dirkit.rawirs import RawIRs


def run(argv, capsys):
    """Invoke the CLI in-process, returning (exit code, stdout, stderr)."""
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert f"wrote {out} (12 directions, 33 bins, 1 distances)" in stdout
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
    assert f"wrote {out} (family cosine, order 3, limits [750, 24000] Hz)" in stdout
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


def test_cli_import_does_not_load_scipy_io():
    # WAV output imports scipy.io on demand; other commands never pay for it.
    src = str(Path(dirkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, dirkit.cli; print('scipy.io' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


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
    out = tmp_path / "twin.csv"
    code, stdout, stderr = run(
        ["spectrum", str(dird), str(twin), "-o", str(out)], capsys
    )
    assert code == 0
    labels = {row[0] for row in read_rows(out)[1:]}
    assert labels == {"ring", "ring-1"}


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
}


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failures_exit_one_with_error_line(case, workspace, capsys):
    tmp_path, dird, dirm = workspace
    (tmp_path / "notes.txt").write_text("not a dataset\n")
    argv = FAILING[case](tmp_path, dird, dirm)
    code, stdout, stderr = run(argv, capsys)
    assert code == 1
    assert stderr.startswith("error: ")
    assert stderr.strip().count("\n") == 0


def test_spectrum_of_overflowing_responses_fails_with_error_line(tmp_path, capsys):
    loud = tmp_path / "loud.dird"
    write_dird(RawIRs("loud", np.full((1, 8), 1e308), 48000.0, [(0, 0)]), loud)
    out = tmp_path / "s.csv"
    code, _, stderr = run(["spectrum", str(loud), "-o", str(out)], capsys)
    assert code == 1
    assert stderr.startswith("error: ") and "spectra overflow float64" in stderr
    assert stderr.strip().count("\n") == 0
    assert not out.exists()


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
