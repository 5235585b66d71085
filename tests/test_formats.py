"""DIRD/DIRM persistence: exact round trips and strict rejection."""

import numpy as np
import pytest

from dirkit import (
    BasisFamily,
    BasisSpectrumModel,
    CoordinateSet,
    DataType,
    FormatError,
    RawIRs,
    read_dird,
    read_dirm,
    write_dird,
    write_dirm,
)
from dirkit import formats

SEED = 20240816


def make_raw(rng, n_dirs=3, length=8, n_dists=2):
    irs = rng.standard_normal((n_dirs, length, n_dists))
    directions = [
        (float(az), float(el))
        for az, el in zip(rng.uniform(0, 360, n_dirs), rng.uniform(-90, 90, n_dirs))
    ]
    distances = tuple(np.sort(rng.uniform(0.5, 3.0, n_dists)))
    return RawIRs(
        info="round trip set",
        irs=irs,
        sample_rate=44100.0,
        directions=directions,
        distances=distances,
    )


def make_model(rng, n_dirs=3, order=4, n_bins=8, n_dists=2):
    return BasisSpectrumModel(
        info="round trip model",
        family=BasisFamily.COSINE,
        coefficients=rng.standard_normal((n_dirs, order, n_dists)),
        source_bins=tuple(np.sort(rng.uniform(100.0, 20000.0, n_bins))),
        directions=[
            (float(az), float(el))
            for az, el in zip(rng.uniform(0, 360, n_dirs), rng.uniform(-90, 90, n_dirs))
        ],
        distances=tuple(np.sort(rng.uniform(0.5, 3.0, n_dists))),
    )


# --------------------------------------------------------------------------
# round trips
# --------------------------------------------------------------------------

def test_dird_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(SEED)
    raw = make_raw(rng)
    path = tmp_path / "set.dird"
    write_dird(raw, path)
    back = read_dird(path)
    np.testing.assert_array_equal(back.irs, raw.irs)
    assert back.sample_rate == raw.sample_rate
    assert back.coords.directions == raw.coords.directions
    assert back.coords.distances == raw.coords.distances
    assert back.coords.frequencies == raw.coords.frequencies
    assert back.info == raw.info


def test_dird_second_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    raw = make_raw(rng)
    a, b = tmp_path / "a.dird", tmp_path / "b.dird"
    write_dird(raw, a)
    write_dird(read_dird(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_dird_keeps_the_rows_of_coinciding_directions(tmp_path):
    # (0, 90) and (90, 90) are one point on the sphere; a nearest-direction
    # read would send both rows to the first one's samples.
    raw = RawIRs("zenith", np.arange(8.0).reshape(2, 4), 48000.0,
                 [(0.0, 90.0), (90.0, 90.0)])
    path = tmp_path / "zenith.dird"
    write_dird(raw, path)
    back = read_dird(path)
    np.testing.assert_array_equal(back.irs, raw.irs)
    assert back.coords == raw.coords


def test_info_escaping_round_trips(tmp_path):
    rng = np.random.default_rng(SEED + 2)
    for info in ("", "plain", "two\nlines", "back\\slash", "mix\\n\n\\\\end"):
        raw = RawIRs(
            info=info,
            irs=rng.standard_normal((1, 4)),
            sample_rate=100.0,
            directions=[(0, 0)],
        )
        path = tmp_path / "info.dird"
        write_dird(raw, path)
        assert read_dird(path).info == info
        lines = path.read_text().split("\n")[:-1]
        assert len(lines) == 6  # escaping keeps the info on one line


@pytest.mark.parametrize("write, read", [(write_dird, read_dird), (write_dirm, read_dirm)])
@pytest.mark.parametrize("info", ["a\rb", "a\r\nb", "\r", "end\r\n\r"])
def test_info_carriage_returns_round_trip(tmp_path, write, read, info):
    # A raw carriage return would end the line for the reader.
    rng = np.random.default_rng(SEED + 8)
    if write is write_dird:
        obj = RawIRs(info, rng.standard_normal((1, 4)), 100.0, [(0, 0)])
    else:
        obj = BasisSpectrumModel(
            info, BasisFamily.COSINE, rng.standard_normal((1, 2)), (1.0, 2.0), [(0, 0)]
        )
    path = tmp_path / "info.dat"
    write(obj, path)
    assert b"\r" not in path.read_bytes()
    assert read(path).info == info


GOLDEN_DIRD = (
    "DIRD 1\n"
    "fs 48000 D 2 L 4 R 1\n"
    "info golden\\\\set\\nline two\n"
    "dist 1\n"
    "dir 0 0\n"
    "dir 90 45\n"
    "ir -0 4.9406564584124654e-324 1e+308 0.10000000000000001\n"
    "ir 1 -2.5 0 -1e-300\n"
)

GOLDEN_DIRM = (
    "DIRM 1\n"
    "family cosine K 2 fmin 0.10000000000000001 fmax 20000 N 3 D 2 R 2\n"
    "info\n"
    "dist 0.5 2\n"
    "bins 0.10000000000000001 1000 20000\n"
    "dir 0 0\n"
    "dir 180 -30\n"
    "coef -0 4.9406564584124654e-324\n"
    "coef 1e+308 0.10000000000000001\n"
    "coef 1 -2.5\n"
    "coef 0 3\n"
)


def test_golden_text(tmp_path):
    # Pins the number spelling: negative zero, the smallest subnormal, the
    # exponent form and the 17 digits that make 0.1 exact.
    raw = RawIRs(
        "golden\\set\nline two",
        [[-0.0, 5e-324, 1e308, 0.1], [1.0, -2.5, 0.0, -1e-300]],
        48000.0,
        [(0.0, 0.0), (90.0, 45.0)],
    )
    model = BasisSpectrumModel(
        "",
        BasisFamily.COSINE,
        [[[-0.0, 1.0], [5e-324, -2.5]], [[1e308, 0.0], [0.1, 3.0]]],
        (0.1, 1000.0, 20000.0),
        [(0.0, 0.0), (180.0, -30.0)],
        (0.5, 2.0),
    )
    write_dird(raw, tmp_path / "golden.dird")
    write_dirm(model, tmp_path / "golden.dirm")
    assert (tmp_path / "golden.dird").read_bytes() == GOLDEN_DIRD.encode()
    assert (tmp_path / "golden.dirm").read_bytes() == GOLDEN_DIRM.encode()


def test_dirm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(SEED + 3)
    model = make_model(rng)
    path = tmp_path / "model.dirm"
    write_dirm(model, path)
    back = read_dirm(path)
    assert back.family is model.family
    assert back.order == model.order
    assert back.source_bins == model.source_bins
    assert back.coords.directions == model.coords.directions
    assert back.coords.distances == model.coords.distances
    assert back.info == model.info
    np.testing.assert_array_equal(back.coefficients, model.coefficients)


def test_dirm_round_trip_evaluates_identically(tmp_path):
    rng = np.random.default_rng(SEED + 4)
    model = make_model(rng)
    path = tmp_path / "model.dirm"
    write_dirm(model, path)
    back = read_dirm(path)
    request = CoordinateSet(
        directions=model.coords.directions,
        frequencies=tuple(np.sort(rng.uniform(50.0, 25000.0, 20))),
        distances=model.coords.distances,
    )
    a = model.get_data_matrix(request, DataType.LOG_MAGNITUDE).values
    b = back.get_data_matrix(request, DataType.LOG_MAGNITUDE).values
    np.testing.assert_array_equal(a, b)


def test_body_rows_take_the_fast_pass(tmp_path, monkeypatch):
    # Only header, distance and bin values go through the per-token parser;
    # a direction, sample or coefficient there means the strict reader read
    # the body.
    rng = np.random.default_rng(SEED + 9)
    write_dird(make_raw(rng), tmp_path / "set.dird")
    write_dirm(make_model(rng), tmp_path / "model.dirm")
    parsed = []
    parse = formats._parse_float
    monkeypatch.setattr(
        formats, "_parse_float", lambda *args: parsed.append(args[3]) or parse(*args)
    )
    read_dird(tmp_path / "set.dird")
    assert parsed == ["fs", "distance", "distance"]
    parsed.clear()
    read_dirm(tmp_path / "model.dirm")
    assert parsed == ["fmin", "fmax"] + ["distance"] * 2 + ["frequency"] * 8


def test_files_end_with_newline_and_use_lf(tmp_path):
    rng = np.random.default_rng(SEED + 5)
    path = tmp_path / "set.dird"
    write_dird(make_raw(rng), path)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    assert b"\r" not in data


# --------------------------------------------------------------------------
# malformed inputs
# --------------------------------------------------------------------------

@pytest.fixture
def dird_lines(tmp_path):
    rng = np.random.default_rng(SEED + 6)
    raw = RawIRs(
        info="corpus",
        irs=rng.standard_normal((2, 4, 2)),
        sample_rate=8000.0,
        directions=[(0.0, 0.0), (90.0, 10.0)],
        distances=(1.0, 2.0),
    )
    path = tmp_path / "valid.dird"
    write_dird(raw, path)
    return path.read_text().split("\n")[:-1]


def _write_lines(tmp_path, lines, name="bad.dird"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _expect_error(tmp_path, lines, expected_line, reader=read_dird, name="bad.dird"):
    path = _write_lines(tmp_path, lines, name)
    with pytest.raises(FormatError) as excinfo:
        reader(path)
    err = excinfo.value
    assert err.path == str(path)
    assert err.line == expected_line
    if expected_line is not None:
        assert f":{expected_line}:" in str(err)
    return err


def test_dird_layout_matches_documented_grammar(dird_lines):
    assert dird_lines[0] == "DIRD 1"
    assert dird_lines[1].startswith("fs ") and " D 2 L 4 R 2" in dird_lines[1]
    assert dird_lines[2] == "info corpus"
    assert dird_lines[3].startswith("dist ")
    assert dird_lines[4].startswith("dir ") and dird_lines[5].startswith("dir ")
    assert all(line.startswith("ir ") for line in dird_lines[6:10])
    assert len(dird_lines) == 10


def test_bad_signature_rejected(tmp_path, dird_lines):
    lines = ["DIRX 1"] + dird_lines[1:]
    _expect_error(tmp_path, lines, 1)


def test_header_with_wrong_token_count_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[1] = "fs 8000 D 2 L 4"
    _expect_error(tmp_path, lines, 2)


def test_header_with_bad_integer_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[1] = "fs 8000 D two L 4 R 2"
    _expect_error(tmp_path, lines, 2)


def test_header_with_implausible_sizes_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[1] = "fs 8000 D 0 L 4 R 2"
    _expect_error(tmp_path, lines, 2)


def test_missing_info_line_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[2] = "note corpus"
    _expect_error(tmp_path, lines, 3)


def test_unknown_escape_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[2] = "info bad\\tescape"
    _expect_error(tmp_path, lines, 3)


def test_dangling_backslash_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[2] = "info bad\\"
    err = _expect_error(tmp_path, lines, 3)
    assert "dangling backslash" in str(err)


def test_distance_count_mismatch_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[3] = "dist 1"
    _expect_error(tmp_path, lines, 4)


def test_bad_sample_value_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    parts = lines[6].split(" ")
    parts[2] = "x"
    lines[6] = " ".join(parts)
    _expect_error(tmp_path, lines, 7)


def test_non_finite_sample_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    parts = lines[6].split(" ")
    parts[1] = "nan"
    lines[6] = " ".join(parts)
    _expect_error(tmp_path, lines, 7)


def test_a_bad_last_row_is_the_only_row_parsed_by_token(tmp_path, dird_lines, monkeypatch):
    # The rows before it are read once, by the row pass; only the failing
    # line goes through the per-token parser, up to its bad token.
    lines = dird_lines.copy()
    parts = lines[-1].split(" ")
    parts[-1] = "x"
    lines[-1] = " ".join(parts)
    seen = []
    parse = formats._parse_float
    monkeypatch.setattr(
        formats, "_parse_float", lambda *args: seen.append(args[1:]) or parse(*args)
    )
    _expect_error(tmp_path, lines, len(lines))
    body = [call for call in seen if call[1] > 4]  # past the distance line
    assert body == [(token, len(lines), "sample") for token in parts[1:]]


def test_short_sample_line_rejected(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[7] = " ".join(lines[7].split(" ")[:-1])
    _expect_error(tmp_path, lines, 8)


def test_oversize_header_meets_the_strict_reader(tmp_path, dird_lines):
    # The rows array would take 8 TB; the text holds 2 samples.
    lines = dird_lines[:5] + ["ir 0 0"]
    lines[1] = "fs 48000 D 1 L 1000000000000 R 1"
    lines[3] = "dist 1"
    err = _expect_error(tmp_path, lines, 6)
    assert "'ir' line carries 2 values, expected 1000000000000" in str(err)


def test_truncated_file_rejected(tmp_path, dird_lines):
    lines = dird_lines[:-1]
    _expect_error(tmp_path, lines, 10)


def test_trailing_content_rejected(tmp_path, dird_lines):
    lines = dird_lines + ["ir 0 0 0 0"]
    _expect_error(tmp_path, lines, 11)


def test_duplicate_directions_rejected_without_line(tmp_path, dird_lines):
    lines = dird_lines.copy()
    lines[5] = lines[4]
    err = _expect_error(tmp_path, lines, None)
    assert "inconsistent contents" in str(err)


@pytest.fixture
def dirm_lines(tmp_path):
    rng = np.random.default_rng(SEED + 7)
    model = BasisSpectrumModel(
        info="corpus model",
        family=BasisFamily.FOURIER,
        coefficients=rng.standard_normal((2, 3, 1)),
        source_bins=(1000.0, 2000.0, 3000.0, 4000.0),
        directions=[(0.0, 0.0), (180.0, 0.0)],
        distances=(1.0,),
    )
    path = tmp_path / "valid.dirm"
    write_dirm(model, path)
    return path.read_text().split("\n")[:-1]


def test_dirm_layout_matches_documented_grammar(dirm_lines):
    assert dirm_lines[0] == "DIRM 1"
    assert dirm_lines[1].startswith("family fourier K 3 fmin 1000 fmax 4000 N 4 D 2 R 1")
    assert dirm_lines[2] == "info corpus model"
    assert dirm_lines[3] == "dist 1"
    assert dirm_lines[4].startswith("bins ")
    assert dirm_lines[5].startswith("dir ") and dirm_lines[6].startswith("dir ")
    assert dirm_lines[7].startswith("coef ") and dirm_lines[8].startswith("coef ")
    assert len(dirm_lines) == 9


def test_dirm_bad_signature_rejected(tmp_path, dirm_lines):
    lines = ["DIRD 1"] + dirm_lines[1:]
    _expect_error(tmp_path, lines, 1, reader=read_dirm, name="bad.dirm")


def test_dirm_unknown_family_rejected(tmp_path, dirm_lines):
    lines = dirm_lines.copy()
    lines[1] = lines[1].replace("family fourier", "family wavelet")
    _expect_error(tmp_path, lines, 2, reader=read_dirm, name="bad.dirm")


def test_dirm_order_above_bin_count_rejected(tmp_path, dirm_lines):
    lines = dirm_lines.copy()
    lines[1] = lines[1].replace("K 3", "K 9")
    _expect_error(tmp_path, lines, 2, reader=read_dirm, name="bad.dirm")


def test_dirm_limit_bin_disagreement_rejected(tmp_path, dirm_lines):
    lines = dirm_lines.copy()
    lines[1] = lines[1].replace("fmin 1000", "fmin 999")
    _expect_error(tmp_path, lines, 5, reader=read_dirm, name="bad.dirm")


def test_dirm_non_ascending_bins_rejected(tmp_path, dirm_lines):
    lines = dirm_lines.copy()
    lines[4] = "bins 1000 3000 2000 4000"
    err = _expect_error(tmp_path, lines, None, reader=read_dirm, name="bad.dirm")
    assert "inconsistent contents" in str(err)


def test_dirm_coefficient_count_mismatch_rejected(tmp_path, dirm_lines):
    lines = dirm_lines.copy()
    lines[7] = lines[7] + " 0.5"
    _expect_error(tmp_path, lines, 8, reader=read_dirm, name="bad.dirm")


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_dird(tmp_path / "absent.dird")
