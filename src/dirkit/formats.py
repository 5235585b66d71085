"""Plain-text persistence: DIRD for IR sets, DIRM for basis models.

Both formats are UTF-8 with LF line endings and serialize every number
with 17 significant digits, which round-trips binary64 exactly. Readers
are strict: any deviation from the grammar is rejected with the line
number. Layouts:

DIRD:
    DIRD 1
    fs <Hz> D <int> L <int> R <int>
    info <escaped-string>          (newline -> \\n, backslash -> \\\\)
    dist <R distances>
    dir <azimuth> <elevation>      x D
    ir <L samples>                 x D*R, distance slow, direction fast

DIRM:
    DIRM 1
    family <tag> K <int> fmin <Hz> fmax <Hz> N <int> D <int> R <int>
    info <escaped-string>
    dist <R distances>
    bins <N fit-bin frequencies>
    dir <azimuth> <elevation>      x D
    coef <K coefficients>          x D*R, distance slow, direction fast
"""

import math

import numpy as np

from .basis import BasisFamily, BasisSpectrumModel
from .errors import FormatError
from .rawirs import RawIRs


def _fmt(value):
    return format(float(value), ".17g")


def _escape(text):
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape(path, text, line_no):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(text):
            raise FormatError(path, "dangling backslash in info string", line=line_no)
        nxt = text[i + 1]
        if nxt == "n":
            out.append("\n")
        elif nxt == "\\":
            out.append("\\")
        else:
            raise FormatError(path, f"unknown escape \\{nxt} in info string", line=line_no)
        i += 2
    return "".join(out)


class _LineReader:
    def __init__(self, path, text):
        self.path = path
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.lines):
            raise FormatError(
                self.path, f"unexpected end of file, expected {what}", line=self.pos + 1
            )
        line = self.lines[self.pos]
        self.pos += 1
        return line, self.pos

    def finish(self):
        if self.pos != len(self.lines):
            raise FormatError(
                self.path, "content after the final declared row", line=self.pos + 1
            )


def _parse_float(path, token, line_no, what):
    try:
        value = float(token)
    except ValueError:
        raise FormatError(path, f"bad {what} value {token!r}", line=line_no) from None
    if not math.isfinite(value):
        raise FormatError(path, f"non-finite {what} value {token!r}", line=line_no)
    return value


def _parse_int(path, token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise FormatError(path, f"bad {what} count {token!r}", line=line_no) from None


def _values_line(path, line, line_no, keyword, count, what):
    tokens = line.split(" ")
    if tokens[0] != keyword:
        raise FormatError(
            path, f"expected a '{keyword}' line, got {tokens[0]!r}", line=line_no
        )
    values = [_parse_float(path, t, line_no, what) for t in tokens[1:]]
    if len(values) != count:
        raise FormatError(
            path,
            f"'{keyword}' line carries {len(values)} values, expected {count}",
            line=line_no,
        )
    return values


def _header_fields(path, line, line_no, spec):
    """Parse 'key value' pairs laid out per `spec` = ((key, kind), ...)."""
    tokens = line.split(" ")
    if len(tokens) != 2 * len(spec):
        raise FormatError(
            path,
            f"header has {len(tokens)} tokens, expected {2 * len(spec)}",
            line=line_no,
        )
    out = {}
    for i, (key, kind) in enumerate(spec):
        if tokens[2 * i] != key:
            raise FormatError(
                path, f"expected header field '{key}', got {tokens[2 * i]!r}", line=line_no
            )
        raw = tokens[2 * i + 1]
        if kind == "int":
            out[key] = _parse_int(path, raw, line_no, key)
        elif kind == "float":
            out[key] = _parse_float(path, raw, line_no, key)
        else:
            out[key] = raw
    return out


def _info_line(path, line, line_no):
    if line == "info":
        return ""
    if not line.startswith("info "):
        raise FormatError(path, "expected an 'info' line", line=line_no)
    return _unescape(path, line[len("info "):], line_no)


def _write_info(handle, info):
    escaped = _escape(info)
    handle.write(f"info {escaped}\n" if escaped else "info\n")


def _wrap_build_error(path, builder):
    try:
        return builder()
    except ValueError as exc:
        raise FormatError(path, f"inconsistent contents: {exc}") from exc


# --------------------------------------------------------------------------
# DIRD
# --------------------------------------------------------------------------

def write_dird(raw, path):
    """Serialize a RawIRs object; see the module docstring for the layout.

    Every stored response is written as given, including those of
    directions that coincide on the sphere (such as the zenith at
    several azimuths).
    """
    coords = raw.coords
    d_count, _, r_count = coords.shape
    length = raw.ir_length
    irs = raw.irs
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("DIRD 1\n")
        handle.write(
            f"fs {_fmt(raw.sample_rate)} D {d_count} L {length} R {r_count}\n"
        )
        _write_info(handle, raw.info)
        handle.write("dist " + " ".join(_fmt(v) for v in coords.distances) + "\n")
        for direction in coords.directions:
            handle.write(f"dir {_fmt(direction.azimuth)} {_fmt(direction.elevation)}\n")
        for r in range(r_count):
            for d in range(d_count):
                handle.write("ir " + " ".join(_fmt(v) for v in irs[d, :, r]) + "\n")


def read_dird(path):
    """Parse a DIRD file back into a RawIRs object."""
    with open(path, "r", encoding="utf-8") as handle:
        reader = _LineReader(path, handle.read())

    line, no = reader.next("the 'DIRD 1' signature")
    if line != "DIRD 1":
        raise FormatError(path, f"bad signature {line!r}, expected 'DIRD 1'", line=no)
    line, no = reader.next("the header line")
    header = _header_fields(
        path, line, no, (("fs", "float"), ("D", "int"), ("L", "int"), ("R", "int"))
    )
    d_count, length, r_count = header["D"], header["L"], header["R"]
    if d_count < 1 or length < 2 or r_count < 1:
        raise FormatError(
            path, f"implausible sizes D={d_count} L={length} R={r_count}", line=no
        )
    line, no = reader.next("the info line")
    info = _info_line(path, line, no)
    line, no = reader.next("the distance line")
    distances = _values_line(path, line, no, "dist", r_count, "distance")

    directions = []
    for _ in range(d_count):
        line, no = reader.next("a direction line")
        directions.append(tuple(_values_line(path, line, no, "dir", 2, "angle")))
    irs = np.empty((d_count, length, r_count))
    for r in range(r_count):
        for d in range(d_count):
            line, no = reader.next("an impulse-response line")
            irs[d, :, r] = _values_line(path, line, no, "ir", length, "sample")
    reader.finish()
    return _wrap_build_error(
        path, lambda: RawIRs(info, irs, header["fs"], directions, distances)
    )


# --------------------------------------------------------------------------
# DIRM
# --------------------------------------------------------------------------

def write_dirm(model, path):
    """Serialize a BasisSpectrumModel; see the module docstring for the layout."""
    coords = model.coords
    d_count = len(coords.directions)
    r_count = len(coords.distances)
    bins = model.source_bins
    coef = model.coefficients
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("DIRM 1\n")
        handle.write(
            f"family {model.family.value} K {model.order} "
            f"fmin {_fmt(bins[0])} fmax {_fmt(bins[-1])} "
            f"N {len(bins)} D {d_count} R {r_count}\n"
        )
        _write_info(handle, model.info)
        handle.write("dist " + " ".join(_fmt(v) for v in coords.distances) + "\n")
        handle.write("bins " + " ".join(_fmt(v) for v in bins) + "\n")
        for direction in coords.directions:
            handle.write(f"dir {_fmt(direction.azimuth)} {_fmt(direction.elevation)}\n")
        for r in range(r_count):
            for d in range(d_count):
                handle.write("coef " + " ".join(_fmt(v) for v in coef[d, :, r]) + "\n")


def read_dirm(path):
    """Parse a DIRM file back into a BasisSpectrumModel."""
    with open(path, "r", encoding="utf-8") as handle:
        reader = _LineReader(path, handle.read())

    line, no = reader.next("the 'DIRM 1' signature")
    if line != "DIRM 1":
        raise FormatError(path, f"bad signature {line!r}, expected 'DIRM 1'", line=no)
    line, no = reader.next("the header line")
    header = _header_fields(
        path,
        line,
        no,
        (
            ("family", "str"),
            ("K", "int"),
            ("fmin", "float"),
            ("fmax", "float"),
            ("N", "int"),
            ("D", "int"),
            ("R", "int"),
        ),
    )
    try:
        family = BasisFamily.parse(header["family"])
    except ValueError as exc:
        raise FormatError(path, str(exc), line=no) from None
    order, n_bins = header["K"], header["N"]
    d_count, r_count = header["D"], header["R"]
    if d_count < 1 or r_count < 1 or n_bins < 1 or not 1 <= order <= n_bins:
        raise FormatError(
            path,
            f"implausible sizes K={order} N={n_bins} D={d_count} R={r_count}",
            line=no,
        )
    line, no = reader.next("the info line")
    info = _info_line(path, line, no)
    line, no = reader.next("the distance line")
    distances = _values_line(path, line, no, "dist", r_count, "distance")
    line, no = reader.next("the bins line")
    bins = _values_line(path, line, no, "bins", n_bins, "frequency")
    if bins[0] != header["fmin"] or bins[-1] != header["fmax"]:
        raise FormatError(
            path,
            f"frequency limits ({header['fmin']}, {header['fmax']}) disagree with "
            f"the bin list ({bins[0]}, {bins[-1]})",
            line=no,
        )

    directions = []
    for _ in range(d_count):
        line, no = reader.next("a direction line")
        directions.append(tuple(_values_line(path, line, no, "dir", 2, "angle")))
    coef = np.empty((d_count, order, r_count))
    for r in range(r_count):
        for d in range(d_count):
            line, no = reader.next("a coefficient line")
            coef[d, :, r] = _values_line(path, line, no, "coef", order, "coefficient")
    reader.finish()
    return _wrap_build_error(
        path,
        lambda: BasisSpectrumModel(info, family, coef, bins, directions, distances),
    )
