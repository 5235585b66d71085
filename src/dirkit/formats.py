"""Plain-text persistence: DIRD for IR sets, DIRM for basis models.

Both formats are UTF-8 with LF line endings and serialize every number
with 17 significant digits, which round-trips binary64 exactly. Readers
are strict: any deviation from the grammar is rejected with the line
number. The `dir` lines and the `ir`/`coef` rows are read in one pass:
it splits each line at single spaces, parses the values with `float`
and checks finiteness once at the end. On a bad body, only the first
failing line in file order is read again, token by token, to name the
error. Layouts:

DIRD:
    DIRD 1
    fs <Hz> D <int> L <int> R <int>
    info <escaped-string>          (newline -> \\n, carriage return -> \\r,
                                    backslash -> \\\\)
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

import itertools
import math
import re

import numpy as np

from .basis import BasisFamily, BasisSpectrumModel
from .errors import FormatError
from .rawirs import RawIRs

# Header layouts as ((key, kind), ...) in file order; the writers and the
# readers both work from these.
_DIRD_HEADER = (("fs", float), ("D", int), ("L", int), ("R", int))
_DIRM_HEADER = (
    ("family", str), ("K", int), ("fmin", float), ("fmax", float),
    ("N", int), ("D", int), ("R", int),
)

# Escapes that keep an info string on its one line.
_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {code[1]: chr(char) for char, code in _ESCAPES.items()}


def _fmt(value):
    return format(float(value), ".17g")


def _line(keyword, values):
    """A numeric line: `keyword`, then every value to 17 significant digits."""
    return f"{keyword}{' %.17g' * len(values) % tuple(values)}\n"


def _escape(text):
    return text.translate(_ESCAPES)


def _unescape(path, text, line_no):
    def replace(match):
        code = match.group(1)
        if code not in _UNESCAPES:
            what = f"unknown escape \\{code}" if code else "dangling backslash"
            raise FormatError(path, f"{what} in info string", line=line_no)
        return _UNESCAPES[code]

    return re.sub(r"\\(.?)", replace, text)


class _LineReader:
    def __init__(self, path, text):
        self.path = path
        self.chars = len(text)
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

    def info(self):
        line, no = self.next("the info line")
        if line == "info":
            return ""
        if not line.startswith("info "):
            raise FormatError(self.path, "expected an 'info' line", line=no)
        return _unescape(self.path, line[len("info "):], no)

    def values(self, expected, keyword, count, what):
        """Read the `expected` line: `keyword`, then `count` finite `what` values."""
        line, no = self.next(expected)
        tokens = line.split(" ")
        if tokens[0] != keyword:
            raise FormatError(
                self.path, f"expected a '{keyword}' line, got {tokens[0]!r}", line=no
            )
        values = [_parse_float(self.path, t, no, what) for t in tokens[1:]]
        if len(values) != count:
            raise FormatError(
                self.path,
                f"'{keyword}' line carries {len(values)} values, expected {count}",
                line=no,
            )
        return values

    def rows(self, count, planes, expected, keyword, width, what):
        """Read `planes` * `count` `expected` lines, plane slow and row fast,
        into a new (count, width, planes) array in one pass, as the module
        docstring says; at the first line that fails, `values` reads it and
        raises. The array is made only if the text can hold its values, at
        two or more characters each (a space and a digit), so an oversize
        header meets the error of `values`, not an allocation."""
        n = count * planes
        if 2 * n * width <= self.chars:
            out = np.empty((count, width, planes))
            # Rows and lines are iterated, not listed: the heap holes such
            # lists leave between a command's reads raised its later peaks
            # by up to 8 MB.
            rows = (row for plane in out.transpose(2, 0, 1) for row in plane)
            done = 0
            try:
                for row, line in zip(rows, itertools.islice(self.lines, self.pos, None)):
                    tokens = line.split(" ")
                    if tokens[0] != keyword or len(tokens) != width + 1:
                        break
                    row[:] = list(map(float, tokens[1:]))
                    done += 1
            except ValueError:
                pass
            if done == n and np.isfinite(out).all():
                self.pos += n
                return out
            # The first failing line: an earlier row with a non-finite
            # value, else the line the pass stopped at.
            finite = np.isfinite(out).all(axis=1).T.ravel()[:done]
            self.pos += int(np.argmin(np.append(finite, False)))
        while True:
            self.values(expected, keyword, width, what)

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
        if kind is int:
            out[key] = _parse_int(path, raw, line_no, key)
        elif kind is float:
            out[key] = _parse_float(path, raw, line_no, key)
        else:
            out[key] = raw
    return out


def _read_preamble(path, signature, spec):
    """Check the signature and parse the header per `spec`; returns the
    line reader, the header fields and the header's line number."""
    with open(path, "r", encoding="utf-8") as handle:
        reader = _LineReader(path, handle.read())
    line, no = reader.next(f"the {signature!r} signature")
    if line != signature:
        raise FormatError(path, f"bad signature {line!r}, expected {signature!r}", line=no)
    line, no = reader.next("the header line")
    return reader, _header_fields(path, line, no, spec), no


def _read_body(reader, d_count, r_count, expected, keyword, width, what):
    """Read D direction lines, then D*R `keyword` rows of `width` values
    (distance slow, direction fast) that end the file, as a (D, width, R) array."""
    directions = reader.rows(d_count, 1, "a direction line", "dir", 2, "angle")
    rows = reader.rows(d_count, r_count, expected, keyword, width, what)
    reader.finish()
    return directions[:, :, 0], rows


def _write_preamble(handle, signature, spec, header, info):
    """Write the signature, the header per `spec` from the `header` dict,
    and the escaped info line."""
    fields = (
        f"{key} {_fmt(header[key]) if kind is float else header[key]}" for key, kind in spec
    )
    escaped = _escape(info)
    handle.write(f"{signature}\n{' '.join(fields)}\n")
    handle.write(f"info {escaped}\n" if escaped else "info\n")


def _write_body(handle, directions, keyword, rows):
    """Write the direction lines, then the (D, W, R) `rows` as D*R `keyword`
    lines (distance slow, direction fast)."""
    handle.writelines(_line("dir", pair) for pair in directions.pairs.tolist())
    for r in range(rows.shape[2]):
        for d in range(rows.shape[0]):
            handle.write(_line(keyword, rows[d, :, r].tolist()))


def _build(path, cls, *args):
    try:
        return cls(*args)
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
    header = {"fs": raw.sample_rate, "D": d_count, "L": raw.ir_length, "R": r_count}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_preamble(handle, "DIRD 1", _DIRD_HEADER, header, raw.info)
        handle.write(_line("dist", coords.distances))
        _write_body(handle, coords.directions, "ir", raw.irs)


def read_dird(path):
    """Parse a DIRD file back into a RawIRs object."""
    reader, header, no = _read_preamble(path, "DIRD 1", _DIRD_HEADER)
    d_count, length, r_count = header["D"], header["L"], header["R"]
    if d_count < 1 or length < 2 or r_count < 1:
        raise FormatError(
            path, f"implausible sizes D={d_count} L={length} R={r_count}", line=no
        )
    info = reader.info()
    distances = reader.values("the distance line", "dist", r_count, "distance")
    directions, irs = _read_body(
        reader, d_count, r_count, "an impulse-response line", "ir", length, "sample"
    )
    irs.setflags(write=False)  # handed over to the set, not copied
    return _build(path, RawIRs, info, irs, header["fs"], directions, distances)


# --------------------------------------------------------------------------
# DIRM
# --------------------------------------------------------------------------

def write_dirm(model, path):
    """Serialize a BasisSpectrumModel; see the module docstring for the layout."""
    coords = model.coords
    bins = model.source_bins
    header = {"family": model.family.value, "K": model.order, "fmin": bins[0],
              "fmax": bins[-1], "N": len(bins), "D": len(coords.directions),
              "R": len(coords.distances)}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_preamble(handle, "DIRM 1", _DIRM_HEADER, header, model.info)
        handle.write(_line("dist", coords.distances))
        handle.write(_line("bins", bins))
        _write_body(handle, coords.directions, "coef", model.coefficients)


def read_dirm(path):
    """Parse a DIRM file back into a BasisSpectrumModel."""
    reader, header, no = _read_preamble(path, "DIRM 1", _DIRM_HEADER)
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
    info = reader.info()
    distances = reader.values("the distance line", "dist", r_count, "distance")
    bins = reader.values("the bins line", "bins", n_bins, "frequency")
    if bins[0] != header["fmin"] or bins[-1] != header["fmax"]:
        raise FormatError(
            path,
            f"frequency limits ({header['fmin']}, {header['fmax']}) disagree with "
            f"the bin list ({bins[0]}, {bins[-1]})",
            line=reader.pos,  # the bins line, just read
        )
    directions, coef = _read_body(
        reader, d_count, r_count, "a coefficient line", "coef", order, "coefficient"
    )
    return _build(
        path, BasisSpectrumModel, info, family, coef, bins, directions, distances
    )
