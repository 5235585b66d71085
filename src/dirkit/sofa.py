"""SOFA ingestion: SimpleFreeFieldHRIR containers to RawIRs objects.

Read-only and deliberately narrow: only the SimpleFreeFieldHRIR
convention with the default units (source positions in degree, degree,
metre; sampling rate in hertz) is accepted, anything else is rejected
naming the offending item. Measurements are grouped by distance, in
ascending order; each distance's directions are checked and wrapped as
a coordinate set's are, then searched for a repeat, which is named with
its two rows in the file. Every distance must hold the same directions.
One RawIRs per receiver is returned. The h5py dependency is imported
lazily so the rest of the package works without it.
"""

import numpy as np

from .coords import _as_directions
from .errors import SofaError
from .rawirs import RawIRs

_CONVENTION = "SimpleFreeFieldHRIR"


def _text(value):
    if isinstance(value, bytes):
        return value.decode("utf-8", "replace")
    if isinstance(value, np.ndarray):
        if value.size != 1:
            return " ".join(_text(v) for v in value.ravel())
        return _text(value.ravel()[0])
    return str(value)


def _attr(node, name):
    if name not in node.attrs:
        return None
    return _text(node.attrs[name])


def _unit_list(units):
    return [part.strip().lower() for part in units.split(",")]


def _require_position_units(path, units):
    if units is None:
        raise SofaError(path, "SourcePosition has no Units attribute")
    parts = _unit_list(units)
    expected = ("degree", "degree", ("metre", "meter"))
    if len(parts) != 3:
        raise SofaError(path, f"SourcePosition units {units!r} are not a triple")
    for got, want in zip(parts, expected):
        allowed = (want,) if isinstance(want, str) else want
        if got not in allowed:
            raise SofaError(
                path,
                f"unsupported SourcePosition unit {got!r} (expected {allowed[0]!r})",
            )


def _sampling_rate(path, handle):
    if "Data.SamplingRate" not in handle:
        raise SofaError(path, "missing mandatory variable Data.SamplingRate")
    node = handle["Data.SamplingRate"]
    units = _attr(node, "Units")
    if units is not None and units.strip().lower() != "hertz":
        raise SofaError(path, f"unsupported sampling-rate unit {units!r}")
    rates = np.asarray(node[()], dtype=np.float64).ravel()
    if rates.size == 0:
        raise SofaError(path, "Data.SamplingRate is empty")
    if not np.all(rates == rates[0]):
        raise SofaError(path, "Data.SamplingRate varies across measurements")
    return float(rates[0])


def _source_positions(path, handle, measurement_count):
    if "SourcePosition" not in handle:
        raise SofaError(path, "missing mandatory variable SourcePosition")
    node = handle["SourcePosition"]
    pos_type = _attr(node, "Type")
    if pos_type is None or pos_type.strip().lower() != "spherical":
        raise SofaError(
            path, f"unsupported SourcePosition type {pos_type!r} (expected spherical)"
        )
    _require_position_units(path, _attr(node, "Units"))
    positions = np.asarray(node[()], dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise SofaError(
            path, f"SourcePosition shape {positions.shape} is not (measurements, 3)"
        )
    if positions.shape[0] != measurement_count:
        raise SofaError(
            path,
            f"SourcePosition rows ({positions.shape[0]}) disagree with Data.IR "
            f"measurements ({measurement_count})",
        )
    return positions


def _group_by_distance(path, positions):
    """Split measurement rows by distance; returns (directions, distances,
    row-index array of shape (D, R)). Each distance's directions are
    checked and wrapped as a coordinate set's are, and must not repeat."""
    distances = positions[:, 2]
    unique_dists = np.unique(distances)
    if np.any(unique_dists <= 0):
        raise SofaError(path, f"non-positive source distance {unique_dists.min()}")

    groups = []
    for dist in unique_dists:
        rows = np.flatnonzero(distances == dist)
        try:
            dirs = _as_directions(positions[rows, :2])
        except ValueError as exc:
            raise SofaError(path, f"inconsistent contents: {exc}") from exc
        if dirs.first_repeat is not None:
            i, j = dirs.first_repeat
            raise SofaError(
                path,
                f"duplicate direction {tuple(dirs.pairs[j].tolist())} at distance "
                f"{dist} (rows {rows[i]} and {rows[j]})",
            )
        # Row of each direction, keyed on its wrapped pair, to align distances.
        groups.append(dict(zip(map(tuple, dirs.pairs.tolist()), rows.tolist())))

    canonical = list(groups[0].keys())
    index = np.empty((len(canonical), len(unique_dists)), dtype=np.int64)
    for r, table in enumerate(groups):
        if len(table) != len(canonical):
            raise SofaError(
                path,
                f"direction grids differ across distances ({len(table)} vs "
                f"{len(canonical)} directions)",
            )
        for d, key in enumerate(canonical):
            if key not in table:
                raise SofaError(
                    path,
                    f"direction {key} present at distance {unique_dists[0]} but "
                    f"missing at distance {unique_dists[r]}",
                )
            index[d, r] = table[key]
    return canonical, unique_dists, index


def _read_container(path, handle):
    """RawIRs per receiver from an open container: a mapping of variables
    whose nodes carry an `attrs` mapping, as an h5py File does."""
    convention = _attr(handle, "SOFAConventions")
    if convention != _CONVENTION:
        raise SofaError(
            path, f"unsupported convention {convention!r} (expected {_CONVENTION!r})"
        )
    if "Data.IR" not in handle:
        raise SofaError(path, "missing mandatory variable Data.IR")
    irs = np.asarray(handle["Data.IR"][()], dtype=np.float64)
    if irs.ndim != 3:
        raise SofaError(
            path, f"Data.IR shape {irs.shape} is not (measurements, receivers, samples)"
        )
    measurement_count, receiver_count, length = irs.shape
    if length < 2:
        raise SofaError(path, f"impulse responses of length {length} are too short")
    rate = _sampling_rate(path, handle)
    positions = _source_positions(path, handle, measurement_count)
    title = _attr(handle, "Title") or _attr(handle, "DatabaseName") or path

    directions, unique_dists, index = _group_by_distance(path, positions)

    out = []
    for receiver in range(receiver_count):
        stack = irs[:, receiver, :]
        volume = stack[index.ravel()].reshape(len(directions), len(unique_dists), length)
        volume = np.swapaxes(volume, 1, 2)
        info = f"{title} (receiver {receiver})"
        try:
            out.append(RawIRs(info, volume, rate, directions, tuple(unique_dists)))
        except ValueError as exc:
            raise SofaError(path, f"inconsistent contents: {exc}") from exc
    return out


def load_sofa(path):
    """Load a SimpleFreeFieldHRIR file; returns one RawIRs per receiver."""
    try:
        import h5py
    except ImportError:
        raise ImportError(
            "reading SOFA files requires the optional h5py dependency; "
            "install this package with the 'sofa' extra"
        ) from None

    path = str(path)
    try:
        handle = h5py.File(path, "r")
    except OSError as exc:
        raise SofaError(path, f"not a readable HDF5 container ({exc})") from exc
    with handle:
        return _read_container(path, handle)
