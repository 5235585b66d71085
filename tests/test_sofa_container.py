"""SOFA container checks on an in-memory stand-in for an h5py File.

`sofa._read_container` reads a mapping of variables whose nodes carry an
`attrs` mapping, so these tests run without h5py.
"""

import numpy as np
import pytest

from dirkit import RawIRs, read_dird, write_dird
from dirkit.errors import SofaError
from dirkit.sofa import _read_container

PATH = "set.sofa"


class Group(dict):
    """Named variables plus an attribute mapping, like an h5py File."""

    def __init__(self, variables, attrs):
        super().__init__(variables)
        self.attrs = attrs


class Dataset:
    """An array variable with an attribute mapping; `node[()]` reads it."""

    def __init__(self, data, attrs):
        self._data = np.asarray(data)
        self.attrs = attrs

    def __getitem__(self, key):
        return self._data[key]


def _attrs(**items):
    """An attribute mapping without the items given as None."""
    return {name: value for name, value in items.items() if value is not None}


def container(
    irs,
    positions,
    *,
    rate=48000.0,
    convention="SimpleFreeFieldHRIR",
    rate_units="hertz",
    skip_rate=False,
    pos_type="spherical",
    pos_units="degree, degree, metre",
    title="synthetic set",
    database=None,
):
    """The variables and attributes a SimpleFreeFieldHRIR file holds; an
    attribute given as None is left out."""
    variables = {
        "Data.IR": Dataset(np.asarray(irs, dtype=np.float64), {}),
        "SourcePosition": Dataset(
            np.asarray(positions, dtype=np.float64),
            _attrs(Type=pos_type, Units=pos_units),
        ),
    }
    if not skip_rate:
        variables["Data.SamplingRate"] = Dataset(
            np.atleast_1d(np.asarray(rate, dtype=np.float64)), _attrs(Units=rate_units)
        )
    return Group(
        variables, _attrs(SOFAConventions=convention, Title=title, DatabaseName=database)
    )


def _valid():
    return {
        "irs": np.ones((2, 1, 4)),
        "positions": [(0.0, 0.0, 1.0), (90.0, 0.0, 1.0)],
    }


def test_one_rawirs_per_receiver():
    rng = np.random.default_rng(20240819)
    irs = rng.normal(size=(3, 2, 8))
    positions = [(0.0, 0.0, 1.0), (90.0, 0.0, 1.0), (-90.0, 30.0, 1.0)]
    loaded = _read_container(PATH, container(irs, positions))
    assert len(loaded) == 2
    for receiver, raw in enumerate(loaded):
        assert isinstance(raw, RawIRs)
        assert raw.info == f"synthetic set (receiver {receiver})"
        assert raw.sample_rate == 48000.0
        dirs = [(d.azimuth, d.elevation) for d in raw.coords.directions]
        assert dirs == [(0.0, 0.0), (90.0, 0.0), (270.0, 30.0)]
        np.testing.assert_array_equal(raw.irs[:, :, 0], irs[:, receiver, :])


def test_negative_azimuth_wraps():
    (raw,) = _read_container(PATH, container(np.ones((1, 1, 4)), [(-10.0, -5.0, 2.5)]))
    assert raw.coords.directions[0].azimuth == 350.0
    assert raw.coords.directions[0].elevation == -5.0
    assert raw.coords.distances == (2.5,)


def test_multi_distance_rows_are_factored_into_one_grid():
    irs = np.random.default_rng(20240820).normal(size=(4, 1, 4))
    # Rows interleave the two distances.
    positions = [(0.0, 0.0, 2.0), (90.0, 0.0, 1.0), (0.0, 0.0, 1.0), (90.0, 0.0, 2.0)]
    (raw,) = _read_container(PATH, container(irs, positions))
    assert raw.coords.distances == (1.0, 2.0)
    dirs = [(d.azimuth, d.elevation) for d in raw.coords.directions]
    assert dirs == [(90.0, 0.0), (0.0, 0.0)]
    # (90, 0) was measured in rows 1 (1 m) and 3 (2 m), (0, 0) in rows 2 and 0.
    for (d, r), row in {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 0}.items():
        np.testing.assert_array_equal(raw.irs[d, :, r], irs[row, 0, :])


def test_database_name_is_the_title_fallback():
    handle = container(title=None, database="measurement db", **_valid())
    assert _read_container(PATH, handle)[0].info == "measurement db (receiver 0)"


def test_round_trip_through_dird(tmp_path):
    irs = np.random.default_rng(20240821).normal(size=(3, 2, 16))
    positions = [(0.0, 0.0, 1.0), (120.0, 15.0, 1.0), (240.0, -15.0, 1.0)]
    raw = _read_container(PATH, container(irs, positions, rate=44100.0))[1]
    write_dird(raw, tmp_path / "receiver1.dird")
    again = read_dird(tmp_path / "receiver1.dird")
    assert again.sample_rate == 44100.0
    assert again.coords.directions == raw.coords.directions
    np.testing.assert_array_equal(again.irs, raw.irs)


def test_bytes_and_mixed_case_attributes_are_accepted():
    handle = container(
        convention=np.bytes_(b"SimpleFreeFieldHRIR"),
        title=b"byte titled",
        rate_units="Hertz",
        pos_type="Spherical",
        pos_units="Degree, Degree, Meter",
        **_valid(),
    )
    raw = _read_container(PATH, handle)[0]
    assert raw.info == "byte titled (receiver 0)"


REJECTED = {
    "convention": (
        {"convention": "GeneralFIR"}, "unsupported convention 'GeneralFIR'"),
    "no convention": ({"convention": None}, "unsupported convention None"),
    "cartesian positions": (
        {"pos_type": "cartesian"}, "unsupported SourcePosition type 'cartesian'"),
    "no position type": ({"pos_type": None}, "unsupported SourcePosition type None"),
    "radian positions": (
        {"pos_units": "radian, radian, metre"},
        "unsupported SourcePosition unit 'radian'"),
    "position unit pair": (
        {"pos_units": "degree, degree"}, "are not a triple"),
    "no position units": ({"pos_units": None}, "SourcePosition has no Units"),
    "no sampling rate": (
        {"skip_rate": True}, "missing mandatory variable Data.SamplingRate"),
    "rate unit": (
        {"rate_units": "kilohertz"}, "unsupported sampling-rate unit 'kilohertz'"),
    "varying rate": ({"rate": (44100.0, 48000.0)}, "Data.SamplingRate varies"),
    "empty rate": ({"rate": np.zeros(0)}, "Data.SamplingRate is empty"),
    "tiny rate": (
        {"rate": 5e-324}, "inconsistent contents: sample rate 5e-324 Hz"),
    "flat IR array": (
        {"irs": np.ones((2, 4))}, r"Data.IR shape \(2, 4\) is not"),
    "single-sample IRs": (
        {"irs": np.ones((2, 1, 1))}, "length 1 are too short"),
    "position rows": (
        {"irs": np.ones((3, 1, 4))},
        r"SourcePosition rows \(2\) disagree with Data.IR measurements \(3\)"),
    "position columns": (
        {"positions": [(0.0, 0.0), (90.0, 0.0)]},
        r"SourcePosition shape \(2, 2\) is not"),
    "duplicate directions": (
        {"positions": [(0.0, 0.0, 1.0), (360.0, 0.0, 1.0)]}, "duplicate direction"),
    "elevation above the zenith": (
        {"positions": [(0.0, 95.0, 1.0), (90.0, 0.0, 1.0)]},
        r"inconsistent contents: elevation 95.0 outside \[-90, \+90\]"),
    "nan azimuth": (
        {"positions": [(np.nan, 0.0, 1.0), (90.0, 0.0, 1.0)]},
        r"inconsistent contents: direction \(nan, 0.0\) has non-finite components"),
    "non-positive distance": (
        {"positions": [(0.0, 0.0, 0.0), (90.0, 0.0, 1.0)]},
        "non-positive source distance"),
    "unequal grids across distances": (
        {"irs": np.ones((3, 1, 4)),
         "positions": [(0.0, 0.0, 1.0), (90.0, 0.0, 1.0), (0.0, 0.0, 2.0)]},
        "direction grids differ across distances"),
    "mismatched directions across distances": (
        {"irs": np.ones((4, 1, 4)),
         "positions": [(0.0, 0.0, 1.0), (90.0, 0.0, 1.0), (0.0, 0.0, 2.0), (45.0, 0.0, 2.0)]},
        "missing at distance"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejections_name_the_item(case):
    overrides, match = REJECTED[case]
    handle = container(**{**_valid(), **overrides})
    with pytest.raises(SofaError, match=match) as excinfo:
        _read_container(PATH, handle)
    assert excinfo.value.path == PATH


def test_missing_impulse_responses_are_rejected():
    handle = container(**_valid())
    del handle["Data.IR"]
    with pytest.raises(SofaError, match="missing mandatory variable Data.IR"):
        _read_container(PATH, handle)


def test_missing_positions_are_rejected():
    handle = container(**_valid())
    del handle["SourcePosition"]
    with pytest.raises(SofaError, match="missing mandatory variable SourcePosition"):
        _read_container(PATH, handle)
