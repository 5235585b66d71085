"""SOFA container checks on an in-memory stand-in for an h5py File.

`sofa._read_container` reads a mapping of variables whose nodes carry an
`attrs` mapping, so these tests run without h5py.
"""

import numpy as np
import pytest

from dirkit import RawIRs
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
    return Group(variables, _attrs(SOFAConventions=convention, Title=title))


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
