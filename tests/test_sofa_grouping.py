"""SOFA measurement grouping; runs without h5py."""

import numpy as np
import pytest

from dirkit.errors import SofaError
from dirkit.sofa import _group_by_distance


def test_grouping_wraps_azimuths_like_direction():
    positions = np.array([
        [-90.0, 10.0, 2.0],
        [360.0, 0.0, 2.0],
        [-90.0, 10.0, 1.0],
        [0.0, 0.0, 1.0],
        [-1e-20, 5.0, 1.0],
        [-1e-20, 5.0, 2.0],
    ])
    directions, distances, index = _group_by_distance("set.sofa", positions)
    assert directions == [(270.0, 10.0), (0.0, 0.0), (0.0, 5.0)]
    assert all(type(v) is float for d in directions for v in d)
    np.testing.assert_array_equal(distances, [1.0, 2.0])
    np.testing.assert_array_equal(index, [[2, 0], [3, 1], [4, 5]])


def test_tiny_negative_azimuth_duplicates_zero():
    # -1e-20 % 360 is 360.0 in floating point; wrapped, it is azimuth 0.
    positions = np.array([[-1e-20, 0.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SofaError) as excinfo:
        _group_by_distance("set.sofa", positions)
    assert "duplicate direction (0.0, 0.0) at distance 1.0 (rows 0 and 1)" in str(
        excinfo.value
    )


def test_missing_direction_is_named_in_plain_floats():
    positions = np.array([[0.0, 0.0, 1.0], [90.0, 0.0, 1.0], [0.0, 0.0, 2.0],
                          [180.0, 0.0, 2.0]])
    with pytest.raises(SofaError) as excinfo:
        _group_by_distance("set.sofa", positions)
    assert (
        "direction (90.0, 0.0) present at distance 1.0 but missing at distance 2.0"
        in str(excinfo.value)
    )


def test_a_duplicate_names_its_rows_in_the_file():
    # At 2 m the directions are rows 1, 3 and 4; rows 1 and 4 repeat.
    positions = np.array([[0.0, 0.0, 1.0], [10.0, 0.0, 2.0], [90.0, 0.0, 1.0],
                          [0.0, 0.0, 2.0], [370.0, 0.0, 2.0]])
    with pytest.raises(SofaError) as excinfo:
        _group_by_distance("set.sofa", positions)
    assert "duplicate direction (10.0, 0.0) at distance 2.0 (rows 1 and 4)" in str(
        excinfo.value
    )


def test_an_invalid_direction_is_named_before_a_later_duplicate():
    # Each distance's directions are checked, as a coordinate set checks
    # them, before the repeat scan.
    positions = np.array([[0.0, 0.0, 1.0], [0.0, 95.0, 1.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SofaError) as excinfo:
        _group_by_distance("set.sofa", positions)
    assert "inconsistent contents: elevation 95.0 outside [-90, +90]" in str(excinfo.value)
