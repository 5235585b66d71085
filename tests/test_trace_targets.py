"""The benchmark's tracer patches dirkit by name from outside the package;
every name it patches must resolve, or `perfbench/run.py --trace 1` fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import dirkit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _namespace(module_name, owner):
    """The namespace the tracer looks the attribute up in."""
    module = importlib.import_module(f"dirkit.{module_name}")
    return vars(module) if owner is None else vars(vars(module)[owner])


@pytest.mark.parametrize(
    "target", tracing.TARGETS, ids=lambda t: ".".join(filter(None, t[1:4]))
)
def test_target_resolves(target):
    _, module_name, owner, attribute, _ = target
    if owner is not None:
        module = importlib.import_module(f"dirkit.{module_name}")
        assert inspect.isclass(vars(module).get(owner))
    assert callable(_namespace(module_name, owner).get(attribute))


def test_install_records_spans_and_uninstall_restores():
    keys = [target[1:4] for target in tracing.TARGETS]
    originals = [_namespace(m, o)[a] for m, o, a in keys]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        raw = dirkit.synth_test_set(dirkit.SynthSpec(mode="lowpass", azimuth_step=30.0))
        model = dirkit.fit_basis_model("", raw, "fourier", 4)
        dirkit.DirectivityDiff("", raw, model).compute_sd()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("basis.fit_basis_model", "diff.init", "diff.aggregate"):
        assert metrics[f"{name}.self_ms"][0] > 0.0
    assert metrics["basis.fit_basis_model.calls"][0] == 1
    assert [_namespace(m, o)[a] for m, o, a in keys] == originals


def test_direction_queries_count_the_requests_off_the_stored_tuple():
    spec = dirkit.SynthSpec(
        mode="lowpass", azimuth_step=30.0, elevation_step=45.0, elevation_limits=(0.0, 90.0)
    )
    raw = dirkit.synth_test_set(spec)
    stored = raw.coords.directions
    request = dirkit.CoordinateSet(
        directions=[stored[0], (3.0, 4.0), stored[5], (100.5, -12.25), (7.0, -80.0)],
        frequencies=(1000.0,),
        distances=raw.coords.distances,
    )
    own = dirkit.CoordinateSet(
        directions=stored, frequencies=(1000.0,), distances=raw.coords.distances
    )
    # The zenith is stored once per azimuth.
    assert (stored.elevations == 90.0).sum() == 12
    tracer = tracing.Tracer()
    tracer.install()
    try:
        raw.get_data_matrix(request, dirkit.DataType.LOG_MAGNITUDE)
        raw.get_data_matrix(own, dirkit.DataType.LOG_MAGNITUDE)
    finally:
        tracer.uninstall()
    # Every direction of another tuple is searched, stored ones too; a read
    # at the stored tuple searches none, its zenith copies included.
    assert tracer.metrics()["kernels.nearest_direction.queries"][0] == 5
