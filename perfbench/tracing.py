"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each traced dirkit function or method with a
wrapper that records a span around the call. A function bound into other
modules by ``from .x import f`` is replaced in every dirkit module that
holds it, so the wrapper runs whichever name a caller looks up. Methods
are replaced on their class. `uninstall` puts the originals back.

A span's self time is its duration minus the durations of the spans
opened inside it, so nested layers are not counted twice.
"""

import functools
import os
import sys
import time
from collections import defaultdict


def _queries(position):
    return lambda args, kwargs, result: len(args[position])


def _coordinate_directions(args, kwargs, result):
    coords = args[0]
    return 0 if coords.continuity.direction else len(coords.directions)


def _file_mb(position):
    return lambda args, kwargs, result: os.path.getsize(args[position]) / 1e6


def _one(args, kwargs, result):
    return 1


# (span name, module, owner, attribute, {counter name: counter}).
# `owner` is None for a module-level function, else a class in `module`.
TARGETS = (
    ("kernels.nearest_direction", "kernels", None, "nearest_direction",
     {"kernels.nearest_direction.queries": _queries(2)}),
    ("kernels.nearest_value", "kernels", None, "nearest_value",
     {"kernels.nearest_value.queries": _queries(1)}),
    ("kernels.basis", "kernels", None, "fourier_basis", {}),
    ("kernels.basis", "kernels", None, "cosine_basis", {}),
    ("coords.CoordinateSet", "coords", "CoordinateSet", "__post_init__",
     {"coords.CoordinateSet.directions": _coordinate_directions}),
    ("coords.coerce", "coords", None, "coerce", {}),
    ("coords.discrete_read_indices", "coords", None, "discrete_read_indices", {}),
    ("core.spectrum_series", "core", "Directivity", "spectrum_series", {}),
    ("core.balloon_grid", "core", "Directivity", "balloon_grid", {}),
    ("rawirs.init", "rawirs", "RawIRs", "__init__", {}),
    ("rawirs.get_data_matrix", "rawirs", "RawIRs", "get_data_matrix", {}),
    ("basis.fit_basis_model", "basis", None, "fit_basis_model",
     {"basis.fit_basis_model.calls": _one}),
    ("basis.get_data_matrix", "basis", "BasisSpectrumModel", "get_data_matrix", {}),
    ("diff.init", "diff", "DirectivityDiff", "__init__", {}),
    ("diff.aggregate", "diff", "DirectivityDiff", "compute_sd", {}),
    ("diff.aggregate", "diff", "DirectivityDiff", "compute_mse", {}),
    ("diff.aggregate", "diff", "DirectivityDiff", "error_vs_frequency", {}),
    ("diff.aggregate", "diff", "DirectivityDiff", "error_horizontal", {}),
    ("diff.get_data_matrix", "diff", "DirectivityDiff", "get_data_matrix", {}),
    ("formats.read_dird", "formats", None, "read_dird", {"formats.read_mb": _file_mb(0)}),
    ("formats.write_dird", "formats", None, "write_dird",
     {"formats.written_mb": _file_mb(1)}),
    ("formats.read_dirm", "formats", None, "read_dirm", {"formats.read_mb": _file_mb(0)}),
    ("formats.write_dirm", "formats", None, "write_dirm",
     {"formats.written_mb": _file_mb(1)}),
    ("synth.synth_test_set", "synth", None, "synth_test_set", {}),
    ("viz.write", "viz", None, "write_csv", {}),
    ("viz.write", "viz", None, "series_csv", {}),
    ("viz.write", "viz", None, "line_plot_svg", {}),
    ("viz.write", "viz", None, "polar_plot_svg", {}),
    ("viz.write", "viz", None, "write_wav", {}),
)

SPAN_NAMES = tuple(dict.fromkeys(target[0] for target in TARGETS))
COUNTER_NAMES = tuple(
    dict.fromkeys(name for target in TARGETS for name in target[4])
)


class Tracer:
    """Accumulates self time per span name and counters, in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._child_s = []
        self._undo = []

    def _wrap(self, name, fn, counters):
        child_s = self._child_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = child_s.pop()
                self.self_s[name] += elapsed - nested
                if child_s:
                    child_s[-1] += elapsed
            for counter, count in counters.items():
                self.counts[counter] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        packages = [
            module for key, module in sorted(sys.modules.items())
            if key == "dirkit" or key.startswith("dirkit.")
        ]
        for name, module_name, owner, attribute, counters in TARGETS:
            module = sys.modules[f"dirkit.{module_name}"]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attribute]
                self._replace(cls, attribute, original, self._wrap(name, original, counters))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original, counters)
            for holder in packages:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, original, wrapper)

    def _replace(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._undo.append((holder, key, original))

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def metrics(self):
        """Self milliseconds per span name and the counters, every name present."""
        out = {f"{name}.self_ms": (self.self_s[name] * 1e3, "ms") for name in SPAN_NAMES}
        for counter in COUNTER_NAMES:
            unit = "MB" if counter.endswith("_mb") else "count"
            out[counter] = (self.counts[counter], unit)
        return out
