"""Shared test settings: Hypothesis draws the same examples on every run,
so a verdict never depends on the run. Tests keep their own example
counts; the profile only fixes how examples are drawn.

`traced_peak` is the one `tracemalloc` measurement of the memory tests."""

import tracemalloc

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def traced_peak(call):
    """`call()`'s result and the peak traced allocation while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
