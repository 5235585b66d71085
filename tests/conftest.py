"""Shared test settings: Hypothesis draws the same examples on every run,
so a verdict never depends on the run. Tests keep their own example
counts; the profile only fixes how examples are drawn."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
