"""Test-session settings: hypothesis runs derandomized, so the suite draws
the same examples on every run and every machine."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, print_blob=True)
settings.load_profile("derandomized")
