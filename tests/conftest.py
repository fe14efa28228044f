"""Shared pytest set-up: a derandomized hypothesis profile.

Property tests draw the same examples on every run and keep no example
database, so a Tier-1 run is reproducible and leaves no state behind.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
