"""Shared test settings.

Every ``hypothesis`` test runs derandomized, so two runs of the suite test
the same examples and keep no example database, and without a deadline,
because exact field arithmetic has no useful per-example time bound.
"""

from hypothesis import settings

settings.register_profile("slndeform", derandomize=True, deadline=None)
settings.load_profile("slndeform")
