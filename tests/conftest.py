"""Shared test settings: property tests draw the same examples on every
run, so the suite's outcome and its run time do not vary between runs,
and no example deadline applies on slow machines."""

from hypothesis import settings

settings.register_profile("dsekit", derandomize=True, deadline=None, database=None)
settings.load_profile("dsekit")
