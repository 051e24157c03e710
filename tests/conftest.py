"""Settings shared by every test module.

Hypothesis runs derandomized with a fixed example budget, so the property
tests draw the same examples on every run and the suite stays
deterministic; no example database is written.
"""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile(
        "deterministic",
        derandomize=True,
        max_examples=60,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.load_profile("deterministic")
