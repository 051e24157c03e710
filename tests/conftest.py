"""Settings shared by every test module.

Hypothesis runs derandomized with a fixed example budget, so the property
tests draw the same examples on every run and the suite stays
deterministic; no example database is written.  The ``deterministic``
profile (60 examples) is the default; ``HYPOTHESIS_PROFILE=thorough`` runs
500 examples a property, on the same terms.
"""

import os

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    for name, examples in (("deterministic", 60), ("thorough", 500)):
        settings.register_profile(
            name,
            derandomize=True,
            max_examples=examples,
            database=None,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
