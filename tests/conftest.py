"""Shared pytest configuration.

Registers hypothesis profiles.  The default, ``ci``, is derandomized
(``derandomize=True`` makes example generation a pure function of the
test body), so the documented tier-1 command gives the same verdict on
every run and a red CI is reproducible locally.  Random exploration --
how new counterexamples are found over time -- is the opt-in:
``HYPOTHESIS_PROFILE=dev``.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))
