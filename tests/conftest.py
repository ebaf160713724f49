"""Hypothesis settings profiles. Tier-1 runs keep hypothesis's default
profile; `--hypothesis-profile=ci` runs the property tests that leave their
example count to the profile with a few hundred examples each."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("ci", max_examples=400)
