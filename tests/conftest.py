"""Hypothesis settings profiles. Tier-1 runs keep hypothesis's default
profile; `--hypothesis-profile=ci` runs the property tests that leave their
example count to the profile with a few hundred examples each.

Tests run under `python -W error`. When a property test fails, hypothesis's
report hook touches `mypy_extensions.TypedDict` where that package is
installed, and the DeprecationWarning it raises there would end the run in
an INTERNALERROR before the falsifying example is printed. That one message
is ignored; every other warning stays an error."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("ci", max_examples=400)


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
    )
