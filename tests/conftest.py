"""Shared test settings.

Hypothesis runs under one profile, loaded by default: derandomized, so
every run explores the same examples; no example database; and a 2 s
deadline per example.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("cutpoly", max_examples=100, derandomize=True,
                              database=None, deadline=2000)
    settings.load_profile("cutpoly")
