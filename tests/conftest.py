"""Hypothesis profiles.  The default profile draws fresh examples on every
run; ``--hypothesis-profile=ci`` derives them from each test's name, so two
runs of the suite test the same examples, and prints the blob that replays
a failure with ``@reproduce_failure``."""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
