"""Shared test settings: one Hypothesis profile for the whole suite.

Examples are derived from each test's name (derandomize), no failing
examples are stored (database=None) and timing never fails a test, so
every run checks the same inputs.  Hypothesis still caches the constants
it scans from local modules; that cache goes to the system temp directory
so no .hypothesis/ directory appears in the working tree.
"""

import os
import tempfile

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "spheredeconv-hypothesis")
)

from hypothesis import settings  # noqa: E402

settings.register_profile("spheredeconv", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("spheredeconv")
