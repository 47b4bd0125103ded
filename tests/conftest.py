"""Hypothesis settings shared by every fuzz test.

The ``default`` profile runs 100 examples per test, with no example
database and no deadline. ``HYPOTHESIS_PROFILE=ci`` selects the ``ci``
profile, the same at 1,000 examples.
"""

import os
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it finds in the source under its home
# directory, ./.hypothesis by default, even without an example database.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "gssnmf-hypothesis")

settings.register_profile("default", database=None, deadline=None, max_examples=100)
settings.register_profile("ci", settings.get_profile("default"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
