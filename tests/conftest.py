import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# One Hypothesis profile for the whole suite: the same examples on every run
# and no example database.  Each property test sets only its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# Hypothesis caches the constants it mines from source files whatever the
# database setting; a per-session directory, removed at exit, keeps that
# cache out of the working tree, so a run writes nothing to .hypothesis/.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
