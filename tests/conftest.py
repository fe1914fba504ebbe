import numpy as np
import pytest
from hypothesis import settings

# One Hypothesis profile for the whole suite: the same examples on every run
# and no example database, so a run writes nothing to .hypothesis/.  Each
# property test sets only its own max_examples.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
