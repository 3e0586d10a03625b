import numpy as np
import pytest
from hypothesis import settings

from ratelab import simenc

from helpers import FAST_CONFIG

# Property tests run the same examples on every run and never time out, so
# tier-1 stays reproducible on slow or loaded machines.
settings.register_profile(
    "ratelab", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("ratelab")


@pytest.fixture(scope="session")
def fast_config():
    return FAST_CONFIG


@pytest.fixture(scope="session")
def video():
    return simenc.generate_video(1234, FAST_CONFIG)


@pytest.fixture(scope="session")
def gop(video):
    return simenc.plan_gop(video)


@pytest.fixture(scope="session")
def small_corpus():
    return simenc.generate_corpus(6, master_seed=99, config=FAST_CONFIG)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
