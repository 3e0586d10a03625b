import numpy as np
import pytest
from hypothesis import settings

from ratelab import baseline, simenc

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


@pytest.fixture(scope="session")
def envelope_traces():
    """Policy-like trajectories: baseline QPs with mild per-episode drift,
    so final bitrates cluster around the 512 kbps target."""
    videos = simenc.generate_corpus(25, master_seed=31, config=FAST_CONFIG)
    rng = np.random.default_rng(4)
    traces = []
    for v in videos:
        gop = simenc.plan_gop(v)
        base = baseline.run_baseline(v, gop, 512.0)
        shift = rng.integers(-2, 3)
        qps = [
            int(np.clip(q + shift + rng.normal(0, 1.5), 0, 255)) for q in base.qps
        ]
        traces.append(simenc.replay_qp_sequence(v, gop, qps, 512.0))
    return traces
