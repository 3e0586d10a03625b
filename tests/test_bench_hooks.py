"""The benchmark's per-layer tracing patches ratelab by name; every name it
patches must still exist, or a traced run breaks outside this suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ratelab import inference, simenc
from ratelab.inference import ENVELOPE_GRID, BoundsModel

from helpers import tiny_policy

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracing):
    hooks = tracing._wrappers(tracing.Tracer())
    assert hooks
    for module_name, attr, _ in hooks:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner, attr = getattr(owner, cls_name, None), method
            assert owner is not None, f"{module_name}.{cls_name} is gone"
            assert attr in vars(owner), f"{module_name}.{cls_name}.{attr} is gone"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr} is gone"


def test_traced_rollout_counts_one_feedback_event_per_frame_after_the_first(
    tracing, video, gop
):
    """``feedback_after`` reads the controller's observation; a traced
    evaluate round breaks if it can no longer."""
    params, spec = tiny_policy([video])
    xs = ENVELOPE_GRID
    bounds = BoundsModel(
        lower=tuple((480.0 * xs).tolist()),
        upper=tuple((482.0 * xs + 1.0).tolist()),
        target_bitrate_kbps=512.0,
        quantiles=(0.025, 0.975),
    )
    runner, controller = inference.controlled_policy(
        params, spec, bounds, np.random.default_rng(3)
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        simenc.run_episode(video, gop, 512.0, runner)
    assert tracer.counts["inference.feedback.events"] == video.num_frames - 1
    assert tracer.counts["simenc.encode_frame"] == video.num_frames
    assert tracer.counts["inference.feedback.triggered"] == sum(
        e.triggered for e in controller.events
    )


def test_traced_fit_bounds_runs_and_starts_no_fit(tracing, envelope_traces):
    """The envelope is the raw quantiles: a traced ``fit_bounds`` still runs
    under the tracer's wrappers, and ``inference.least_squares``, which the
    tracer still wraps, is never called."""
    with tracing.installed(tracing.Tracer()) as tracer:
        inference.fit_bounds(envelope_traces, 512.0).validate()
    assert [(span.name, span.error) for span in tracer.spans] == [("inference.fit_bounds", None)]
    assert tracer.counts["inference.fit.starts"] == 0
    assert tracer.counts["inference.fit.nfev"] == 0


def test_traced_bounds_io_runs_under_the_io_wrappers(tracing, tmp_path, envelope_traces):
    """The bounds file goes through the row codec, so the tracer's
    ``io.write_jsonl`` and ``io.read_jsonl`` spans, and its ungated ``io.*``
    metrics, count ``save_bounds`` and ``load_bounds`` as they count the
    corpus, traces and teacher records."""
    model = inference.fit_bounds(envelope_traces, 512.0)
    path = tmp_path / "bounds.json"
    with tracing.installed(tracing.Tracer()) as tracer:
        inference.save_bounds(path, model)
        assert inference.load_bounds(path) == model
    assert [(span.name, span.error) for span in tracer.spans] == [
        ("io.write_jsonl", None), ("io.read_jsonl", None)
    ]
    assert tracer.counts["io.write.bytes"] == path.stat().st_size
