"""The benchmark's trace bindings resolve on this checkout's stepseg.

perfbench/spans.py wraps stepseg functions by module attribute, so renaming
or re-importing one of them breaks ``perfbench/run.py --trace 1`` without
failing any other test. These tests load spans.py as a file, as run.py does,
and run its recorder on a tiny instance.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stepseg import adjoint, network, synth, training

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def all_sites(spans):
    return ([site for sites in spans.SPANS.values() for site in sites]
            + list(spans.GRADIENT_SITES) + [spans.TRAIN_SITE])


def test_every_site_resolves_to_a_callable(spans):
    for site in all_sites(spans):
        module, attr = spans._resolve(site)
        assert callable(getattr(module, attr, None)), site


def test_perfbench_aliases_are_the_names_they_stand_for():
    # perfbench/ reads these two names; every test elsewhere uses the
    # names they alias
    assert synth.make_scene_spec is synth.SceneSpec
    params = training.init_params(bands=3, num_classes=2, width=4, steps=2,
                                  activation="tanh", h=1.0, seed=0)
    trace = network.forward(params, np.ones((3, 4, 4)))
    assert trace.preacts is trace.activations


def test_traced_train_and_gradient_record_every_span(spans):
    data, truth = synth.gen_scene(synth.SceneSpec(
        seed=3, height=8, width=8, channels=3))
    train_sel, val_sel = synth.sample_labels(
        truth, synth.LabelBudget(10, 5, seed=3))
    config = training.parse_config("alpha=0.001\niterations=2\nwidth=4\n"
                                   "steps=2\neval_every=1\n")
    params = training.init_params(bands=3, num_classes=2, width=4, steps=2,
                                  activation="tanh", h=1.0, seed=0)
    recorder = spans.Recorder(spans=True)
    recorder.install()
    try:
        recorder.tracing = True
        result = training.train(config, data, train_sel, val_sel)
        adjoint.gradient(params, data, train_sel, 0.001)
    finally:
        recorder.uninstall()
    assert result.status == "ok"
    recorded = {span[3] for span in recorder.spans}
    assert recorded == set(spans.SPANS)
    # each COUNTS function ran on a real call's arguments and result
    for name in spans.COUNTS:
        counts = [span[7] for span in recorder.spans if span[3] == name]
        assert counts and all(
            c and all(isinstance(v, int) and v >= 0 for v in c)
            for c in counts), name
    # two gradient calls inside train, one outside it
    assert [call[0] for call in recorder.grad_calls] == [1, 1, None]


def test_trace_count_is_the_bytes_the_trace_holds(spans):
    # network.trace_mib reads the trace through the preacts alias; it must
    # still sum exactly the arrays the trace keeps
    data, truth = synth.gen_scene(synth.SceneSpec(
        seed=3, height=8, width=8, channels=3))
    params = training.init_params(bands=3, num_classes=2, width=4, steps=5,
                                  activation="tanh", h=1.0, seed=0)
    trace = network.forward(params, data)
    held = (trace.data, trace.output, *trace.states, *trace.activations)
    assert spans._trace_counts((params, data), trace) == (
        sum(a.nbytes for a in held),)
    # k = 3 keeps y_3 and y_5; the sweep recomputes y_0 from data
    assert len(trace.activations) == 5 and len(trace.states) == 2


def test_trace_count_is_taken_before_the_sweep_spends_the_trace(spans):
    # gradient's sweep empties the trace after forward returns; the span
    # counts it at forward's exit, so network.trace_mib is still the bytes
    # of the whole trace
    data, truth = synth.gen_scene(synth.SceneSpec(
        seed=3, height=8, width=8, channels=3))
    train_sel, _ = synth.sample_labels(truth, synth.LabelBudget(10, 5, seed=3))
    params = training.init_params(bands=3, num_classes=2, width=4, steps=5,
                                  activation="tanh", h=1.0, seed=0)
    recorder = spans.Recorder(spans=True)
    recorder.install()
    try:
        recorder.tracing = True
        adjoint.gradient(params, data, train_sel, 0.001)
    finally:
        recorder.uninstall()
    counts = [span[7] for span in recorder.spans
              if span[3] == "network.forward"]
    trace = network.forward(params, data)
    held = (trace.data, trace.output, *trace.states, *trace.activations)
    assert counts == [(sum(a.nbytes for a in held),)]
