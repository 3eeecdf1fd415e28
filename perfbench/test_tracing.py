"""Tests of the benchmark's own span, self-time, patching and speed-reference code.

    python3 -m pytest perfbench/test_tracing.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Span, Tracer, covered_length, self_times, summarize  # noqa: E402


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_length_merges_overlaps_and_gaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (1, 3)]) == 3
    assert covered_length([(0, 1), (2, 3)]) == 2
    assert covered_length([(0, 5), (1, 2), (3, 4)]) == 5
    assert covered_length([(4, 6), (0, 1), (0.5, 4)]) == 6


def test_nested_spans_record_parents_and_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("root"):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 3.0
            with tracer.span("a.inner"):
                clock.now = 3.5
            clock.now = 4.0
        with tracer.span("b"):
            clock.now = 6.0
        clock.now = 10.0
    root, a, inner, b = tracer.spans
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert (root.start, root.end) == (0.0, 10.0)
    assert self_times(tracer.spans) == [10.0 - 3.0 - 2.0, 3.0 - 0.5, 0.5, 2.0]
    assert list(tracer.ancestors(2)) == ["a", "root"]


def test_child_that_fills_its_parent_leaves_zero_self_time():
    spans = [Span("parent", 2.0, 5.0, None), Span("child", 2.0, 5.0, 0)]
    assert self_times(spans) == [0.0, 3.0]


def test_children_are_clipped_to_the_parent_interval():
    spans = [
        Span("parent", 2.0, 5.0, None),
        Span("early", 1.0, 3.0, 0),
        Span("late", 4.0, 7.0, 0),
        Span("outside", 8.0, 9.0, 0),
    ]
    assert self_times(spans)[0] == 3.0 - 1.0 - 1.0


def test_summarize_totals_calls_and_self_time_per_name():
    spans = [
        Span("op", 0.0, 10.0, None),
        Span("step", 1.0, 3.0, 0),
        Span("leaf", 1.5, 2.0, 1),
        Span("step", 4.0, 8.0, 0),
    ]
    stats = summarize(spans)
    assert stats["step"].calls == 2
    assert stats["step"].total_s == 6.0
    assert stats["step"].self_s == 5.5
    assert stats["step"].durations == [2.0, 4.0]
    assert stats["op"].self_s == 4.0


def test_span_closes_when_the_body_raises():
    clock = FakeClock()
    tracer = Tracer(clock)
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            clock.now = 2.0
            raise ValueError
    assert tracer.spans[0].duration == 2.0
    with tracer.span("next"):
        pass
    assert tracer.spans[1].parent is None


def test_patch_reaches_names_bound_at_import_and_restores_them():
    from tagcomplete import lasso, structure

    original = lasso.solve_lasso
    assert structure.solve_lasso is original
    tracer = Tracer()
    replaced = tracer.patch_function(
        "lasso.solve_lasso", lasso, "solve_lasso", (lasso, structure)
    )
    assert replaced == 2
    assert structure.solve_lasso is not original
    import numpy as np

    problem = lasso.LassoProblem(gram=np.eye(2), corr=np.ones(2),
                                 target_sq_norm=2.0, l1_weight=0.5)
    structure.solve_lasso(problem)
    assert [s.name for s in tracer.spans] == ["lasso.solve_lasso"]
    tracer.restore()
    assert lasso.solve_lasso is original
    assert structure.solve_lasso is original


def test_patch_method_times_construction_and_restores_the_class():
    from tagcomplete import lasso

    import numpy as np

    init = lasso.LassoProblem.__init__
    tracer = Tracer()
    seen = []
    tracer.patch_method("lasso.LassoProblem", lasso.LassoProblem, "__init__",
                        lambda i, args, kwargs, result: seen.append(i))
    lasso.LassoProblem(gram=np.eye(1), corr=np.ones(1), target_sq_norm=1.0, l1_weight=0.1)
    tracer.restore()
    assert lasso.LassoProblem.__init__ is init
    assert seen == [0]
    assert tracer.spans[0].name == "lasso.LassoProblem"


def test_probe_restores_every_binding_it_patched():
    import layers

    before = {
        id(m): dict(vars(m)) for m in layers.MODULES
    }
    methods = {name: getattr(cls, attr) for name, (cls, attr) in layers.METHODS.items()}
    probe = layers.LayerProbe()
    with probe.installed():
        from tagcomplete import cli

        assert cli.fit is not before[id(cli)]["fit"]
        assert cli.evaluate_metrics is not before[id(cli)]["evaluate_metrics"]
    for module in layers.MODULES:
        assert dict(vars(module)) == before[id(module)]
    for name, (cls, attr) in layers.METHODS.items():
        assert getattr(cls, attr) is methods[name]


def test_benchmark_json_lists_every_per_layer_metric():
    import layers

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.PER_LAYER


def test_paired_takes_kernel_samples_out_of_the_call_and_restores_the_timer():
    import signal
    import time

    import speed

    handler = signal.getsignal(signal.SIGALRM)
    result, wall, kernel = speed.paired(lambda: time.sleep(0.35) or "done", 10)
    assert result == "done"
    assert 0.3 <= wall < 0.7
    assert kernel > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.at_reference_speed(2.0, kernel, 10) == (
        2.0 / kernel * speed.NOMINAL_KERNEL_S[10]
    )
