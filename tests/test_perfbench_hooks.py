"""perfbench's tracer hooks resolve against the package.

`perfbench/tracer.py` wraps the functions its HOOKS table names, and
`PROPAGATION` names the spans that make up a sweep's propagation.  A hooked
function that is renamed or deleted breaks `run.py --trace 1`, and one that
is no longer called empties its layer; these checks keep both in tier 1.
The tracer is loaded by path, as perfbench is not a package.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from omxsim import cli, elements, protocols

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_after_importing_the_cli():
    tracer = _tracer_module()
    for module_name, fn_name, _ in tracer.HOOKS:
        assert callable(getattr(sys.modules[module_name], fn_name, None)), (
            f"{module_name}.{fn_name}")


def test_every_propagation_span_is_a_hook_span():
    tracer = _tracer_module()
    assert set(tracer.PROPAGATION) <= {span for _, _, span in tracer.HOOKS}


def test_a_traced_report_and_sweep_record_the_weight_and_propagation_spans():
    tracer = _tracer_module()
    protocols._sides.cache_clear()              # a kept side propagates nothing
    recorder = tracer.Tracer()
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["teleport", "--n-bar", "0.2"]) == 0
            assert cli.main(["sweep", "--protocol", "swap", "--from", "0",
                             "--to", "0.3", "--steps", "5"]) == 0
    finally:
        recorder.uninstall()
    recorded = {recorder.names[i] for i in recorder.name_id}
    assert {"cli.main", "protocols.execute_plan", "protocols.sweep_fidelity",
            "plans.component_weight", *tracer.PROPAGATION} <= recorded
    # uninstalling restores the unwrapped functions
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.plans.component_weight, "__wrapped__")


def test_a_warm_memo_still_records_one_build_span_per_constructor_call(monkeypatch):
    tracer = _tracer_module()
    calls = []
    for _, fn_name, span in tracer.HOOKS:
        if span == "elements.build":
            def counted(*args, _fn=getattr(elements, fn_name), **kwargs):
                calls.append(_fn)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(elements, fn_name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["readout"]) == 0         # warms the memo
    calls.clear()
    protocols._sides.cache_clear()              # rebuild the sides, from warm lifts
    before = elements._lift.cache_info()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["readout"]) == 0
    finally:
        recorder.uninstall()
    after = elements._lift.cache_info()
    builds = recorder.names.index("elements.build")
    assert after.misses == before.misses        # every lift came from the memo
    assert after.hits - before.hits == 8
    assert sum(1 for i in recorder.name_id if i == builds) == len(calls) > 8
