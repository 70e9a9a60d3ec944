"""The benchmark's tracer can wrap every function it names.

`perfbench/tracer.py` wraps named functions and methods of `openset` with
timing spans. A renamed or moved target would only fail a traced benchmark
run; this test fails first. It loads the tracer's target table without
installing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_target_resolves_in_openset():
    targets = _traced_targets()
    assert targets
    for name, module_name, attr, cls_name, _ in targets:
        assert module_name == "openset" or module_name.startswith("openset."), name
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
            assert inspect.isclass(owner), f"{name}: no class {module_name}.{cls_name}"
        assert callable(getattr(owner, attr, None)), f"{name}: no {cls_name or module_name}.{attr}"


def test_layer_methods_take_their_rows_first():
    # the layer spans record len(args[1]): the input of forward and the
    # output gradient of backward
    from openset.gradcore import DenseLayer

    for method, arg in ((DenseLayer.forward, "x"), (DenseLayer.backward, "grad_out")):
        assert list(inspect.signature(method).parameters)[1] == arg
