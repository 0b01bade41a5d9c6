"""The trace spans of the benchmark name package functions by string; a
rename would break ``perfbench/run.py --trace 1`` without failing any test
that imports the package, so every name is resolved here."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    targets = spans.targets(spans.Tracer())
    assert targets
    for module_name, attr, *_ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:  # swapped on the class, so it must be in the class's own dict
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
