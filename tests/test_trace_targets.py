"""The traced benchmark child wraps library functions by name; every name it
lists must still resolve, or each traced benchmark run crashes."""

import importlib.util
from pathlib import Path

TRACE_CHILD = Path(__file__).resolve().parent.parent / "bench" / "trace_child.py"


def test_every_trace_target_is_callable():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    assert trace_child.TARGETS
    missing = [
        f"{module.__name__}.{attr}"
        for _, module, attr, _ in trace_child.TARGETS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
