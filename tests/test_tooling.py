"""The layer tracer's targets exist, so a rename fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACE_RUNNER = Path(__file__).resolve().parents[1] / "perfbench" / "trace_runner.py"


def test_trace_targets_exist():
    spec = importlib.util.spec_from_file_location("trace_runner", TRACE_RUNNER)
    trace_runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_runner)
    missing = [f"{module}.{name}"
               for module, functions in trace_runner.TARGETS.items()
               for name in functions
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert not missing, missing
