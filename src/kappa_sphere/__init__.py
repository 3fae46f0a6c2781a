"""Hyperspherical uncertainty for place recognition.

Stable von Mises-Fisher training losses, concentration regression,
resultant-vector uncertainty scores, and rank-based calibration (ECE@K),
verified end to end on synthetic scenes with known ground truth.

Submodules are imported lazily, so the CLI's ``--help`` and argument
errors return without loading numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "bench", "calibration", "cli", "fileio", "head", "pipeline",
    "retrieval", "scores", "synth", "training", "vmf",
})


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBMODULES)
