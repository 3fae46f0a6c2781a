"""Hyperspherical uncertainty for place recognition.

Stable von Mises-Fisher training losses, concentration regression,
resultant-vector uncertainty scores, and rank-based calibration (ECE@K),
verified end to end on synthetic scenes with known ground truth.

Importing the package loads none of its modules (import the one you need,
e.g. ``kappa_sphere.pipeline``), so the CLI's ``--help`` and argument
errors return without loading numpy.
"""

__version__ = "0.1.0"
