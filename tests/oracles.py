"""Test oracles: independent checks that no production path runs."""

from dataclasses import dataclass

import numpy as np


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    per_param: dict
    tolerance: float
    passed: bool


def finite_diff_check(loss_and_grad, params: dict, tolerance: float = 1e-4) -> FiniteDiffReport:
    """Check analytic gradients against central finite differences.

    `loss_and_grad(params) -> (loss, grads_dict)`.  Steps are
    h = 1e-5 * max(1, |x|) per coordinate.
    """
    _, analytic = loss_and_grad(params)
    per_param = {}
    worst = 0.0
    for key in analytic:
        p = params[key]
        a = np.asarray(analytic[key], dtype=np.float64)
        fd = np.zeros_like(a)
        flat_p = p.reshape(-1)
        flat_fd = fd.reshape(-1)
        for i in range(flat_p.size):
            x0 = flat_p[i]
            h = 1e-5 * max(1.0, abs(x0))
            flat_p[i] = x0 + h
            lp, _ = loss_and_grad(params)
            flat_p[i] = x0 - h
            lm, _ = loss_and_grad(params)
            flat_p[i] = x0
            flat_fd[i] = (lp - lm) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-6)
        err = float(np.max(np.abs(a - fd) / denom)) if a.size else 0.0
        per_param[key] = err
        worst = max(worst, err)
    return FiniteDiffReport(max_rel_err=worst, per_param=per_param,
                            tolerance=tolerance, passed=worst <= tolerance)
