"""
von Mises-Fisher basics: stable log-partition, sampling, and kappa recovery
============================================================================

A small tour of the vmf module: evaluate the stable surrogate A(kappa),
check it against the two Amos ratio bounds, draw samples at a known
concentration, and recover kappa with the Banerjee MLE.
"""

import numpy as np

from kappa_sphere.vmf import (mle_kappa, sample_vmf, stable_log_partition,
                              stable_log_partition_grad)

# The surrogate A(kappa) replaces the exact log-partition of the vMF
# density; its derivative is the Amos upper bound on the Bessel ratio
# I_{v+1}(kappa) / I_v(kappa), so the loss stays stable at any dimension.
d = 64
v_tilde = (d - 1) / 2.0
for kappa in (0.5, 5.0, 50.0, 500.0):
    a = stable_log_partition(kappa, d)
    da = stable_log_partition_grad(kappa, d)
    lower = kappa / (v_tilde + np.hypot(kappa, v_tilde + 1.0))
    upper = kappa / (v_tilde + np.hypot(kappa, v_tilde))
    print(f"kappa={kappa:7.1f}  A={a:12.4f}  lower={lower:.6f}  "
          f"dA/dkappa={da:.6f}  upper={upper:.6f}")
    assert lower <= da <= upper

# Sample from a vMF with a known concentration and recover it: every row
# of the sampler's input is the same mean and kappa.  The MLE uses only
# the resultant length of the sample cloud.
rng = np.random.default_rng(0)
mu = rng.standard_normal(d)
mu /= np.linalg.norm(mu)
true_kappa = 200.0

n = 10_000
samples = sample_vmf(np.tile(mu, (n, 1)), np.full(n, true_kappa), rng_seed=1)
estimate = mle_kappa(samples)
print(f"\ntrue kappa   = {true_kappa:.1f}")
print(f"MLE estimate = {estimate:.1f}  "
      f"(relative error {abs(estimate - true_kappa) / true_kappa:.3%})")
