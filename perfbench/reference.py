"""Fixed reference work, timed next to every CLI command.

    python3 perfbench/reference.py

The harness runs this program in a fresh interpreter just before and just
after each measured command and scales the commands' wall clock by it (see
``harness.normalized``).  A host that slows down or speeds up moves both
alike, so the scaled time follows the program and not the host.  The work
mixes what the CLI spends its time on: interpreter, numpy and module
start-up, a large GEMM with a row sort, many small numpy calls and a
Python-level loop.  Start-up and small calls slow down more than large numpy
work when the host is busy, so the mix decides how closely the scaling
follows each workload.  Nothing here imports the package under test, so no
change to it can move this program's time.
"""

import math

import numpy as np


def main() -> float:
    # module loading, like the package's own imports of scipy and numpy
    import asyncio, decimal, email.parser, http.client, unittest  # noqa: F401,E401

    rng = np.random.default_rng(20260517)
    # one block of an exact search at eval-30k's reference count
    queries = rng.standard_normal((160, 64))
    refs = rng.standard_normal((9216, 64))
    sims = queries @ refs.T
    checksum = float(np.argsort(-sims, axis=1, kind="stable")[:, 0].sum())
    vec = rng.standard_normal(64)
    for i in range(8_000):
        vec = vec / np.linalg.norm(vec) + 1e-3 * np.tanh(vec)
        checksum += float(vec[i % 64])
    for i in range(200_000):
        checksum += math.exp(-(i % 17) * 0.25)
    return checksum


if __name__ == "__main__":
    print(f"{main():.6e}")
