"""Child process for the runtime-scaling check.

Usage: python perf_probe.py N P
Prints JSON {"n":..., "p":..., "seconds": best-of-7 scan time} for a
20-direction scan with the moment learner.  Run with BLAS thread caps in
the environment so timings reflect single-thread arithmetic.
"""

import json
import sys
import time

from projclust.clusterer import ClusterConfig, cluster_gmm
from projclust.datagen import make_spherical_spec, sample_dataset
from projclust.mathkit import RngStream


def main(n: int, p: int, budget: int = 20, runs: int = 7) -> None:
    spec = make_spherical_spec(p, 1.0)
    data = sample_dataset(spec, n, RngStream(0, 0))
    cfg = ClusterConfig(
        target_error=1e-12, budget=budget, learner="mom", seed=1
    )
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        outcome = cluster_gmm(data, cfg)
        times.append(time.perf_counter() - start)
        assert outcome.projections_used == budget
    print(json.dumps({"n": n, "p": p, "seconds": min(times)}))


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
