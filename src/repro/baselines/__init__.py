"""Reference runners and baseline sampling techniques (Section V-A).

* :func:`run_full` — the full simulation with no sampling ("Full"),
  also producing the fixed-size sampling units (IPC + BBV per unit)
  both baselines consume;
* :func:`estimate_random` — Random: simulate a random 10% of the units;
* :func:`estimate_simpoint` — Ideal-SimPoint: cluster per-unit BBVs with
  k-means/BIC and predict via Eq. 1.  "Ideal" because the BBVs come from
  a full timing run (warp interleaving is unknowable without one), so
  the technique is an upper bound, not a deployable GPGPU sampler.
"""

from repro.baselines.full import FullRunResult, run_full
from repro.baselines.random_sampling import BaselineEstimate, estimate_random
from repro.baselines.simpoint import SimpointEstimate, estimate_simpoint

__all__ = [
    "FullRunResult",
    "run_full",
    "BaselineEstimate",
    "estimate_random",
    "SimpointEstimate",
    "estimate_simpoint",
]
