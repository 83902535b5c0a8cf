"""One cold paper-mix set-up, alone in a fresh process.

    python3 perfbench/coldsetup.py KERNEL_SEED CACHE_DIR KERNEL...

Builds every kernel and profiles it into the empty profile cache
``CACHE_DIR``, then prints one JSON line with the set-up's wall seconds
(``wall_s``), the same in reference-host seconds (``setup_s``, scaled
by the speed this process measured around it) and the process's peak
resident memory (``peak_rss_mb``).
``library.cold_set_up`` runs it with ``src`` on ``PYTHONPATH``.
"""

import json
import resource
import sys

from hostspeed import Clock
from library import set_up


def main() -> None:
    kernel_seed, cache_dir, *kernels = sys.argv[1:]
    clock = Clock()
    (seconds, _, _), _, _ = clock.call(set_up, kernels, int(kernel_seed), cache_dir)
    print(json.dumps({
        "setup_s": seconds * clock.speed,
        "wall_s": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
