"""Time the package's set-up in a fresh interpreter: import, parse (which
validates) and epsilon0, with every lru_cache cold.

Usage: python3 cuspbench/setup_probe.py "<surface>"
Prints one JSON object with the phase times in seconds of process CPU time,
and ``kernel_s``, the median CPU time of the reference kernel (``speed.py``)
run right after them, which gives the machine's speed during the probe.
The kernel's module is imported only after the timed phases, so that the
standard modules it shares with the package are still the package's cost.
"""

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
KERNEL_CALLS = 9


def main(surface: str) -> None:
    t0 = time.process_time()
    sys.path.insert(0, str(SRC))
    from cuspflow import contfrac, excursions  # noqa: F401  (the pipeline's imports)
    from cuspflow.origami import epsilon0, parse_origami

    t1 = time.process_time()
    o = parse_origami(surface)
    o.validate()
    t2 = time.process_time()
    epsilon0(o)
    t3 = time.process_time()
    sys.path.insert(0, str(HERE))
    from speed import kernel_s

    print(json.dumps({
        "import_s": t1 - t0,
        "parse_validate_s": t2 - t1,
        "epsilon0_s": t3 - t2,
        "total_s": t3 - t0,
        "kernel_s": statistics.median(kernel_s() for _ in range(KERNEL_CALLS)),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
