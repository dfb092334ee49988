"""Child process that times one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken to import ``ccgrav`` (with its CLI) and build the
workload's fixtures.  Only the standard library is loaded before the clock
starts, so numpy and scipy imports count as part of importing ``ccgrav``.
"""

import sys
import time

from common import add_src_path, check_imported, pin_threads


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    pin_threads()
    add_src_path()
    start = time.perf_counter()
    import ccgrav
    import ccgrav.cli
    from workloads import WORKLOADS

    WORKLOADS[workload](seed).build_fixtures(ccgrav)
    elapsed = time.perf_counter() - start
    check_imported(ccgrav)
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
