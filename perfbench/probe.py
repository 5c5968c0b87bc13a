"""One fresh-interpreter set-up sample: import repro and build one round.

The benchmark starts this script as a new ``python3 -B`` process and
times it from process start until the ready line arrives: interpreter
start, ``import repro`` (compiled from source, since no bytecode is
written), ``build_machine`` and campaign construction.  It prints one
``ready`` line with its own split and exits without running the round.

    python3 -B perfbench/probe.py --workload fuzz --seed 1
"""

import argparse
import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"),
    )
    import repro  # noqa: F401 - the import is what is timed

    imported = time.perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].build(args.seed)
    built = time.perf_counter()
    print("ready " + json.dumps({
        "import_s": imported - start,
        "build_s": built - imported,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
