"""Fresh-interpreter helper for run.py.

    python3 perfbench/child.py setup             # seconds to import treealg and warm up
    python3 perfbench/child.py trace WORKLOAD SEED   # per-layer metrics as JSON
"""

import json
import sys

import run
import workloads
from oracle import Mismatch
from speed import Speedometer


def main(argv) -> int:
    if argv[0] == "setup":
        with Speedometer():
            start = workloads.clock()
            workloads.warm_up(run.load_treealg())
            print(workloads.clock() - start)
        return 0
    workload, seed = argv[1], int(argv[2])
    try:
        part = {"correct": True, **run.traced_part(workload, seed, workloads.Sizes())}
    except Mismatch as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        part = {"correct": False}
    print(json.dumps(part))
    return 0 if part["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
