"""Set-up probe: one fresh interpreter, from the first line to inputs ready.

    python3 perfbench/probe.py WORKLOAD SEED SHORT

Times the import of the workload (which imports the heckeforge modules
it uses) and its `build(seed, short)`, and prints one JSON line with both
raw durations and the kernel backend.  The caller brackets this process
with reference loops.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main():
    name, seed, short = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    t0 = time.perf_counter()
    import workloads
    mod = workloads.load(name)
    t1 = time.perf_counter()
    mod.build(seed, short)
    t2 = time.perf_counter()
    from heckeforge import kernels
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                      "backend": kernels.BACKEND}))


if __name__ == "__main__":
    main()
