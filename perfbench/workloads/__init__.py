"""The benchmark's workloads, by name.

Each workload module has `NAME`, `build(seed, short)` that makes its
inputs (the set-up), `run_round(inputs, clock)` that makes one round of
calls into heckeforge through `clock.call`, and `check(inputs, results)`
that raises `oracle.CheckError` on a wrong result.  A round repeats the
same calls on the same inputs; only the seed changes the inputs.  A
module may set `WARM_UP = False` when an untimed first round would fill
no cache.
"""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

MODULES = {
    "gauss-cyclotomic": "gauss_cyclotomic",
    "coset-fold": "coset_fold",
    "distribution-tower": "distribution_tower",
    "verify-cli": "verify_cli",
}


def load(name):
    return importlib.import_module(f"workloads.{MODULES[name]}")
