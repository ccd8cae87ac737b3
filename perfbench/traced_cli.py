"""Run the heckeforge command line under the layer profiler.

    python3 perfbench/traced_cli.py SUMMARY.json verify --jobs 2 ...

Imports the package first, so the import is not traced, then runs
`heckeforge.cli.main` with every thread profiled, writes the per-layer
summary to SUMMARY.json and exits with the command's exit code.  Expects
the package on PYTHONPATH.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from heckeforge import cli  # noqa: E402

from layers import ThreadProfiles, summarize  # noqa: E402


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    with ThreadProfiles() as tp:
        code = cli.main(argv)
    with open(path, "w") as fh:
        json.dump(summarize(tp.profiles), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
