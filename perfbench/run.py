"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload train|decode|adapt --seed N \\
        --seconds S --trace 0|1

Run it from the root of a treenlg checkout; it imports the package from
``src/``.  With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer ones.  The result is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# One BLAS thread: on two shared cores a second OpenBLAS thread competes with
# the Python thread and made training slower and less steady, not faster.
# Set before numpy is first imported; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so a stopped run still stops its child
    # process and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "treenlg" / "__init__.py").is_file():
        print(f"error: {root} holds no treenlg source tree (src/treenlg)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import pipeline

    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    result = pipeline.execute(workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
