"""``python -m perfbench`` — the whole suite, recorded to a file.

Runs every workload (or ``--workloads a,b``) ``--repeat`` times
untraced, then once traced with ``--traced``, prints every metric by
name and unit, and writes ``perfbench/results/<run>.json`` — what
:mod:`perfbench.compare` reads.  ``--append`` adds the repeats to an
existing file, which is how alternating parent/change pairs are
collected.  Exits non-zero if any check of any run failed.

The driver's contract (one workload, one JSON line) is
``perfbench/run.py``; this is the same code in a loop.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from perfbench import run
from perfbench.workloads import NAMES


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--workloads", default=",".join(NAMES))
    parser.add_argument(
        "--seconds", type=float,
        default=float(run.BENCHMARK["run_seconds"]),
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--run", default="latest", help="results file name")
    parser.add_argument("--append", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(NAMES))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")

    info = machine()  # before the generator pins itself
    path = run.ROOT / "perfbench" / "results" / f"{args.run}.json"
    document = {"machine": info, "seconds": args.seconds, "runs": {}}
    if args.append and path.exists():
        document = json.loads(path.read_text("utf-8"))
    ok = True
    for workload in workloads:
        entry = document["runs"].setdefault(
            workload, {"e2e": [], "layers": None}
        )
        modes = [0] * args.repeat + ([1] if args.traced else [])
        for trace in modes:
            result = run.run_one(
                workload, args.seed, args.seconds, trace, smoke=args.smoke
            )
            run.report(result)
            ok = ok and result["correct"] and not result["failed"]
            if trace:
                entry["layers"] = result
            else:
                entry["e2e"].append(result)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(document, indent=1), "utf-8")
    print(f"# wrote {path.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
