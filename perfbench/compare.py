"""``python perfbench/compare.py A.json B.json`` — did B get worse than A?

A and B are files written by ``python -m perfbench`` (same code twice
for agreement, or parent and change for a pair study).  One row per
workload and end-to-end metric: each side's median and quartiles over
its repeats, B's median as a ratio of A's (the base is always A), how
many of the paired repeats B won, and a verdict against the bound in
``BENCHMARK.json``:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the quartile spread of either side, as a share of
                  its median, is wider than the bound — the runs
                  cannot tell, which is not the same as unchanged;
* ``ok``          otherwise.

Exits 1 if any row is ``worse`` or ``unresolved``.  The decision
digests of repeat 0 are compared too: equal digests mean the two
sides decided exactly the same on this seed.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Dict, List, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent


def quartiles(values: Sequence[float]) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worsening(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative: better)."""
    if not a:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def compare(a_doc: dict, b_doc: dict, benchmark: dict) -> List[dict]:
    rows = []
    for workload, a_runs in a_doc["runs"].items():
        b_runs = b_doc["runs"].get(workload)
        if not b_runs or not a_runs["e2e"] or not b_runs["e2e"]:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs["e2e"]]
            b = [r["metrics"][name]["value"] for r in b_runs["e2e"]]
            a_q, b_q = quartiles(a), quartiles(b)
            worse_by = worsening(a_q[1], b_q[1], metric["better"])
            pairs = list(zip(a, b))
            wins = sum(
                worsening(x, y, metric["better"]) < 0 for x, y in pairs
            )
            losses = sum(
                worsening(x, y, metric["better"]) > 0 for x, y in pairs
            )
            if worse_by > metric["bound"]:
                verdict = "worse"
            elif max(spread(a), spread(b)) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "a": a_q, "b": b_q,
                "n": (len(a), len(b)),
                "ratio": b_q[1] / a_q[1] if a_q[1] else 0.0,
                "wins": wins, "losses": losses, "verdict": verdict,
            })
    return rows


def digests(doc: dict) -> Dict[str, str]:
    return {
        workload: runs["e2e"][0]["evidence"]["decision_digest"]
        for workload, runs in doc["runs"].items() if runs["e2e"]
    }


def render(rows: List[dict], a_name: str, b_name: str) -> str:
    lines = [
        f"A = {a_name}   B = {b_name}   ratio = median B / median A",
        f"{'workload':15s} {'metric':17s} {'A q1/median/q3':>34s} "
        f"{'B q1/median/q3':>34s} {'ratio':>7s} {'B won':>6s} "
        f"{'bound':>6s} verdict",
    ]
    for row in rows:
        a = "/".join(f"{v:.4g}" for v in row["a"])
        b = "/".join(f"{v:.4g}" for v in row["b"])
        pairs = min(row["n"])
        lines.append(
            f"{row['workload']:15s} {row['metric']:17s} {a:>34s} {b:>34s} "
            f"{row['ratio']:7.3f} {row['wins']:>3d}/{pairs:<2d} "
            f"{row['bound']:6.2f} {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_doc, b_doc = (
        json.loads(pathlib.Path(path).read_text("utf-8")) for path in argv
    )
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    rows = compare(a_doc, b_doc, benchmark)
    print(render(rows, argv[0], argv[1]))
    a_digests, b_digests = digests(a_doc), digests(b_doc)
    for workload in a_digests:
        same = a_digests[workload] == b_digests.get(workload)
        print(f"decisions {workload}: {'equal' if same else 'DIFFERENT'}")
    bad = [r for r in rows if r["verdict"] != "ok"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
