"""Command-line entry point: regenerate the paper's experiments.

Usage::

    python -m repro.bench list              # show available experiments
    python -m repro.bench run fig5 fig7     # run selected experiments
    python -m repro.bench run --all         # run everything

This drives the same experiment code as ``pytest benchmarks/`` but
without the pytest/benchmark machinery — convenient for quick looks
and for environments without pytest-benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import Callable, Dict, List

from repro.ports.factory import available_backends

# Each entry: experiment id -> (benchmarks module, compute callable
# name, renderer description). The benchmarks modules own the
# experiment logic; the CLI reuses them.
_EXPERIMENTS: Dict[str, Dict[str, str]] = {
    "fig1": {
        "module": "benchmarks.test_fig1_banking_removal",
        "compute": "run_removal",
        "title": "Fig 1: banking index removal",
    },
    "fig5": {
        "module": "benchmarks.test_fig5_tpcc",
        "compute": "run_all",
        "title": "Fig 5: TPC-C latency/throughput at three scales",
    },
    "fig6": {
        "module": "benchmarks.test_fig6_fig7_tpcds",
        "compute": "run_tpcds",
        "title": "Fig 6/7: TPC-DS per-query improvement (budgeted)",
    },
    "fig8": {
        "module": "benchmarks.test_fig8_template_overhead",
        "compute": "run_comparison",
        "title": "Fig 8: template-based vs query-level overhead",
    },
    "fig9": {
        "module": "benchmarks.test_fig9_dynamic",
        "compute": "run_dynamic",
        "title": "Fig 9: dynamic TPC-C adaptivity",
    },
    "fig10": {
        "module": "benchmarks.test_fig10_storage_limits",
        "compute": "run_budget_sweep",
        "title": "Fig 10: storage budget sweep",
    },
    "table1": {
        "module": "benchmarks.test_table1_added_indexes",
        "compute": "run_experiment",
        "title": "Table I: added indexes on TPC-C",
    },
    "table2": {
        "module": "benchmarks.test_table2_table3_banking",
        "compute": "run_creation",
        "title": "Table II/III: banking index creation",
    },
}


def _load(experiment: str) -> Callable:
    spec = _EXPERIMENTS[experiment]
    module = importlib.import_module(spec["module"])
    return getattr(module, spec["compute"])


def list_experiments() -> None:
    print("available experiments:")
    for key, spec in _EXPERIMENTS.items():
        print(f"  {key:8s} {spec['title']}")
    print(
        "\nfull rendered tables come from: "
        "pytest benchmarks/ --benchmark-only"
    )


def run_experiments(names: List[str]) -> int:
    failures = 0
    for name in names:
        if name not in _EXPERIMENTS:
            print(f"unknown experiment {name!r}; try 'list'")
            failures += 1
            continue
        title = _EXPERIMENTS[name]["title"]
        print(f"\n=== {title} ===")
        start = time.perf_counter()
        try:
            result = _load(name)()
        except Exception as exc:  # pragma: no cover - CLI convenience
            print(f"  FAILED: {exc}")
            failures += 1
            continue
        elapsed = time.perf_counter() - start
        print(f"  done in {elapsed:.1f}s")
        _summarise(result)
    return failures


def _summarise(result: object, indent: str = "  ") -> None:
    """Small structural dump of an experiment's raw outcome."""
    if isinstance(result, dict):
        for key, value in list(result.items())[:12]:
            if isinstance(value, (dict, list, tuple)) and not isinstance(
                value, str
            ):
                print(f"{indent}{key}:")
                _summarise(value, indent + "  ")
            else:
                print(f"{indent}{key}: {value}")
        return
    if isinstance(result, (list, tuple)):
        for item in list(result)[:8]:
            _summarise(item, indent)
        return
    print(f"{indent}{result}")


def run_backend(backend: str, seed: int) -> int:
    """Dispatch the backend demo (``--backend sqlite``)."""
    from repro.bench.backends import render_backend_demo, run_backend_demo

    print(f"=== backend demo: full tuning run on {backend!r} ===")
    summary = run_backend_demo(backend, seed=seed)
    for line in render_backend_demo(summary):
        print("  " + line)
    return 0


def run_faults(
    seed: int,
    rate: float,
    rounds: int,
    kind: str,
    out: str,
    backend: str | None = None,
) -> int:
    """Dispatch the chaos benchmark (``--faults``)."""
    from repro.bench.chaos import render_chaos, run_chaos
    from repro.ports.factory import DEFAULT_BACKEND

    backend = backend or DEFAULT_BACKEND
    print(
        f"=== chaos: tuning under injected faults ({backend}) ==="
    )
    report = run_chaos(
        seed=seed, rate=rate, rounds=rounds, kind=kind, out_path=out,
        backend=backend,
    )
    for line in render_chaos(report):
        print("  " + line)
    print(f"  written to {out}")
    return 0 if report["ok"] else 1


def run_regret_mode(
    regret_bound: float, out: str, backend: str | None = None
) -> int:
    """Dispatch the regret scenario (``--faults --regret``)."""
    from repro.bench.chaos import render_regret, run_regret
    from repro.ports.factory import DEFAULT_BACKEND

    backend = backend or DEFAULT_BACKEND
    print(
        "=== regret: adversarial estimator vs the regret bound "
        f"({backend}) ==="
    )
    report = run_regret(
        regret_bound=regret_bound, out_path=out, backend=backend
    )
    for line in render_regret(report):
        print("  " + line)
    print(f"  written to {out}")
    return 0 if report["ok"] else 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the AutoIndex paper's experiments.",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        help="run a full tuning demo on the chosen backend adapter",
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help="run the chaos benchmark (tuning under injected faults); "
             "combine with --backend to pick the adapter",
    )
    parser.add_argument(
        "--regret",
        action="store_true",
        help="with --faults: run the regret scenario (adversarial "
             "estimator vs the configured regret bound, 3 seeds)",
    )
    parser.add_argument(
        "--regret-bound", type=float, default=None,
        help="cumulative-regret bound for --regret (default 250)",
    )
    parser.add_argument(
        "--seed", type=int, default=11,
        help="seed for --faults (fault plan) and --backend (default 11)",
    )
    parser.add_argument(
        "--rate", type=float, default=0.2,
        help="per-visit fault probability for --faults (default 0.2)",
    )
    parser.add_argument(
        "--fault-kind", choices=["transient", "permanent"],
        default="transient",
        help="fault type injected by --faults (default transient)",
    )
    parser.add_argument(
        "--rounds", type=int, default=6,
        help="tuning rounds for --faults (default 6)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path for --faults (defaults to "
             "BENCH_chaos.json, or BENCH_regret.json with --regret)",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run experiments")
    run.add_argument("experiments", nargs="*", help="experiment ids")
    run.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    args = parser.parse_args(argv)

    if args.regret and not args.faults:
        parser.error("--regret requires --faults")
    if args.faults:
        if args.regret:
            from repro.bench.chaos import DEFAULT_REGRET_BOUND

            bound = (
                args.regret_bound
                if args.regret_bound is not None
                else DEFAULT_REGRET_BOUND
            )
            if bound <= 0:
                parser.error("--regret-bound must be > 0")
            out = args.out or "BENCH_regret.json"
            return run_regret_mode(bound, out, backend=args.backend)
        if not 0.0 <= args.rate <= 1.0:
            parser.error("--rate must be within [0, 1]")
        if args.rounds < 1:
            parser.error("--rounds must be >= 1")
        out = args.out or "BENCH_chaos.json"
        return run_faults(
            args.seed, args.rate, args.rounds, args.fault_kind, out,
            backend=args.backend,
        )
    if args.backend:
        return run_backend(args.backend, args.seed)
    if args.command is None:
        parser.error(
            "a command is required unless --faults/--backend is given"
        )
    if args.command == "list":
        list_experiments()
        return 0
    names = list(_EXPERIMENTS) if args.all else args.experiments
    if not names:
        print("nothing to run; pass experiment ids or --all")
        return 2
    return 1 if run_experiments(names) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
