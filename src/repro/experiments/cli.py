"""Command-line entry point: regenerate any of the paper's figures.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments figure3
    python -m repro.experiments figure5a --scale smoke
    python -m repro.experiments all --scale default
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments import EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation figures of 'Smart Redundancy for "
            "Distributed Computation' (ICDCS 2011)."
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment name (see --list), or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="default",
        help=(
            "run size: smoke (seconds), default (a few minutes), full (the "
            "paper's scale; a figure5a/figure5c replicate of 10^6 tasks "
            "needs up to ~330 MB per worker, so bound memory with --jobs)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes for replicated simulations (default: all "
            "CPUs; --jobs 1 runs the exact in-process serial path; "
            "results are identical for any value)"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help=(
            "record run telemetry (metrics, spans, events) and write a "
            "capture JSON to PATH; inspect it with 'repro-obs summary'"
        ),
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="append an ASCII scatter plot of the figure's series",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the figure's data series as JSON instead of a table",
    )
    return parser


#: Cheap compute() arguments per experiment for --plot/--json (sim-based
#: figures run at smoke scale regardless of --scale; analytic figures run
#: as-is).
_DATA_KWARGS = {
    "figure3": {},
    "figure5a": dict(tasks=1_000, nodes=200, replications=1),
    "figure5b": dict(ks=(3, 9), ds=(2, 4), sat_vars=12, tasks=60, problems=1, nodes=120),
    "figure5c": {},
    "figure6": dict(tasks=1_000, nodes=200, replications=1),
}


def _compute_data(name: str, module, jobs: Optional[int] = None):
    kwargs = _DATA_KWARGS.get(name)
    if kwargs is None or not hasattr(module, "compute"):
        return None
    return module.compute(jobs=jobs, **kwargs)


def _maybe_plot(name: str, module, jobs: Optional[int] = None) -> Optional[str]:
    result = _compute_data(name, module, jobs=jobs)
    if result is None:
        return None
    from repro.experiments.plotting import ascii_plot

    labels = {
        "figure5c": ("node reliability r", "improvement over TR"),
        "figure6": ("cost factor", "response time"),
    }
    x_label, y_label = labels.get(name, ("cost factor", "reliability"))
    return ascii_plot(result, x_label=x_label, y_label=y_label)


def _maybe_json(name: str, module, jobs: Optional[int] = None) -> Optional[str]:
    import json

    result = _compute_data(name, module, jobs=jobs)
    if result is None:
        return None
    return json.dumps(result.as_dict(), indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if args.list or args.experiment is None:
        print("available experiments:")
        for name, module in sorted(EXPERIMENTS.items()):
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:10s} {summary}")
        print("  all        run every experiment in sequence")
        return 0
    if args.telemetry is None:
        return _run(args, jobs)
    from repro.obs.context import TelemetrySink, clear_sink, install_sink
    from repro.obs.host import capture_meta

    sink = TelemetrySink()
    install_sink(sink)
    try:
        code = _run(args, jobs)
    finally:
        clear_sink()
    if code == 0:
        meta = capture_meta(
            f"experiments:{args.experiment}", scale=args.scale, jobs=jobs
        )
        sink.capture(meta).save(args.telemetry)
        print(f"telemetry capture written to {args.telemetry}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace, jobs: int) -> int:
    if args.experiment == "all":
        for name, module in EXPERIMENTS.items():
            print(module.main(args.scale, jobs=jobs))
            print()
        return 0
    module = EXPERIMENTS.get(args.experiment)
    if module is None:
        print(f"unknown experiment {args.experiment!r}; try --list", file=sys.stderr)
        return 2
    if args.json:
        payload = _maybe_json(args.experiment, module, jobs=jobs)
        if payload is None:
            print(f"(no JSON output available for {args.experiment})", file=sys.stderr)
            return 2
        print(payload)
        return 0
    print(module.main(args.scale, jobs=jobs))
    if args.plot:
        plot = _maybe_plot(args.experiment, module, jobs=jobs)
        if plot is not None:
            print()
            print(plot)
        else:
            print(f"(no plot available for {args.experiment})", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
