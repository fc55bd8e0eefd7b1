"""The service performance ledger: run workloads against a live server.

Usage, from the repository root::

    python3 benchmarks/ledger/run.py --seed 1                 # all workloads
    python3 benchmarks/ledger/run.py --workload bigset --seed 1
    python3 benchmarks/ledger/run.py --workload bigset --seed 1 --trace 1
    python3 benchmarks/ledger/run.py --check benchmarks/ledger/baseline.json

Each workload's end-to-end metrics print by name, unit and sample
count; ``--trace 1`` runs the workload untraced and then with span
wrappers in the server and the client, and prints the per-layer costs.
The full report (versioned, see ledger_report.py) goes to
``benchmarks/ledger/out/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit codes: 0 correct, 1 any failed or wrong session or unclean server
exit, 2 usage error or no ``src/repro`` tree to run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import ledger_report as report

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description="PBS service performance ledger"
    )
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=report.RUN_SECONDS,
        help=f"measured seconds per run; only {report.RUN_SECONDS} (the "
             f"length the sample counts are sized for) is accepted",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and print per-layer costs")
    parser.add_argument("--check", type=Path, default=None, metavar="REPORT",
                        help="validate a saved report and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds != report.RUN_SECONDS:
        parser.error(f"--seconds must be {report.RUN_SECONDS}, the run "
                     f"length the sample counts are sized for")
    return args


def _check(path: Path) -> int:
    try:
        report.validate_report(json.loads(path.read_text()))
    except (OSError, ValueError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    print(f"{path}: valid")
    return 0


def _run(ledger, args, names: list[str], host: dict, placement) -> dict:
    """Run ``names`` once and return the report document."""
    trace = bool(args.trace)
    opts = ledger.RunOptions(seconds=args.seconds, trace=trace,
                             placement=placement)
    started_unix = time.time()
    calib_ms = report.calibrate()
    sections = {}
    for name in names:
        wl = ledger.WORKLOADS[name]
        base, traced = ledger.run_workload(args.seed, wl, opts)
        sections[name] = report.workload_section(wl, base, traced)
        if traced is not None:
            path = ledger.OUT_DIR / f"spans-{name}-seed{args.seed}.json"
            path.write_text(json.dumps({
                "window_ns": [int(traced.t0 * 1e9), int(traced.t_end * 1e9)],
                **traced.span_rows,
            }))
            sections[name]["spans_file"] = str(path.relative_to(ROOT))
    return report.build_report(
        config={"seed": args.seed, "seconds": args.seconds,
                "trace": int(trace), "reps": 1 if trace else opts.reps,
                "warmup_sessions": opts.warmup_sessions},
        host=host, calib_ms=calib_ms, workloads=sections,
        started_unix=started_unix,
    )


def _print_doc(doc: dict) -> None:
    config = doc["config"]
    print(f"# ledger seed={config['seed']} seconds={config['seconds']} "
          f"trace={config['trace']} calib_ms={doc['calib_ms']:.2f} "
          f"nproc={doc['host']['nproc']}")
    for name, section in doc["workloads"].items():
        counts = section["counts"]
        latency = section["latency"]
        print(f"== {name}: {section['loop']} loop, "
              f"{counts['attempted']} sessions, {counts['failed']} failed, "
              f"{counts['incomplete']} incomplete")
        notes = {
            "setup_s":
                f"median of {len(section['setup_s_samples'])} set-ups",
            "latency_p50_ms":
                f"n={latency['samples']}, {latency['p50_beyond']} beyond",
            f"latency_p{latency['tail_percentile']}_ms":
                f"n={latency['samples']}, {latency['tail_beyond']} beyond",
        }
        for metric, entry in section["end_to_end"].items():
            print(f"  {metric:<28} {entry['value']:>12.4f} "
                  f"{entry['unit']:<11} {notes.get(metric, '')}")
        if section["per_layer"]:
            print("  -- per layer (traced run, per completed session)")
            for metric, entry in section["per_layer"].items():
                print(f"  {metric:<40} {entry['value']:>12.4f} "
                      f"{entry['unit']}")
        for message, count in counts["errors"].items():
            print(f"  !! {count} x {message}")


def _valid(doc: dict) -> bool:
    try:
        report.validate_report(doc)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.check is not None:
        return _check(args.check)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}/repro; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ledger

    if args.workload is not None and args.workload not in ledger.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(ledger.WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(ledger.WORKLOADS)
    host = report.host_facts()
    placement = ledger.Placement.for_host()
    if placement is not None:
        os.sched_setaffinity(0, placement.driver)
    ledger.OUT_DIR.mkdir(parents=True, exist_ok=True)

    doc = _run(ledger, args, names, host, placement)
    valid = _valid(doc)
    output = ledger.OUT_DIR / (
        f"report-{args.workload or 'all'}-seed{args.seed}"
        f"-trace{args.trace}.json"
    )
    output.write_text(json.dumps(doc, indent=2) + "\n")
    _print_doc(doc)
    print(f"# report: {output}")

    sections = doc["workloads"]
    if args.trace:
        wanted, block = report.LAYER_NAMES, "per_layer"
    else:
        wanted = [m.name for m in report.END_TO_END if m.contract]
        block = "end_to_end"
    prefix = len(sections) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): section[block][metric]
        for name, section in sections.items()
        for metric in wanted
    }
    tallies = [s["counts"] for s in sections.values()] + [
        s["traced_counts"] for s in sections.values() if "traced_counts" in s
    ]
    correct = valid and all(s["ok"] for s in sections.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
