"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload firstk-star --seed 1 --seconds 15 --trace 0

Run from the repository root.  Prints every metric by name with its unit,
writes a full report (environment stamp, counts, checks) under
``perfbench/out/``, and prints the result as one JSON object on the last
line.  Exits non-zero when the program is missing or crashes (without a
result line) and when a correctness check fails (after the result line,
which then reads ``"correct": false``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("firstk-star", "full-chain", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import END_TO_END, PER_LAYER, strip_program_switches

    flagged = strip_program_switches()
    from calibrate import REFERENCE_UNIT_MS
    from common import emit, env_stamp, layer_metrics

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            from serve import run_serve

            outcome = run_serve(args.seed, args.seconds, bool(args.trace), workdir, ROOT)
        else:
            from inproc import run_firstk, run_full_chain

            runner = run_firstk if args.workload == "firstk-star" else run_full_chain
            outcome = runner(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        layer = outcome["layer"]
        metrics = layer_metrics(
            layer["trace"], layer["busy_s"],
            {"trace.overhead_ratio": layer["overhead"], **layer.get("extra", {})},
        )
        spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.jsonl")
        with open(spans_path, "w") as handle:
            for span in layer["trace"]["spans"]:
                handle.write(json.dumps(span) + "\n")
        names, units = [n for n, _ in PER_LAYER], dict(PER_LAYER)
    else:
        metrics = outcome["metrics"]
        names, units = [n for n, _ in END_TO_END], dict(END_TO_END)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": env_stamp(ROOT, flagged, workload=args.workload, **outcome["stamp"]),
        "end_to_end": outcome["metrics"],
        "end_to_end_as_timed": outcome["raw"],
        "calibration": outcome["calibration"],
        "per_layer": metrics if args.trace else None,
        "counts": outcome["counts"],
        "problems": outcome["problems"][:50],
    }
    calibration = outcome["calibration"]
    print(f"calibration: {calibration['units']} units, median {calibration['unit_ms_p50']:.3f} ms "
          f"(reference {REFERENCE_UNIT_MS} ms)")
    for name, value in outcome["raw"].items():
        print(f"as timed: {name:31s} {value:>14.6g}")
    for problem in outcome["problems"][:10]:
        print(f"CHECK FAILED: {problem}")
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    correct = not outcome["problems"]
    emit(report, names, metrics, units, correct,
         outcome["attempted"], outcome["failed"], out_path)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
