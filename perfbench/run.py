"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in a child interpreter (``client.py``) pinned to one
BLAS thread, which also times set-up, and prints a report followed by
one JSON line with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("BENCHMARK.json", "src/relreparam/cli.py",
            "tests/fixtures/ecm_trajectories_golden.csv", "tests/fixtures/golden_digests.json")
# The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def end_to_end(child: dict) -> dict:
    values = {name: stats["value"] for name, stats in child["times"].items()}
    values["peak_rss_mb"] = child["peak_rss_mb"]
    return values


def report(child: dict, metrics: dict) -> None:
    print("fingerprint:", json.dumps(child["fingerprint"], sort_keys=True))
    print("pinned digests equal (information only):", json.dumps(child["digest_match"]))
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    if "calibration" in child:
        cal = child["calibration"]
        print(f"calibration: {cal['seconds']!r} s per pass over {cal['samples']} passes; "
              "the time metrics above are scaled by its ratio to the reference "
              "and the figures below are not")
    for name, stats in sorted(child.get("times", {}).items()):
        print(f"{name}_unscaled: {stats['raw']!r} ({stats['samples']} samples)")
        print(f"{name}_median: {stats['median']!r}")
        t = stats["tail"]
        if t is None:
            print(f"{name}_tail: omitted, {stats['samples']} samples "
                  f"(a tail needs more than 10)")
        else:
            print(f"{name}_tail: p{t['percentile']:.1f} = {t['value']!r} "
                  f"({t['samples']} samples)")
    if "rotations" in child:
        print(f"traced rotations: {child['rotations']}")
    failed = len(child["failures"])
    print(f"fail_ratio: {failed / child['attempted']!r} ({failed} of {child['attempted']} runs)")
    for line in child["failures"][:10]:
        print("FAILED", line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    out_root = HERE / "_out" / f"{args.workload}-{os.getpid()}"
    try:
        result_path = out_root / "result.json"
        out_root.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "client.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out_root), "--result", str(result_path)],
            env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    values = child["layers"] if args.trace else end_to_end(child)
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        print(f"benchmark produced no value for {absent}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report(child, metrics)
    failed = len(child["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": child["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
