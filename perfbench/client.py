"""One workload in one interpreter: a closed loop of in-process CLI runs.

A single client calls ``relreparam.cli.main`` and starts the next run only
after the previous one returns, rotating through the workload's kinds in the
fixed order of ``workloads.KINDS``. Every run's outputs are checked after
its timer stops. ``run.py`` starts this script as a child process and reads
the JSON it writes to ``--result``.

Usage: client.py --workload NAME --seed N --seconds S --trace 0|1
                 --out DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
import yaml
from relreparam import cli, experiments

import checks
import workloads
from fingerprint import fingerprint
from tracer import Tracer, layer_metrics, median_metrics

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_ECM = ROOT / "tests" / "fixtures" / "ecm_trajectories_golden.csv"
GOLDEN_DIGESTS = ROOT / "tests" / "fixtures" / "golden_digests.json"
REFERENCES = Path(__file__).with_name("references.json")

# A tail is the highest percentile with at least this many samples above it.
TAIL_BEYOND = 10
# Share of samples dropped at each end before a kind's times are averaged,
# rounded up, so at least one at each end from three samples on.
TRIM = 0.1
# The calibration kernel's time at the reference speed of the machine (the
# 2-vCPU VM of README.md in its usual state); time metrics are reported at
# this speed.
REFERENCE_CALIBRATION_S = 0.03
_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.standard_normal((20, 3))
_CAL_LARGE = _CAL_RNG.standard_normal(400_000)
# Fresh interpreters timed for setup_s, spread evenly over the run.
SETUP_REPS = 15
IMPORT_PROBE = "import time, relreparam.cli; print(time.perf_counter())"
# Per-layer counts that must repeat exactly between traced rotations.
COUNT_METRICS = ("gmm.density_points", "gmm.mixture_moments_calls", "reparam.calls",
                 "dynamics.cells", "dynamics.velocity_calls", "dynamics.gd_steps",
                 "ecm.em_iterations", "ecm.ecm_iterations", "ecm.kkt_active_steps",
                 "fim.mc_draws", "nn.triples", "nn.hits", "experiments.csv_rows",
                 "svgplot.quiver_arrows")


def trimmed_mean(samples: list[float]) -> float:
    """Mean after dropping the TRIM share of samples at each end.

    The machine's speed switches between a fast and a slow state within
    seconds, so a kind's run times are a mixture of two modes. A median
    jumps from one mode to the other when the mixture nears half and half;
    a mean moves only in proportion to the mixture, and the trimming keeps
    a rare stall out of it."""
    ordered = sorted(samples)
    k = min(math.ceil(len(ordered) * TRIM), (len(ordered) - 1) // 2)
    kept = ordered[k:len(ordered) - k]
    return sum(kept) / len(kept)


def calibrate() -> float:
    """Seconds for a fixed piece of work that does not touch the program.

    It mixes what the experiment kinds spend their time on: an interpreter
    loop, building small objects, small LAPACK calls and passes over a large
    array. Its time follows the speed of the machine, which drifts by up to
    a third within minutes; see README.md."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(40_000):
        acc += (i % 7) * 0.5
    table = {str(i): [i, 2.0 * i] for i in range(10_000)}
    for _ in range(300):
        np.linalg.lstsq(_CAL_SMALL, _CAL_SMALL[:, 0], rcond=None)
    for _ in range(10):
        np.exp(-0.5 * _CAL_LARGE * _CAL_LARGE).sum()
    del table
    return time.perf_counter() - start


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter until ``relreparam.cli`` is
    imported. Both ends read the same monotonic clock, so the child's
    timestamp is comparable to this process's."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout) - start


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with TAIL_BEYOND samples beyond it, or None."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return {"percentile": 100.0 * (n - TAIL_BEYOND) / n,
            "value": sorted(samples)[n - TAIL_BEYOND - 1], "samples": n}


class Client:
    """Runs and checks CLI invocations for one workload."""

    def __init__(self, workload: str, out_root: Path):
        self.slots = workloads.WORKLOADS[workload]
        self.out_root = out_root
        self.references = json.loads(REFERENCES.read_text())
        self.attempted = 0
        self.failures: list[str] = []
        self.calibration: list[float] = []

    def invoke(self, kind: str, overrides: dict, seed: int | None, tag: str, main=cli.main):
        """One CLI run; returns (seconds, exit code, output dir, config path, stderr)."""
        run_dir = self.out_root / tag
        run_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = run_dir / f"{kind}.yaml"
        cfg_path.write_text(yaml.safe_dump(workloads.config(kind, overrides, seed)))
        out = run_dir / kind
        argv = [kind, "--config", str(cfg_path), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is a failed run, not a failed benchmark
                code = None
                err.write(traceback.format_exc(limit=3))
            seconds = time.perf_counter() - start
        return seconds, code, out, cfg_path, err.getvalue()

    def check(self, kind: str, code, out: Path, cfg_path: Path, stderr: str,
              reference: dict | None, golden: Path | None = None) -> list[str]:
        if code != 0:
            return [f"{kind}: exit code {code}: {stderr.strip()[-300:]}"]
        cfg = experiments.load_config(cfg_path)
        try:
            problems = checks.INVARIANTS[kind](out, cfg)
            if reference is not None:
                problems += checks.check_reference(kind, out, reference)
            if golden is not None:
                problems += checks.check_ecm_golden(out / "ecm_trajectories.csv", golden)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems = [f"{kind}: unreadable output: {exc!r}"]
        return problems

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems

    def reference_pass(self) -> dict[str, bool]:
        """Every kind at its shipped config and default seed, checked against
        the stored references and the golden ECM CSV. Also warms imports and
        caches before anything is timed."""
        for kind in workloads.KINDS:
            _, code, out, cfg_path, err = self.invoke(kind, {}, None, "reference")
            golden = GOLDEN_ECM if kind == "ecm" else None
            ref = None if golden else self.references[workloads.reference_key(kind, {})]
            self.record(f"{kind} default", self.check(kind, code, out, cfg_path, err, ref, golden))
        return checks.digest_matches(self.out_root / "reference", GOLDEN_DIGESTS)

    def rotation(self, seeds, tag: str, samples: dict, repeat: bool = True, main=cli.main) -> float:
        """Runs of every kind, each slot repeated unless ``repeat`` is off;
        ``seeds(kind)`` gives each run's seed. Returns the summed CLI time."""
        total = 0.0
        for kind in workloads.KINDS:
            self.calibration.append(calibrate())
            overrides, repeats = self.slots[kind]
            ref = None
            if workloads.seed_free(kind, overrides):
                ref = self.references[workloads.reference_key(kind, overrides)]
            for _ in range(repeats if repeat else 1):
                seed = seeds(kind)
                seconds, code, out, cfg_path, err = self.invoke(kind, overrides, seed, tag, main)
                problems = self.check(kind, code, out, cfg_path, err, ref)
                self.record(f"{kind} seed={seed}", problems)
                total += seconds
                samples[f"{kind}_s"].append(seconds)
                if kind == "ecm" and code == 0:
                    iterations = checks.ecm_iterations(out)
                    samples["ecm_iterations"].append(iterations)
                    samples["ecm_ms_per_iter"].append(1e3 * seconds / iterations)
        return total


def untraced(client: Client, seed: int, deadline: float) -> dict:
    """Closed loop until the deadline; the i-th run of a kind has seed + i.

    Set-up is timed between rotations, SETUP_REPS times at even intervals
    over the run, after one untimed start that compiles and caches. Each
    time is reported as a trimmed mean, scaled from the machine's speed
    during the run, as the calibration passes measured it, to its reference
    speed."""
    samples: dict[str, list[float]] = defaultdict(list)
    runs: dict[str, int] = defaultdict(int)

    def seeds(kind: str) -> int:
        runs[kind] += 1
        return seed + runs[kind] - 1

    setup_probe()
    setup: list[float] = []
    first = time.perf_counter()
    interval = (deadline - first) / SETUP_REPS
    while True:
        while len(setup) < SETUP_REPS and time.perf_counter() >= first + len(setup) * interval:
            setup.append(setup_probe())
        started = time.perf_counter()
        client.rotation(seeds, "timed", samples)
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    while len(setup) < SETUP_REPS // 3:  # a run too short for the schedule
        setup.append(setup_probe())
    samples["setup_s"] = setup
    iterations = samples.pop("ecm_iterations", [])
    stats = {name: {"raw": trimmed_mean(v), "median": statistics.median(v),
                    "tail": tail(v), "samples": len(v)} for name, v in samples.items()}
    if iterations:  # all ecm time over all iterations: long fits weigh by their length
        stats["ecm_ms_per_iter"]["raw"] = sum(
            ms * n for ms, n in zip(samples["ecm_ms_per_iter"], iterations)) / sum(iterations)
    # the time each would have taken at the reference speed of the machine
    calibration = trimmed_mean(client.calibration)
    for entry in stats.values():
        entry["value"] = entry["raw"] * REFERENCE_CALIBRATION_S / calibration
    return {"times": stats, "calibration": {"seconds": calibration,
                                            "samples": len(client.calibration)}}


def traced(client: Client, seed: int, deadline: float) -> dict:
    """Alternate untraced and traced rotations until the deadline.

    Every run has the same seed and each kind runs once per rotation, so the
    per-layer numbers describe one run of each kind and the counts repeat.
    They are medians over the traced rotations; the tracing overhead is the
    difference of the two rotation medians."""
    plain, spanned, layers = [], [], []
    while True:
        started = time.perf_counter()
        plain.append(client.rotation(lambda kind: seed, "untraced", defaultdict(list), False))
        tracer = Tracer()
        tracer.install()
        try:
            wall = client.rotation(lambda kind: seed, "traced", defaultdict(list), False,
                                   lambda argv: tracer.run(f"{seed}/{len(layers)}/{argv[0]}",
                                                           cli.main, argv))
        finally:
            tracer.uninstall()
        spanned.append(wall)
        layers.append(layer_metrics(tracer.counts, tracer.breakdown(), wall))
        if time.perf_counter() + (time.perf_counter() - started) > deadline:
            break
    for rot in layers[1:]:
        moved = [m for m in COUNT_METRICS if rot[m] != layers[0][m]]
        if moved:
            client.failures.append(f"traced counts differ between rotations: {moved}")
    result = median_metrics(layers)
    result["trace.overhead_s"] = statistics.median(spanned) - statistics.median(plain)
    return {"layers": result, "rotations": len(layers)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    client = Client(args.workload, args.out)
    started = time.perf_counter()
    digests = client.reference_pass()
    deadline = started + args.seconds
    measure = traced if args.trace else untraced
    result = measure(client, args.seed, deadline)
    result.update({
        "attempted": client.attempted,
        "failures": client.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest_match": digests,
        "fingerprint": fingerprint(ROOT),
    })
    args.result.write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
