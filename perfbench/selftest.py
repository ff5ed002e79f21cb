"""Self-tests of the benchmark's own checker and output.

    python3 perfbench/selftest.py

Each test feeds the checks a run that must fail (a perturbed ECM mean, a
dropped network hit, a nonzero exit), checks the trimmed mean the timings
are reported as, or checks that the benchmark prints every metric named in
BENCHMARK.json with its unit. The file is not named
``test_*.py`` so the package's pytest suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from client import GOLDEN_ECM, Client, trimmed_mean  # noqa: E402


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.out = HERE / "_out" / "selftest"
        self.client = Client("scaled_grids", self.out)

    def tearDown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run_default(self, kind: str) -> Path:
        _, code, out, cfg_path, err = self.client.invoke(kind, {}, None, "selftest")
        self.assertEqual(self.client.check(kind, code, out, cfg_path, err, None), [], err)
        return out

    def test_perturbed_ecm_mean_fails(self):
        out = self.run_default("ecm")
        csv = out / "ecm_trajectories.csv"
        self.assertEqual(checks.check_ecm_golden(csv, GOLDEN_ECM), [])
        lines = csv.read_text().splitlines()
        row = lines[5].split(",")
        row[1] = repr(float(row[1]) * (1 + 1e-9))
        lines[5] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n")
        self.assertTrue(checks.check_ecm_golden(csv, GOLDEN_ECM))

    def test_negative_delta_fails(self):
        out = self.run_default("ecm")
        csv = out / "ecm_trajectories.csv"
        lines = csv.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.endswith(",ecm_relative"))
        row = lines[k + 3].split(",")
        row[1], row[2] = row[2], row[1]
        lines[k + 3] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n")
        self.assertTrue(any("Delta < 0" in p for p in checks.check_ecm(out, {})))

    def test_dropped_nn_hit_fails(self):
        out = self.run_default("nn")
        report = out / "nn_report.txt"
        lines = report.read_text().splitlines()
        dropped = [line for line in lines if not line.startswith("linear_dependence")]
        dropped += [line for line in lines if line.startswith("linear_dependence")][1:]
        report.write_text("\n".join(dropped) + "\n")
        cfg = {"sizes": [3, 4, 1], "inject": ["elimination", "overlap", "linear_dependence"],
               "activation": "identity"}
        self.assertTrue(any("missing" in p for p in checks.check_nn(out, cfg)))

    def test_nonzero_exit_fails(self):
        # means on the overlap singularity: the CLI refuses with exit code 4
        _, code, out, cfg_path, err = self.client.invoke(
            "fim", {"means": [-5.0, -5.0]}, None, "selftest")
        self.assertEqual(code, 4)
        problems = self.client.check("fim", code, out, cfg_path, err, None)
        self.assertFalse(self.client.record("fim overlap", problems))
        self.assertEqual((self.client.attempted, len(self.client.failures)), (1, 1))


class StatisticTest(unittest.TestCase):
    def test_trimmed_mean_drops_both_ends(self):
        samples = [1.0] * 8 + [0.0, 100.0]
        self.assertEqual(trimmed_mean(samples), 1.0)
        self.assertEqual(trimmed_mean([1.0, 1.0, 1.0, 1.0, 9.0]), 1.0)
        self.assertEqual(trimmed_mean([1.0, 3.0]), 2.0)


class OutputTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", "scaled_grids",
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual({m["name"]: m["unit"] for m in wanted},
                             {k: v["unit"] for k, v in result["metrics"].items()})
            for m in wanted:
                value = result["metrics"][m["name"]]["value"]
                self.assertIn(f"{m['name']}: {value!r} {m['unit']}", lines)


if __name__ == "__main__":
    unittest.main()
