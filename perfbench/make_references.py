"""Write references.json: compact summaries of the outputs the checks compare.

Covers every kind at its shipped config and default seed (ECM is compared
with the test suite's golden CSV instead), and every seed-free config a
workload runs. Run from the repository root, with the package on the path,
only when the reference outputs are meant to change:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_references.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

import yaml
from relreparam import cli

import checks
import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    work = HERE / "_out" / "references"
    runs = {workloads.reference_key(kind, {}): (kind, {})
            for kind in workloads.KINDS if kind != "ecm"}
    for table in workloads.WORKLOADS.values():
        for kind, (overrides, _) in table.items():
            if workloads.seed_free(kind, overrides):
                runs[workloads.reference_key(kind, overrides)] = (kind, overrides)
    refs = {}
    try:
        for key, (kind, overrides) in sorted(runs.items()):
            work.mkdir(parents=True, exist_ok=True)
            cfg_path = work / f"{kind}.yaml"
            cfg_path.write_text(yaml.safe_dump(workloads.config(kind, overrides, None)))
            out = work / kind
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([kind, "--config", str(cfg_path), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{key}: exit code {code}")
            refs[key] = {name: checks.summarize(out / name) for name in checks.OUTPUT_FILES[kind]}
            print(f"{key}: {', '.join(checks.OUTPUT_FILES[kind])}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
