"""Correctness checks on the files one CLI run leaves in its output directory.

Every check returns a list of problems; an empty list means the run passed.
Three kinds of check exist:

* invariants that hold at any seed (finite values, Delta >= 0, EM/ECM
  log-likelihood non-decreasing, Fisher covariance law within its bound,
  exactly the injected network singularities);
* comparison with a reference stored at the seed commit
  (``references.json``, written by ``make_references.py``), for runs whose
  inputs are fixed: the default config at its default seed, and the kinds
  that draw no random numbers;
* comparison of the default ECM run with the golden CSV of the test suite.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from itertools import combinations
from pathlib import Path

import numpy as np

# Reference comparisons: every number within this relative or absolute
# distance. The outputs are deterministic, so only the BLAS kernel's
# reduction order may move them (a few ulp, ~1e-15 relative).
REL_TOL = 1e-12
ABS_TOL = 1e-12
# Sampled rows kept per reference file; column sums cover the rest.
SAMPLE_ROWS = 64
# Log-likelihood may fall by this share of its size between iterations
# before EM/ECM counts as non-monotone (rounding of an n-point sum).
LOGLIK_REL_SLACK = 1e-12

OUTPUT_FILES = {
    "field": ("flow_field.csv",),
    "gd": ("gd_trajectory_original.csv", "gd_trajectory_relative.csv"),
    "ecm": ("ecm_trajectories.csv",),
    "fim": ("fim_direct_relative.csv", "fim_absolute.csv", "fim_transformed.csv"),
    "nn": ("nn_report.csv",),
}


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_rows(path: Path) -> list[list]:
    """Non-comment CSV lines, each cell a float where it parses as one."""
    return [[_cell(c) for c in line.split(",")]
            for line in path.read_text().splitlines() if line and not line.startswith("#")]


def _numeric_columns(rows: list[list]) -> list[int]:
    body = [r for r in rows if any(isinstance(c, float) for c in r)]
    if not body:
        return []
    return [i for i in range(len(body[0])) if all(isinstance(r[i], float) for r in body)]


def summarize(path: Path) -> dict:
    """Compact reference of one CSV: row count, evenly sampled rows, and the
    exact sum and absolute sum of every numeric column."""
    rows = read_rows(path)
    stride = max(1, len(rows) // SAMPLE_ROWS)
    body = [r for r in rows if any(isinstance(c, float) for c in r)]
    sums = {str(i): [math.fsum(r[i] for r in body), math.fsum(abs(r[i]) for r in body)]
            for i in _numeric_columns(rows)}
    return {"rows": len(rows), "stride": stride, "sample": rows[::stride], "sums": sums}


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def compare_summary(name: str, ref: dict, got: dict) -> list[str]:
    if ref["rows"] != got["rows"]:
        return [f"{name}: {got['rows']} rows, reference has {ref['rows']}"]
    problems = []
    for k, (want, have) in enumerate(zip(ref["sample"], got["sample"])):
        if len(want) != len(have) or not all(_close(a, b) for a, b in zip(want, have)):
            problems.append(f"{name}: row {k * ref['stride']} is {have}, reference {want}")
            break
    for col, (want, want_abs) in ref["sums"].items():
        have = got["sums"].get(col, [math.nan])[0]
        if not abs(have - want) <= REL_TOL * want_abs + ABS_TOL:
            problems.append(f"{name}: column {col} sums to {have!r}, reference {want!r}")
    return problems


def check_reference(kind: str, out: Path, ref: dict) -> list[str]:
    problems = []
    for fname in OUTPUT_FILES[kind]:
        problems += compare_summary(f"{kind}/{fname}", ref[fname], summarize(out / fname))
    return problems


def check_ecm_golden(path: Path, golden: Path) -> list[str]:
    """Same steps and algorithm column as the golden CSV, and every number
    within REL_TOL relative."""
    got, want = read_rows(path), read_rows(golden)
    if len(got) != len(want):
        return [f"ecm: {len(got) - 1} trajectory rows, golden has {len(want) - 1}"]
    for k, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w) or g[0] != w[0] or g[-1] != w[-1]:
            return [f"ecm: row {k} step/algorithm {g[0]}/{g[-1]} differs from golden {w[0]}/{w[-1]}"]
        for a, b in zip(g[1:-1], w[1:-1]):
            if isinstance(b, float) and not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                return [f"ecm: row {k} value {a!r} differs from golden {b!r} "
                        f"beyond {REL_TOL} relative"]
    return []


def _finite(rows, cols) -> bool:
    return all(math.isfinite(r[c]) for r in rows for c in cols)


def check_field(out: Path, cfg: dict) -> list[str]:
    rows = read_rows(out / "flow_field.csv")[1:]
    grid = cfg["grid"]
    n = int(round((grid["max"] - grid["min"]) / grid["step"])) + 1
    problems = []
    if len(rows) != 2 * n * n:
        problems.append(f"field: {len(rows)} cells, expected {2 * n * n}")
    if not _finite(rows, range(4)):
        problems.append("field: non-finite velocity")
    return problems


def check_gd(out: Path, cfg: dict) -> list[str]:
    problems = []
    for pname in ("original", "relative"):
        rows = read_rows(out / f"gd_trajectory_{pname}.csv")[1:]
        if [r[0] for r in rows] != [float(s) for s in range(cfg["steps"] + 1)]:
            problems.append(f"gd {pname}: steps are not 0..{cfg['steps']}")
        if not _finite(rows, range(1, 5)):
            problems.append(f"gd {pname}: non-finite value on the trajectory")
        if pname == "relative" and any(r[2] < r[1] for r in rows):
            problems.append("gd relative: Delta < 0 on the trajectory")
    return problems


def check_ecm(out: Path, cfg: dict) -> list[str]:
    rows = read_rows(out / "ecm_trajectories.csv")[1:]
    problems = []
    for algo in ("em", "ecm_relative"):
        block = [r for r in rows if r[-1] == algo]
        if [r[0] for r in block] != [float(s) for s in range(len(block))] or len(block) < 2:
            problems.append(f"ecm {algo}: steps are not 0..n")
            continue
        if not _finite(block, range(1, 5)):
            problems.append(f"ecm {algo}: non-finite value on the trajectory")
        lls = [r[4] for r in block]
        drops = [k for k in range(1, len(lls))
                 if lls[k] < lls[k - 1] - LOGLIK_REL_SLACK * max(1.0, abs(lls[k - 1]))]
        if drops:
            problems.append(f"ecm {algo}: log-likelihood decreases at step {drops[0]}")
        if algo == "ecm_relative" and any(r[2] < r[1] for r in block):
            problems.append("ecm relative: Delta < 0 on the trajectory")
    return problems


def ecm_iterations(out: Path) -> int:
    """EM plus ECM iterations of one ecm run (trajectory rows minus the two inits)."""
    return len(read_rows(out / "ecm_trajectories.csv")) - 3


def _report_number(text: str) -> float:
    """A float the report printed with repr, bare or as ``np.float64(...)``."""
    return float(re.fullmatch(r"(?:np\.float64\()?([^()]+)\)?", text).group(1))


def check_fim(out: Path, cfg: dict) -> list[str]:
    report = dict(line.split(": ", 1) for line in (out / "fim_report.txt").read_text().splitlines())
    problems = []
    if not _report_number(report["residual_max"]) <= _report_number(report["bound_max"]):
        problems.append(f"fim: residual {report['residual_max']} exceeds bound {report['bound_max']}")
    if report["covariance_law"] != "PASS":
        problems.append("fim: covariance law reported FAIL")
    for fname in OUTPUT_FILES["fim"]:
        mat = np.array(read_rows(out / fname), dtype=float)
        if not np.all(np.isfinite(mat)) or np.max(np.abs(mat - mat.T)) > 1e-10:
            problems.append(f"fim/{fname}: not a finite symmetric matrix")
        elif np.min(np.linalg.eigvalsh(mat)) < -1e-8:
            problems.append(f"fim/{fname}: not positive semi-definite")
    return problems


_NN_LINE = {
    "elimination": re.compile(r"elimination layer=(\d+) unit=(\d+) "),
    "overlap": re.compile(r"overlap layer=(\d+) units=\((\d+),(\d+)\) sign=([+-]\d+) "),
    "linear_dependence": re.compile(r"linear_dependence layer=(\d+) units=\((\d+), (\d+), (\d+)\) "),
}


def nn_hits(report_text: str) -> set[tuple]:
    hits = set()
    for line in report_text.splitlines():
        for kind, pattern in _NN_LINE.items():
            m = pattern.match(line)
            if m:
                hits.add((kind,) + tuple(int(g) for g in m.groups()))
    return hits


def expected_nn_hits(cfg: dict) -> set[tuple]:
    """The hits the injected singularities imply on hidden layer 0.

    Column 0 is zeroed, column 2 copies column 1 and column 3 becomes
    2*V1 + 3*V2 = 5*V1, so V1, V2, V3 are parallel. With at least three
    inputs every other column is generic: V_k lies in span(V_i, V_j)
    exactly when V_k is zero, or when V_k is in the parallel set and the
    pair holds another member of it.
    """
    fan_in, units = cfg["sizes"][0], cfg["sizes"][1]
    if (set(cfg["inject"]) != {"elimination", "overlap", "linear_dependence"}
            or cfg["activation"] != "identity" or len(cfg["sizes"]) != 3
            or fan_in < 3 or units < 4):
        raise ValueError("no expected-hit rule for this nn config")
    parallel = {1, 2, 3}
    hits = {("elimination", 0, 0), ("overlap", 0, 1, 2, 1)}
    for k in range(units):
        for i, j in combinations([u for u in range(units) if u != k], 2):
            if k == 0 or (k in parallel and {i, j} & (parallel - {k})):
                hits.add(("linear_dependence", 0, i, j, k))
    return hits


def check_nn(out: Path, cfg: dict) -> list[str]:
    got = nn_hits((out / "nn_report.txt").read_text())
    want = expected_nn_hits(cfg)
    problems = []
    if got != want:
        missing, extra = sorted(want - got), sorted(got - want)
        problems.append(f"nn: {len(missing)} injected hits missing {missing[:3]}, "
                        f"{len(extra)} unexpected {extra[:3]}")
    csv_rows = len(read_rows(out / "nn_report.csv")) - 1
    if csv_rows != len(got):
        problems.append(f"nn: report CSV has {csv_rows} rows for {len(got)} hits")
    return problems


INVARIANTS = {"field": check_field, "gd": check_gd, "ecm": check_ecm,
              "fim": check_fim, "nn": check_nn}


def digest_matches(out_root: Path, golden_digests: Path) -> dict[str, bool]:
    """Whether each pinned artifact's sha256 equals the committed one.

    Information only: the ECM digest depends on the BLAS kernel."""
    pinned = json.loads(golden_digests.read_text())
    return {name: (out_root / name).is_file()
            and hashlib.sha256((out_root / name).read_bytes()).hexdigest() == digest
            for name, digest in pinned.items()}
