"""Experiment runners: config loading, CSV/SVG artifacts, run manifests.

Each experiment kind (field, gd, ecm, fim, nn) reads one YAML config, writes
deterministic CSVs (schema version stamped in a header comment) plus an SVG,
and records every emitted file with a sha256 digest in run_manifest.json.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dynamics import TrueModel, flow_field, integrate_gd
from .ecm import ECMConfig, fit_ecm_relative, fit_em_standard
from .fim import PSD_TOL, SYMMETRY_TOL, SingularFimError, fim_estimate, transform_fim
from .gmm import MixtureParams, MixtureError, sample
from .nn import MLPParams, detect_singularities, report_lines
from .reparam import ReparamSpec, SingularPointError, jacobian, to_relative
from .svgplot import SvgCanvas, Viewport, draw_axes, draw_quiver, map_polyline, MARGIN

SCHEMA_VERSION = 1

KINDS = ("field", "gd", "ecm", "fim", "nn")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class ConvergenceError(RuntimeError):
    """An optimization run failed to converge within its budget."""


DEFAULTS: dict[str, dict] = {
    "field": {
        "kind": "field", "seed": 0, "eta": 1.0, "v": 0.5,
        "grid": {"min": -2.0, "max": 2.0, "step": 0.1},
        "true_means": [0.0, 0.0],
        "reparam": {"order_by": "mean", "clearance": 0.0, "encoding": "squared"},
    },
    "gd": {
        "kind": "gd", "seed": 0, "eta": 0.05, "steps": 200, "v": 0.5,
        "init_means": [-1.5, 1.5], "true_means": [0.0, 0.0],
        "gradient_source": "expected",
        "reparam": {"order_by": "mean", "clearance": 0.0, "encoding": "squared"},
    },
    "ecm": {
        "kind": "ecm", "seed": 12, "n_samples": 200,
        "true_means": [-5.1, -5.0], "init_means": [-2.5, 2.0],
        "epsilon": 1e-8, "max_iters": 10000,
        "reparam": {"order_by": "mean", "clearance": 0.0, "encoding": "raw_constrained"},
    },
    "fim": {
        "kind": "fim", "seed": 0, "means": [-5.1, -5.0], "v": 0.5,
        "budget": 200000,
        "reparam": {"order_by": "mean", "clearance": 0.0, "encoding": "raw_constrained"},
    },
    "nn": {
        "kind": "nn", "seed": 0, "activation": "identity",
        "sizes": [3, 4, 1], "tol": 1e-6,
        "inject": ["elimination", "overlap", "linear_dependence"],
    },
}


def default_config(kind: str) -> dict:
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    return json.loads(json.dumps(DEFAULTS[kind]))


def load_config(path: str | Path, overrides: dict | None = None) -> dict:
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("config must be a mapping with a 'kind' field")
    cfg = default_config(str(raw["kind"]))
    cfg.update(raw)
    if overrides:
        cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _reparam_spec(cfg: dict) -> ReparamSpec:
    rp = cfg.get("reparam", {})
    try:
        return ReparamSpec(
            ordering_coordinate=rp.get("order_by", "mean"),
            clearance=float(rp.get("clearance", 0.0)),
            delta_encoding=rp.get("encoding", "squared"),
        )
    except MixtureError as exc:
        raise ConfigError(f"bad reparam block: {exc}") from exc


def _fmt_float(x: float) -> str:
    return repr(float(x))


def write_csv(path: Path, header_cols: list[str], rows) -> None:
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(header_cols)]
    for row in rows:
        lines.append(",".join(_fmt_float(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class RunManifest:
    """Digest record of one experiment run."""

    config_digest: str
    tool_version: str
    wall_time_s: float
    files: dict[str, str]

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "run_manifest.json"
        path.write_text(json.dumps({
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "wall_time_s": round(self.wall_time_s, 3),
            "files": self.files,
        }, indent=2, sort_keys=True) + "\n")
        return path


def _finish(cfg: dict, out_dir: Path, started: float, emitted: list[Path]) -> RunManifest:
    cfg_digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    manifest = RunManifest(
        config_digest=cfg_digest, tool_version=__version__,
        wall_time_s=time.monotonic() - started,
        files={p.name: _digest(p) for p in emitted},
    )
    manifest.write(out_dir)
    return manifest


def _true_model(cfg: dict, v: float) -> TrueModel:
    m = cfg["true_means"]
    return TrueModel(MixtureParams(weights=(v, 1.0 - v),
                                   means=(float(m[0]), float(m[1])),
                                   sigmas=(1.0, 1.0)))


def run_field(cfg: dict, out_dir: Path) -> RunManifest:
    """Flow fields for both parameterizations on one grid: CSV + quiver SVG."""
    started = time.monotonic()
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = cfg["grid"]
    try:
        spec = (float(grid["min"]), float(grid["max"]), float(grid["step"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid block {grid!r}: needs min/max/step") from exc
    if not (0.0 < spec[2] < np.inf and 0.0 <= spec[1] - spec[0] < np.inf):
        raise ConfigError(f"bad grid block {grid!r}: needs finite min <= max and step > 0")
    v, eta = float(cfg["v"]), float(cfg["eta"])
    true = _true_model(cfg, v)
    fields = {p: flow_field(spec, spec, v, true, parameterization=p, eta=eta)
              for p in ("original", "relative")}

    rows = []
    for pname, ff in fields.items():
        for i, m2 in enumerate(ff.mu2_axis):
            for j, m1 in enumerate(ff.mu1_axis):
                rows.append((float(m1), float(m2), float(ff.dmu1[i, j]),
                             float(ff.dmu2[i, j]), pname))
    csv_path = out_dir / "flow_field.csv"
    write_csv(csv_path, ["mu1", "mu2", "dmu1_dt", "dmu2_dt", "parameterization"], rows)

    vp = Viewport(spec[0], spec[1], spec[0], spec[1])
    canvas = SvgCanvas(2 * (vp.width + 2 * MARGIN), vp.height + 2 * MARGIN)
    for idx, (pname, ff) in enumerate(fields.items()):
        off = idx * (vp.width + 2 * MARGIN)
        draw_axes(canvas, vp, "mu1", "mu2", title=pname, x_offset=off)
        g1, g2 = np.meshgrid(ff.mu1_axis, ff.mu2_axis)
        draw_quiver(canvas, vp, g1, g2, ff.dmu1, ff.dmu2, x_offset=off)
        canvas.marker(vp.px(true.params.means[0]) + off, vp.py(true.params.means[1]))
    svg_path = out_dir / "flow_field.svg"
    svg_path.write_text(canvas.render())
    return _finish(cfg, out_dir, started, [csv_path, svg_path])


def run_gd(cfg: dict, out_dir: Path) -> RunManifest:
    """Gradient-descent trajectories under both parameterizations."""
    started = time.monotonic()
    out_dir.mkdir(parents=True, exist_ok=True)
    v, eta, steps = float(cfg["v"]), float(cfg["eta"]), int(cfg["steps"])
    init = (float(cfg["init_means"][0]), float(cfg["init_means"][1]))
    source = cfg["gradient_source"]
    if source == "expected":
        data_or_true = _true_model(cfg, v)
    else:
        truth = _true_model(cfg, v)
        data_or_true = sample(truth.params, int(cfg.get("n_samples", 200)), int(cfg["seed"]))
    emitted = []
    trajs = {}
    for pname in ("original", "relative"):
        traj = integrate_gd(init, data_or_true, eta, steps, parameterization=pname,
                            gradient_source=source, v=v)
        trajs[pname] = traj
        rows = [(s, float(traj.mu1[s]), float(traj.mu2[s]), float(traj.delta[s]),
                 float(traj.loglik[s]), float(traj.dist_to_true[s]))
                for s in range(len(traj.mu1))]
        path = out_dir / f"gd_trajectory_{pname}.csv"
        write_csv(path, ["step", "mu1", "mu2", "delta", "loglik", "dist_to_true"], rows)
        emitted.append(path)
    diverged = [pname for pname, traj in trajs.items() if traj.diverged]
    if diverged:
        _finish(cfg, out_dir, started, emitted)
        raise ConvergenceError(f"{', '.join(diverged)} gradient-descent run diverged")

    lo = min(min(t.mu1.min(), t.mu2.min()) for t in trajs.values())
    hi = max(max(t.mu1.max(), t.mu2.max()) for t in trajs.values())
    vp = Viewport(lo, hi, lo, hi)
    canvas = SvgCanvas(vp.width + 2 * MARGIN, vp.height + 2 * MARGIN)
    draw_axes(canvas, vp, "mu1", "mu2", title="gradient descent")
    canvas.polyline(map_polyline(vp, trajs["original"].mu1, trajs["original"].mu2), stroke="red")
    canvas.polyline(map_polyline(vp, trajs["relative"].mu1, trajs["relative"].mu2), stroke="blue")
    svg_path = out_dir / "gd_trajectory.svg"
    svg_path.write_text(canvas.render())
    emitted.append(svg_path)
    return _finish(cfg, out_dir, started, emitted)


def run_ecm(cfg: dict, out_dir: Path) -> RunManifest:
    """Standard EM vs relative ECM on identical data; comparison CSV + 4-panel SVG."""
    started = time.monotonic()
    out_dir.mkdir(parents=True, exist_ok=True)
    truth = MixtureParams(weights=(0.5, 0.5),
                          means=(float(cfg["true_means"][0]), float(cfg["true_means"][1])),
                          sigmas=(1.0, 1.0))
    data = sample(truth, int(cfg["n_samples"]), int(cfg["seed"]))
    init = MixtureParams(weights=(0.5, 0.5),
                         means=(float(cfg["init_means"][0]), float(cfg["init_means"][1])),
                         sigmas=(1.0, 1.0))
    config = ECMConfig(epsilon=float(cfg["epsilon"]), max_iters=int(cfg["max_iters"]))
    spec = _reparam_spec(cfg)
    # baseline is vanilla EM with every block free; the relative ECM keeps
    # weights and sigmas fixed at their configured values
    em_config = ECMConfig(epsilon=config.epsilon, max_iters=config.max_iters,
                          fix_weights=False, fix_sigmas=False)
    em = fit_em_standard(data, init, em_config, truth=truth)
    ecm = fit_ecm_relative(data, to_relative(init, spec), config, truth=truth, spec=spec)

    rows = []
    for res in (em, ecm):
        for s, p in enumerate(res.trajectory_params):
            rows.append((s, float(p.means[0]), float(p.means[1]),
                         float(abs(p.means[1] - p.means[0])),
                         float(res.loglik[s]), float(res.dist_to_true[s]),
                         res.algorithm))
    csv_path = out_dir / "ecm_trajectories.csv"
    write_csv(csv_path, ["step", "mu1", "mu2", "delta", "loglik",
                         "dist_to_true", "algorithm"], rows)

    panel_w, gap = 320.0, 2 * MARGIN

    def panel_vp(series_x, series_y):
        xs = np.concatenate(series_x)
        ys = np.concatenate(series_y)
        pad_x = 0.05 * (xs.max() - xs.min() or 1.0)
        pad_y = 0.05 * (ys.max() - ys.min() or 1.0)
        return Viewport(xs.min() - pad_x, xs.max() + pad_x,
                        ys.min() - pad_y, ys.max() + pad_y,
                        width=panel_w, height=panel_w)

    def means_arrays(res):
        m1 = np.asarray([p.means[0] for p in res.trajectory_params])
        m2 = np.asarray([p.means[1] for p in res.trajectory_params])
        return m1, m2

    em_m1, em_m2 = means_arrays(em)
    ecm_m1, ecm_m2 = means_arrays(ecm)
    canvas = SvgCanvas(4 * (panel_w + gap), panel_w + 2 * MARGIN)

    vp_a = panel_vp([em_m1, ecm_m1], [em_m2, ecm_m2])
    draw_axes(canvas, vp_a, "mu1", "mu2", title="a) original coords", x_offset=0)
    canvas.polyline(map_polyline(vp_a, em_m1, em_m2), stroke="red")
    canvas.polyline(map_polyline(vp_a, ecm_m1, ecm_m2), stroke="blue")
    diag = [(vp_a.px(vp_a.xmin), vp_a.py(vp_a.xmin)), (vp_a.px(vp_a.xmax), vp_a.py(vp_a.xmax))]
    canvas.polyline(diag, stroke="black", width=0.8)
    canvas.marker(vp_a.px(truth.means[0]), vp_a.py(truth.means[1]))

    off = panel_w + gap
    em_ref, em_delta = np.minimum(em_m1, em_m2), np.abs(em_m2 - em_m1)
    ecm_ref, ecm_delta = np.minimum(ecm_m1, ecm_m2), np.abs(ecm_m2 - ecm_m1)
    vp_b = panel_vp([em_ref, ecm_ref], [em_delta, ecm_delta])
    draw_axes(canvas, vp_b, "mu1", "delta", title="b) relative coords", x_offset=off)
    canvas.polyline(map_polyline(vp_b, em_ref, em_delta, x_offset=off), stroke="red")
    canvas.polyline(map_polyline(vp_b, ecm_ref, ecm_delta, x_offset=off), stroke="blue")

    off = 2 * (panel_w + gap)
    it_em = np.arange(len(em.loglik), dtype=float)
    it_ecm = np.arange(len(ecm.loglik), dtype=float)
    vp_c = panel_vp([it_em, it_ecm], [em.loglik, ecm.loglik])
    draw_axes(canvas, vp_c, "iteration", "loglik", title="c) log likelihood", x_offset=off)
    canvas.polyline(map_polyline(vp_c, it_em, em.loglik, x_offset=off), stroke="red")
    canvas.polyline(map_polyline(vp_c, it_ecm, ecm.loglik, x_offset=off), stroke="blue")

    off = 3 * (panel_w + gap)
    vp_d = panel_vp([it_em, it_ecm], [em.dist_to_true, ecm.dist_to_true])
    draw_axes(canvas, vp_d, "iteration", "distance", title="d) distance to truth", x_offset=off)
    canvas.polyline(map_polyline(vp_d, it_em, em.dist_to_true, x_offset=off), stroke="red")
    canvas.polyline(map_polyline(vp_d, it_ecm, ecm.dist_to_true, x_offset=off), stroke="blue")

    svg_path = out_dir / "ecm_comparison.svg"
    svg_path.write_text(canvas.render())
    manifest = _finish(cfg, out_dir, started, [csv_path, svg_path])
    if not (em.converged and ecm.converged):
        raise ConvergenceError("EM/ECM did not converge within the iteration budget")
    return manifest


def run_fim(cfg: dict, out_dir: Path) -> RunManifest:
    """Direct vs transformed Fisher matrices, residuals, symmetry/PSD report."""
    started = time.monotonic()
    means = (float(cfg["means"][0]), float(cfg["means"][1]))
    v = float(cfg["v"])
    params = MixtureParams(weights=(v, 1.0 - v), means=means, sigmas=(1.0, 1.0))
    spec = _reparam_spec(cfg)
    rel = to_relative(params, spec)
    jac = jacobian(rel, spec)
    budget, seed = int(cfg["budget"]), int(cfg["seed"])

    # raises SingularFimError before anything is written
    direct = fim_estimate(params, coords="relative_means", method="monte_carlo",
                          budget=budget, seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    absolute = fim_estimate(params, coords="means", method="monte_carlo",
                            budget=budget, seed=seed + 1)
    transformed = transform_fim(absolute, jac)
    residual = np.abs(direct.entries - transformed.entries)
    bound = 4.0 * np.sqrt(direct.std_errors ** 2 + transformed.std_errors ** 2)
    ok = bool(np.all(residual <= bound))

    emitted = []
    matrices = (("fim_direct_relative", direct), ("fim_absolute", absolute),
                ("fim_transformed", transformed))
    for name, fm in matrices:
        path = out_dir / f"{name}.csv"
        path.write_text(fm.to_csv())
        emitted.append(path)
    asymmetry = max(float(np.max(np.abs(fm.entries - fm.entries.T))) for _, fm in matrices)
    min_eig = min(float(np.min(np.linalg.eigvalsh(fm.entries))) for _, fm in matrices)
    report = out_dir / "fim_report.txt"
    lines = [
        f"residual_max: {float(residual.max())!r}",
        f"bound_max: {float(bound.max())!r}",
        f"covariance_law: {'PASS' if ok else 'FAIL'}",
        f"max_asymmetry: {asymmetry!r}",
        f"min_eigenvalue: {min_eig!r}",
        f"symmetry: {'PASS' if asymmetry <= SYMMETRY_TOL else 'FAIL'}",
        f"psd: {'PASS' if min_eig >= -PSD_TOL else 'FAIL'}",
    ]
    report.write_text("\n".join(lines) + "\n")
    emitted.append(report)
    return _finish(cfg, out_dir, started, emitted)


def _build_nn(cfg: dict) -> MLPParams:
    from .gmm import make_rng

    sizes = [int(s) for s in cfg["sizes"]]
    if len(sizes) < 2:
        raise ConfigError("nn sizes needs at least input and output widths")
    rng = make_rng(int(cfg["seed"]))
    ws = [rng.standard_normal((sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)]
    bs = [rng.standard_normal(sizes[i + 1]) for i in range(len(sizes) - 1)]
    inject = cfg.get("inject", [])
    if len(sizes) >= 3:
        if "elimination" in inject:
            ws[0][:, 0] = 0.0
        if "overlap" in inject and sizes[1] >= 3:
            ws[0][:, 2] = ws[0][:, 1]
        if "linear_dependence" in inject and sizes[1] >= 4:
            ws[0][:, 3] = 2.0 * ws[0][:, 1] + 3.0 * ws[0][:, 2]
    return MLPParams(weights=tuple(ws), biases=tuple(bs), activation=cfg["activation"])


def run_nn(cfg: dict, out_dir: Path) -> RunManifest:
    """Singularity report for a (possibly constructed-singular) toy network."""
    started = time.monotonic()
    out_dir.mkdir(parents=True, exist_ok=True)
    mlp = _build_nn(cfg)
    report = detect_singularities(mlp, tol=float(cfg["tol"]))
    txt_path = out_dir / "nn_report.txt"
    txt_path.write_text("\n".join(report_lines(report)) + "\n")
    rows = []
    for layer, unit, norm in report.elimination:
        rows.append(("elimination", layer, unit, -1, float(norm)))
    for layer, i, j, sign, gap in report.overlap:
        rows.append((f"overlap{'+' if sign > 0 else '-'}", layer, i, j, float(gap)))
    for layer, triple, resid in report.linear_dependence:
        rows.append(("linear_dependence", layer, triple[0], triple[1], float(resid)))
    csv_path = out_dir / "nn_report.csv"
    write_csv(csv_path, ["kind", "layer", "index_a", "index_b", "value"], rows)
    return _finish(cfg, out_dir, started, [txt_path, csv_path])


RUNNERS = {"field": run_field, "gd": run_gd, "ecm": run_ecm, "fim": run_fim, "nn": run_nn}
