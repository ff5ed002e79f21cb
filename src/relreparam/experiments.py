"""Experiment runners: config loading, CSV/SVG artifacts, run manifests.

Each kind's runner ``run_<kind>(cfg)`` (field, gd, ecm, fim, nn) builds its
config-derived values, computes in memory and returns ``(files, failure)``:
file names mapped to text or to a CSV's ``(header, columns)``, and None or the
ConvergenceError of a diverged or unconverged run. ``run`` alone writes: after
the runner returns it creates the directory, writes the deterministic files
(CSVs under a schema header comment) and run_manifest.json of their sha256s.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dynamics import GRADIENT_SOURCES, TrueModel, flow_field, integrate_gd
from .ecm import ECMConfig, fit_ecm_relative, fit_em_standard
from .fim import MIN_MC_BUDGET, PSD_TOL, SYMMETRY_TOL, fim_estimate, transform_fim
from .gmm import MixtureParams, MixtureError, make_rng, sample
from .nn import MLPParams, detect_singularities, report_lines
from .reparam import ReparamSpec, jacobian, to_relative
from .svgplot import SvgCanvas, Viewport, draw_axes, draw_quiver, map_polyline, MARGIN

SCHEMA_VERSION = 1


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
    """The run's ReparamSpec; keys its reparam block leaves out take the kind's defaults."""
    block = cfg.get("reparam", {})
    if not isinstance(block, dict):
        raise ConfigError(f"bad reparam block {block!r}: must be a mapping")
    rp = {**DEFAULTS[cfg["kind"]]["reparam"], **block}
    try:
        clearance = float(rp["clearance"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad reparam block: clearance {rp['clearance']!r} is not a number") from exc
    return ReparamSpec(ordering_coordinate=rp["order_by"], clearance=clearance,
                       delta_encoding=rp["encoding"])


@contextlib.contextmanager
def _config_values():
    """Report a value that fails its cast, a numpy argument check or a model
    check (MixtureError) while building config-derived values as a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def write_csv(path: Path, header_cols: list[str], columns) -> None:
    """Write equal-length columns (arrays, lists or ranges) under a schema line.

    Each cell is ``str`` of the element ``.tolist()`` gives, so a float is
    written as its ``repr`` and reads back to the same bits.
    """
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError(f"columns of unequal length for {path.name}")
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(header_cols)]
    lines += [",".join(map(str, cells)) for cells in zip(*cols)]
    path.write_text("\n".join(lines) + "\n")


def _finish(cfg: dict, out_dir: Path, started: float, names) -> dict:
    """Write run_manifest.json (config digest, tool version, wall time, digests
    of the named files) and return its contents."""
    manifest = {
        "config_digest": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
        "files": {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                  for name in names},
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def run(cfg: dict, out_dir: Path) -> dict:
    """Run ``cfg``'s experiment and write its files and manifest to ``out_dir``,
    created only once the runner has returned; a failure the runner returns
    is raised after the manifest is written. Returns the manifest."""
    started = time.monotonic()
    files, failure = RUNNERS[cfg["kind"]](cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, str):
            (out_dir / name).write_text(content)
        else:
            write_csv(out_dir / name, *content)
    manifest = _finish(cfg, out_dir, started, files)
    if failure is not None:
        raise failure
    return manifest


def _mixture(means, v: float) -> MixtureParams:
    """Unit-variance two-component mixture with weights (v, 1 - v), 0 < v < 1."""
    if not 0.0 < v < 1.0:
        raise MixtureError(f"v must lie in (0, 1), got {v!r}")
    return MixtureParams(weights=(v, 1.0 - v), means=(float(means[0]), float(means[1])),
                         sigmas=(1.0, 1.0))


def run_field(cfg: dict) -> tuple[dict, ConvergenceError | None]:
    """Flow fields for both parameterizations on one grid: CSV + quiver SVG."""
    grid = cfg["grid"]
    try:
        spec = (float(grid["min"]), float(grid["max"]), float(grid["step"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid block {grid!r}: needs min/max/step") from exc
    if not (0.0 < spec[2] < np.inf and 0.0 <= spec[1] - spec[0] < np.inf):
        raise ConfigError(f"bad grid block {grid!r}: needs finite min <= max and step > 0")
    with _config_values():
        v, eta = float(cfg["v"]), float(cfg["eta"])
        true = TrueModel(_mixture(cfg["true_means"], v))
    fields = {p: flow_field(spec, spec, v, true, parameterization=p, eta=eta)
              for p in ("original", "relative")}
    # (mu2, mu1)-shaped grids: raveled, each field's cells run mu2-major
    grids = {p: np.meshgrid(ff.mu1_axis, ff.mu2_axis) for p, ff in fields.items()}

    def stacked(arrays):
        return np.concatenate([a.ravel() for a in arrays])

    table = (["mu1", "mu2", "dmu1_dt", "dmu2_dt", "parameterization"], [
        stacked([g1 for g1, _ in grids.values()]),
        stacked([g2 for _, g2 in grids.values()]),
        stacked([ff.dmu1 for ff in fields.values()]),
        stacked([ff.dmu2 for ff in fields.values()]),
        [p for p, ff in fields.items() for _ in range(ff.dmu1.size)],
    ])

    vp = Viewport(spec[0], spec[1], spec[0], spec[1])
    canvas = SvgCanvas(2 * (vp.width + 2 * MARGIN), vp.height + 2 * MARGIN)
    for idx, (pname, ff) in enumerate(fields.items()):
        off = idx * (vp.width + 2 * MARGIN)
        draw_axes(canvas, vp, "mu1", "mu2", title=pname, x_offset=off)
        g1, g2 = grids[pname]
        draw_quiver(canvas, vp, g1, g2, ff.dmu1, ff.dmu2, x_offset=off)
        canvas.marker(vp.px(true.params.means[0]) + off, vp.py(true.params.means[1]))
    return {"flow_field.csv": table, "flow_field.svg": canvas.render()}, None


def run_gd(cfg: dict) -> tuple[dict, ConvergenceError | None]:
    """Gradient-descent trajectories under both parameterizations."""
    source = cfg["gradient_source"]
    if source not in GRADIENT_SOURCES:
        raise ConfigError(f"gradient_source must be one of {GRADIENT_SOURCES}, got {source!r}")
    with _config_values():
        v, eta, steps = float(cfg["v"]), float(cfg["eta"]), int(cfg["steps"])
        if not (eta > 0 and steps >= 1):
            raise ConfigError(f"need eta > 0 and steps >= 1, got eta={eta!r}, steps={steps!r}")
        init = (float(cfg["init_means"][0]), float(cfg["init_means"][1]))
        truth = _mixture(cfg["true_means"], v)
        if source == "expected":
            data_or_true = TrueModel(truth)
        else:
            data_or_true = sample(truth, int(cfg.get("n_samples", 200)), int(cfg["seed"]))
    trajs = {pname: integrate_gd(init, data_or_true, eta, steps, parameterization=pname,
                                 gradient_source=source, v=v)
             for pname in ("original", "relative")}
    files = {f"gd_trajectory_{pname}.csv": (
        ["step", "mu1", "mu2", "delta", "loglik", "dist_to_true"],
        [range(len(t.mu1)), t.mu1, t.mu2, t.delta, t.loglik, t.dist_to_true])
        for pname, t in trajs.items()}
    diverged = [pname for pname, traj in trajs.items() if traj.diverged]
    if diverged:
        return files, ConvergenceError(f"{', '.join(diverged)} gradient-descent run diverged")

    lo = min(min(t.mu1.min(), t.mu2.min()) for t in trajs.values())
    hi = max(max(t.mu1.max(), t.mu2.max()) for t in trajs.values())
    vp = Viewport(lo, hi, lo, hi)
    canvas = SvgCanvas(vp.width + 2 * MARGIN, vp.height + 2 * MARGIN)
    draw_axes(canvas, vp, "mu1", "mu2", title="gradient descent")
    canvas.polyline(map_polyline(vp, trajs["original"].mu1, trajs["original"].mu2), stroke="red")
    canvas.polyline(map_polyline(vp, trajs["relative"].mu1, trajs["relative"].mu2), stroke="blue")
    files["gd_trajectory.svg"] = canvas.render()
    return files, None


def run_ecm(cfg: dict) -> tuple[dict, ConvergenceError | None]:
    """Standard EM vs relative ECM on identical data; comparison CSV + 4-panel SVG."""
    with _config_values():
        truth = _mixture(cfg["true_means"], 0.5)
        data = sample(truth, int(cfg["n_samples"]), int(cfg["seed"]))
        init = _mixture(cfg["init_means"], 0.5)
        config = ECMConfig(epsilon=float(cfg["epsilon"]), max_iters=int(cfg["max_iters"]))
        spec = _reparam_spec(cfg)
    # baseline is vanilla EM with every block free; the relative ECM keeps
    # weights and sigmas fixed at their configured values
    em_config = ECMConfig(epsilon=config.epsilon, max_iters=config.max_iters,
                          fix_weights=False, fix_sigmas=False)
    em = fit_em_standard(data, init, em_config, truth=truth)
    ecm = fit_ecm_relative(data, to_relative(init, spec), config, truth=truth, spec=spec)

    # per fit, in the order (em, ecm): each series read once, for the CSV and the panels
    fits = (em, ecm)
    means = [np.array([p.means for p in res.trajectory_params]) for res in fits]
    mu1 = [m[:, 0] for m in means]
    mu2 = [m[:, 1] for m in means]
    delta = [np.abs(b - a) for a, b in zip(mu1, mu2)]
    steps = [np.arange(len(m)) for m in means]
    loglik = [res.loglik for res in fits]
    dist = [res.dist_to_true for res in fits]
    table = (["step", "mu1", "mu2", "delta", "loglik", "dist_to_true", "algorithm"],
             [np.concatenate(series) for series in (steps, mu1, mu2, delta, loglik, dist)]
             + [[res.algorithm for res in fits for _ in res.trajectory_params]])

    panel_w, gap = 320.0, 2 * MARGIN

    def panel_vp(series_x, series_y):
        xs = np.concatenate(series_x)
        ys = np.concatenate(series_y)
        pad_x = 0.05 * (xs.max() - xs.min() or 1.0)
        pad_y = 0.05 * (ys.max() - ys.min() or 1.0)
        return Viewport(xs.min() - pad_x, xs.max() + pad_x,
                        ys.min() - pad_y, ys.max() + pad_y,
                        width=panel_w, height=panel_w)

    iteration = [s.astype(float) for s in steps]
    panels = (
        (mu1, mu2, "mu1", "mu2", "a) original coords"),
        ([np.minimum(a, b) for a, b in zip(mu1, mu2)], delta, "mu1", "delta",
         "b) relative coords"),
        (iteration, loglik, "iteration", "loglik", "c) log likelihood"),
        (iteration, dist, "iteration", "distance", "d) distance to truth"),
    )
    canvas = SvgCanvas(4 * (panel_w + gap), panel_w + 2 * MARGIN)
    for idx, (xs, ys, xlabel, ylabel, title) in enumerate(panels):
        off = idx * (panel_w + gap)
        vp = panel_vp(xs, ys)
        draw_axes(canvas, vp, xlabel, ylabel, title=title, x_offset=off)
        for x, y, stroke in zip(xs, ys, ("red", "blue")):
            canvas.polyline(map_polyline(vp, x, y, x_offset=off), stroke=stroke)
        if idx == 0:  # the mu1 = mu2 diagonal and the truth, over panel a's paths
            canvas.polyline([(vp.px(vp.xmin), vp.py(vp.xmin)), (vp.px(vp.xmax), vp.py(vp.xmax))],
                            stroke="black", width=0.8)
            canvas.marker(vp.px(truth.means[0]), vp.py(truth.means[1]))

    failure = None if em.converged and ecm.converged else ConvergenceError(
        "EM/ECM did not converge within the iteration budget")
    return {"ecm_trajectories.csv": table, "ecm_comparison.svg": canvas.render()}, failure


def run_fim(cfg: dict) -> tuple[dict, ConvergenceError | None]:
    """Direct vs transformed Fisher matrices, residuals, symmetry/PSD report."""
    with _config_values():
        params = _mixture(cfg["means"], float(cfg["v"]))
        spec = _reparam_spec(cfg)
        budget, seed = int(cfg["budget"]), int(cfg["seed"])
    if budget < MIN_MC_BUDGET:
        raise ConfigError(f"budget must be at least {MIN_MC_BUDGET}, got {budget!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed!r}")
    rel = to_relative(params, spec)
    jac = jacobian(rel, spec)
    direct = fim_estimate(params, coords="relative_means", method="monte_carlo",
                          budget=budget, seed=seed)
    absolute = fim_estimate(params, coords="means", method="monte_carlo",
                            budget=budget, seed=seed + 1)
    transformed = transform_fim(absolute, jac)
    residual = np.abs(direct.entries - transformed.entries)
    bound = 4.0 * np.sqrt(direct.std_errors ** 2 + transformed.std_errors ** 2)
    ok = bool(np.all(residual <= bound))

    matrices = (("fim_direct_relative", direct), ("fim_absolute", absolute),
                ("fim_transformed", transformed))
    files = {f"{name}.csv": fm.to_csv() for name, fm in matrices}
    asymmetry = max(float(np.max(np.abs(fm.entries - fm.entries.T))) for _, fm in matrices)
    min_eig = min(float(np.min(np.linalg.eigvalsh(fm.entries))) for _, fm in matrices)
    files["fim_report.txt"] = "\n".join([
        f"residual_max: {float(residual.max())!r}",
        f"bound_max: {float(bound.max())!r}",
        f"covariance_law: {'PASS' if ok else 'FAIL'}",
        f"max_asymmetry: {asymmetry!r}",
        f"min_eigenvalue: {min_eig!r}",
        f"symmetry: {'PASS' if asymmetry <= SYMMETRY_TOL else 'FAIL'}",
        f"psd: {'PASS' if min_eig >= -PSD_TOL else 'FAIL'}",
    ]) + "\n"
    return files, None


def _build_nn(cfg: dict) -> MLPParams:
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


def run_nn(cfg: dict) -> tuple[dict, ConvergenceError | None]:
    """Singularity report for a (possibly constructed-singular) toy network."""
    with _config_values():
        mlp = _build_nn(cfg)
        tol = float(cfg["tol"])
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol!r}")
    report = detect_singularities(mlp, tol=tol)
    # hits are (layer, unit, norm), (layer, i, j, sign, gap) and (layer, triple, resid)
    elim, over, dep = report.elimination, report.overlap, report.linear_dependence
    hits = (*elim, *over, *dep)
    return {"nn_report.txt": "\n".join(report_lines(report)) + "\n",
            "nn_report.csv": (["kind", "layer", "index_a", "index_b", "value"], [
                ["elimination"] * len(elim)
                + [f"overlap{'+' if sign > 0 else '-'}" for _, _, _, sign, _ in over]
                + ["linear_dependence"] * len(dep),
                [h[0] for h in hits],
                [h[1] for h in elim] + [h[1] for h in over] + [h[1][0] for h in dep],
                [-1] * len(elim) + [h[2] for h in over] + [h[1][1] for h in dep],
                [float(h[-1]) for h in hits],
            ])}, None


RUNNERS = {"field": run_field, "gd": run_gd, "ecm": run_ecm, "fim": run_fim, "nn": run_nn}
KINDS = tuple(RUNNERS)
