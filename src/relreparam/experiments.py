"""Experiment runners: config loading, CSV/SVG artifacts, run manifests.

A config is checked whole by ``check_config`` against one schema per kind,
declared below from DEFAULTS. Each kind's runner ``run_<kind>(values)`` (field,
gd, ecm, fim, nn) takes the checked values, computes in memory and returns
``(files, failure)``:
file names mapped to text or to a CSV's ``(header, columns)``, and None or the
ConvergenceError of a diverged or unconverged run. ``run`` alone writes: after
the runner returns it creates the directory, writes the deterministic files
(CSVs under a schema header comment) and run_manifest.json of their sha256s.
Each file is written by ``_write`` as a new file, replacing any old one, and
hashed from the bytes written.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .dynamics import TrueModel, flow_field, integrate_gd
from .ecm import ECMConfig, fit_ecm_relative, fit_em_standard
from .fim import MIN_MC_BUDGET, PSD_TOL, SYMMETRY_TOL, fim_estimate, transform_fim
from .gmm import make_rng, sample, unit_variance_pair
from .nn import ACTIVATIONS, MLPParams, detect_singularities, report_lines
from .reparam import RELATIVE_SPEC, jacobian, to_relative
from .svgplot import SvgCanvas, Viewport, draw_axes, draw_quiver, map_polyline

SCHEMA_VERSION = 1
# libyaml parses when PyYAML was built with it; either way PyYAML's own safe
# resolver and constructor build the values, so both loaders give the same ones
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


class ConvergenceError(RuntimeError):
    """An optimization run failed to converge within its budget."""


DEFAULTS: dict[str, dict] = {
    "field": {
        "kind": "field", "seed": 0, "eta": 1.0, "v": 0.5,
        "grid": {"min": -2.0, "max": 2.0, "step": 0.1},
        "true_means": [0.0, 0.0],
    },
    "gd": {
        "kind": "gd", "seed": 0, "eta": 0.05, "steps": 200, "v": 0.5,
        "init_means": [-1.5, 1.5], "true_means": [0.0, 0.0],
        "gradient_source": "expected",
    },
    "ecm": {
        "kind": "ecm", "seed": 12, "n_samples": 200,
        "true_means": [-5.1, -5.0], "init_means": [-2.5, 2.0],
        "epsilon": 1e-8, "max_iters": 10000,
    },
    "fim": {
        "kind": "fim", "seed": 0, "means": [-5.1, -5.0], "v": 0.5,
        "budget": 200000,
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


def load_config(path: str | Path) -> dict:
    """The kind's defaults updated by the YAML file, as loaded; ``check_config``
    checks it."""
    try:
        raw = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("config must be a mapping with a 'kind' field")
    cfg = default_config(str(raw["kind"]))
    cfg.update(raw)
    return cfg


# The config schema. A key's type is that of its DEFAULTS value: a float takes
# any finite number, an int any integral one (2.0, not 2.7), neither a bool; a
# string one of CHOICES[key], if the key has choices; a list is checked item by
# item and the grid block key by key. RANGES has the other rules. Unknown keys
# are errors; only OPTIONAL keys fall back to a value.
GRADIENT_SOURCES = ("expected", "empirical")
INJECTIONS = ("elimination", "overlap", "linear_dependence")
CHOICES = {"gradient_source": GRADIENT_SOURCES, "activation": ACTIVATIONS,
           "inject": INJECTIONS}
_PAIR = (lambda xs: len(xs) == 2, "must hold two numbers")
RANGES = {
    "seed": (lambda x: x >= 0, "must be >= 0"),
    "eta": (lambda x: x > 0, "must be > 0"),
    "v": (lambda x: 0 < x < 1, "must lie in (0, 1)"),
    "steps": (lambda x: x >= 1, "must be >= 1"),
    "n_samples": (lambda x: x >= 1, "must be >= 1"),
    "max_iters": (lambda x: x >= 1, "must be >= 1"),
    "epsilon": (lambda x: x > 0, "must be > 0"),
    "tol": (lambda x: x > 0, "must be > 0"),
    "budget": (lambda x: x >= MIN_MC_BUDGET, f"must be >= {MIN_MC_BUDGET}"),
    "step": (lambda x: x > 0, "must be > 0"),
    "grid": (lambda g: 0 <= g["max"] - g["min"] < np.inf, "needs min <= max"),
    "true_means": _PAIR, "init_means": _PAIR, "means": _PAIR,
    "sizes": (lambda s: len(s) >= 2 and min(s) >= 1, "needs two or more widths, each >= 1"),
}
OPTIONAL = {kind: {"out_dir": f"out/{kind}"} for kind in DEFAULTS}
OPTIONAL["gd"]["n_samples"] = 200
_FLOAT_MAX = float(np.finfo(float).max)


def _scalar(path: str, key: str, value, default):
    if isinstance(default, str):
        ok = isinstance(value, str) and (key not in CHOICES or value in CHOICES[key])
        expected = f"one of {CHOICES[key]}" if key in CHOICES else "a string"
    elif isinstance(default, int):
        ok = type(value) is int or type(value) is float and value.is_integer()
        expected = "an integer"
    else:
        ok = type(value) in (int, float) and abs(value) <= _FLOAT_MAX
        expected = "a finite number"
    if not ok:
        raise ConfigError(f"{path} must be {expected}, got {value!r}")
    return type(default)(value)


def _block(prefix: str, block, schema: dict, fallback: dict) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{prefix[:-1]} must be a mapping, got {block!r}")
    for key in block:
        if key not in schema:
            raise ConfigError(f"unknown key {prefix}{key}")
    values = {**fallback, **block}
    for key in schema:
        if key not in values:
            raise ConfigError(f"missing key {prefix}{key}")
    return {key: _typed(prefix + key, key, values[key], default)
            for key, default in schema.items()}


def _typed(path: str, key: str, value, default):
    """``value`` cast to the type of ``default`` and checked against RANGES."""
    if isinstance(default, dict):
        typed = _block(path + ".", value, default, {})
    elif isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        typed = [_scalar(f"{path}[{i}]", key, x, default[0]) for i, x in enumerate(value)]
    else:
        typed = _scalar(path, key, value, default)
    rule, problem = RANGES.get(key, (None, ""))
    if rule is not None and not rule(typed):
        raise ConfigError(f"{path} {problem}, got {value!r}")
    return typed


def check_config(cfg: dict) -> dict:
    """The checked values of ``cfg``, cast to their declared types, with every
    OPTIONAL key it leaves out filled in. ``cfg`` is left as loaded, for its
    digest. Raises ConfigError naming the first bad key."""
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {KINDS}")
    return _block("", cfg, {**DEFAULTS[kind], **OPTIONAL[kind]}, OPTIONAL[kind])


def _write(path: Path, data: bytes) -> str:
    """Write ``data`` to ``path`` as a new file and return its sha256. An old
    file, or a symlink, at ``path`` is unlinked first, not written through:
    replacing a file costs less than truncating it."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_csv(path: Path, header_cols: list[str], columns) -> str:
    """Write equal-length columns (arrays, lists or ranges) under a schema line
    and return the file's sha256.

    Each cell is ``str`` of the element ``.tolist()`` gives, so a float is
    written as its ``repr`` and reads back to the same bits. The float64
    arrays of the whole table are formatted together, each distinct value
    once, and the texts gathered into the cells; the values are keyed on
    their bits, not compared as floats, so -0.0 keeps its sign apart from
    0.0. The bytes are those of formatting cell by cell.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) and c.dtype != np.float64 else c
               for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"columns of unequal length for {path.name}")
    texts = iter(_float_texts([c for c in columns if isinstance(c, np.ndarray)]))
    cells = [next(texts) if isinstance(c, np.ndarray) else map(str, c) for c in columns]
    lines = [f"# schema={SCHEMA_VERSION}", ",".join(header_cols)]
    lines += map(",".join, zip(*cells))
    return _write(path, ("\n".join(lines) + "\n").encode())


def _float_texts(arrays: list[np.ndarray]) -> list[list[str]]:
    """``str`` of every element of the equal-length float64 ``arrays``, one list
    per array, formatting each distinct bit pattern once."""
    if not arrays:
        return []
    distinct, inverse = np.unique(np.concatenate(arrays).view(np.int64), return_inverse=True)
    text = [str(x) for x in distinct.view(np.float64).tolist()]
    cells = list(map(text.__getitem__, inverse.tolist()))
    n = len(arrays[0])
    return [cells[k * n:(k + 1) * n] for k in range(len(arrays))]


def _finish(cfg: dict, out_dir: Path, started: float, digests: dict) -> dict:
    """Write run_manifest.json (config digest, tool version, wall time, and
    ``digests``, the written files' sha256s by name) and return its contents."""
    manifest = {
        "config_digest": hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
        "files": digests,
    }
    _write(out_dir / "run_manifest.json",
           (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return manifest


def run(cfg: dict, out_dir: Path) -> dict:
    """Run ``cfg``'s experiment on its checked values and write its files and
    manifest to ``out_dir``, created only once the runner has returned; a
    failure the runner returns is raised after the manifest is written.
    Returns the manifest."""
    started = time.monotonic()
    files, failure = RUNNERS[cfg["kind"]](check_config(cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    digests = {name: _write(out_dir / name, content.encode()) if isinstance(content, str)
               else write_csv(out_dir / name, *content) for name, content in files.items()}
    manifest = _finish(cfg, out_dir, started, digests)
    if failure is not None:
        raise failure
    return manifest


def run_field(values: dict) -> tuple[dict, ConvergenceError | None]:
    """Flow fields for both parameterizations on one grid: CSV + quiver SVG."""
    spec = (values["grid"]["min"], values["grid"]["max"], values["grid"]["step"])
    true = TrueModel(unit_variance_pair(*values["true_means"], values["v"]))
    fields = {p: flow_field(spec, spec, values["v"], true, parameterization=p, eta=values["eta"])
              for p in ("original", "relative")}
    # the (mu2, mu1)-shaped grid both fields share: raveled, the cells run mu2-major
    g1, g2 = np.meshgrid(fields["original"].mu1_axis, fields["original"].mu2_axis)

    def stacked(arrays):
        return np.concatenate([a.ravel() for a in arrays])

    table = (["mu1", "mu2", "dmu1_dt", "dmu2_dt", "parameterization"], [
        stacked([g1] * len(fields)),
        stacked([g2] * len(fields)),
        stacked([ff.dmu1 for ff in fields.values()]),
        stacked([ff.dmu2 for ff in fields.values()]),
        [p for p, ff in fields.items() for _ in range(ff.dmu1.size)],
    ])

    vps = [Viewport(spec[0], spec[1], spec[0], spec[1]) for _ in fields]
    canvas = SvgCanvas(*vps)
    for (pname, ff), vp in zip(fields.items(), vps):
        draw_axes(canvas, vp, "mu1", "mu2", pname)
        draw_quiver(canvas, vp, g1, g2, ff.dmu1, ff.dmu2)
        canvas.marker(vp.px(true.params.means[0]), vp.py(true.params.means[1]))
    return {"flow_field.csv": table, "flow_field.svg": canvas.render()}, None


def run_gd(values: dict) -> tuple[dict, ConvergenceError | None]:
    """Gradient-descent trajectories under both parameterizations."""
    v = values["v"]
    truth = unit_variance_pair(*values["true_means"], v)
    if values["gradient_source"] == "expected":
        source = TrueModel(truth)
    else:
        source = sample(truth, values["n_samples"], values["seed"])
    trajs = {pname: integrate_gd(tuple(values["init_means"]), source, values["eta"],
                                 values["steps"], parameterization=pname, v=v)
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
    canvas = SvgCanvas(vp)
    draw_axes(canvas, vp, "mu1", "mu2", "gradient descent")
    canvas.polyline(map_polyline(vp, trajs["original"].mu1, trajs["original"].mu2), stroke="red")
    canvas.polyline(map_polyline(vp, trajs["relative"].mu1, trajs["relative"].mu2), stroke="blue")
    files["gd_trajectory.svg"] = canvas.render()
    return files, None


def run_ecm(values: dict) -> tuple[dict, ConvergenceError | None]:
    """Standard EM vs relative ECM on identical data; comparison CSV + 4-panel SVG."""
    truth = unit_variance_pair(*values["true_means"])
    data = sample(truth, values["n_samples"], values["seed"])
    init = unit_variance_pair(*values["init_means"])
    config = ECMConfig(epsilon=values["epsilon"], max_iters=values["max_iters"])
    # baseline is vanilla EM with every block free; the relative ECM keeps
    # the weights at (0.5, 0.5) and the sigmas at (1, 1)
    em = fit_em_standard(data, init, config, truth=truth)
    ecm = fit_ecm_relative(data, to_relative(init, RELATIVE_SPEC), config, truth=truth,
                           spec=RELATIVE_SPEC)

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

    def panel_vp(series_x, series_y):
        xs = np.concatenate(series_x)
        ys = np.concatenate(series_y)
        pad_x = 0.05 * (xs.max() - xs.min() or 1.0)
        pad_y = 0.05 * (ys.max() - ys.min() or 1.0)
        return Viewport(xs.min() - pad_x, xs.max() + pad_x,
                        ys.min() - pad_y, ys.max() + pad_y, width=320.0, height=320.0)

    panels = (
        (mu1, mu2, "mu1", "mu2", "a) original coords"),
        ([np.minimum(a, b) for a, b in zip(mu1, mu2)], delta, "mu1", "delta",
         "b) relative coords"),
        (steps, loglik, "iteration", "loglik", "c) log likelihood"),
        (steps, dist, "iteration", "distance", "d) distance to truth"),
    )
    vps = [panel_vp(xs, ys) for xs, ys, *_ in panels]
    canvas = SvgCanvas(*vps)
    for idx, (vp, (xs, ys, xlabel, ylabel, title)) in enumerate(zip(vps, panels)):
        draw_axes(canvas, vp, xlabel, ylabel, title)
        for x, y, stroke in zip(xs, ys, ("red", "blue")):
            canvas.polyline(map_polyline(vp, x, y), stroke=stroke)
        if idx == 0:  # the mu1 = mu2 diagonal and the truth, over panel a's paths
            canvas.polyline([(vp.px(vp.xmin), vp.py(vp.xmin)), (vp.px(vp.xmax), vp.py(vp.xmax))],
                            stroke="black", width=0.8)
            canvas.marker(vp.px(truth.means[0]), vp.py(truth.means[1]))

    failure = None if em.converged and ecm.converged else ConvergenceError(
        "EM/ECM did not converge within the iteration budget")
    return {"ecm_trajectories.csv": table, "ecm_comparison.svg": canvas.render()}, failure


def run_fim(values: dict) -> tuple[dict, ConvergenceError | None]:
    """Direct vs transformed Fisher matrices, residuals, symmetry/PSD report."""
    params = unit_variance_pair(*values["means"], values["v"])
    jac = jacobian(to_relative(params, RELATIVE_SPEC), RELATIVE_SPEC)
    direct = fim_estimate(params, coords="relative_means", method="monte_carlo",
                          budget=values["budget"], seed=values["seed"])
    absolute = fim_estimate(params, coords="means", method="monte_carlo",
                            budget=values["budget"], seed=values["seed"] + 1)
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


def _build_nn(values: dict) -> MLPParams:
    """A network of the given widths; ``inject`` names, from INJECTIONS, the
    singularities to build into its first hidden layer."""
    sizes = values["sizes"]
    rng = make_rng(values["seed"])
    ws = [rng.standard_normal((sizes[i], sizes[i + 1])) for i in range(len(sizes) - 1)]
    bs = [rng.standard_normal(sizes[i + 1]) for i in range(len(sizes) - 1)]
    elimination, overlap, dependence = (name in values["inject"] for name in INJECTIONS)
    if len(sizes) >= 3:
        if elimination:
            ws[0][:, 0] = 0.0
        if overlap and sizes[1] >= 3:
            ws[0][:, 2] = ws[0][:, 1]
        if dependence and sizes[1] >= 4:
            ws[0][:, 3] = 2.0 * ws[0][:, 1] + 3.0 * ws[0][:, 2]
    return MLPParams(weights=tuple(ws), biases=tuple(bs), activation=values["activation"])


def run_nn(values: dict) -> tuple[dict, ConvergenceError | None]:
    """Singularity report for a (possibly constructed-singular) toy network."""
    report = detect_singularities(_build_nn(values), tol=values["tol"])
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
