"""Per-layer tracing installed from outside the program.

``Tracer.install`` replaces functions at the names their callers look them
up under (for example ``experiments.fit_ecm_relative`` or
``dynamics.mixture_moments``) with wrappers that record a span, and puts the
originals back on ``uninstall``. Nothing under ``src/`` changes.

A span holds its id, parent span, name, layer, start, end and the run id, and
stays in memory until the traced run ends. A layer's self time is the
duration of its spans minus the part covered by their child spans. Functions
called once per grid cell or per iteration inside one layer are counted, not
spanned.
"""

from __future__ import annotations

import collections
import functools
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from math import comb

import numpy as np

from relreparam import cli, dynamics, ecm, experiments, fim, gmm, svgplot

LAYERS = ("cli", "experiments", "svgplot", "dynamics", "ecm", "fim", "nn", "gmm", "reparam")
FIT_SPANS = ("ecm.fit_em", "ecm.fit_ecm")
DENSITY_SPANS = ("gmm.log_likelihood", "gmm.log_density", "gmm.responsibilities",
                 "gmm.score_means", "gmm.score")


def _get(owner, attr: str):
    """A function as its caller looks it up: a module or class attribute, or
    an entry of the runner table that ``cli`` dispatches through."""
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr: str, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    layer: str
    start: float
    end: float
    run_id: str


class Tracer:
    """Collects spans and counts for the runs made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._open: collections.Counter = collections.Counter()
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, layer: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, name, layer, start, end, self.run_id)

    def run(self, run_id: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one CLI run."""
        self.run_id = run_id
        return self.call("cli.main", "cli", fn, args, {})

    # -- wrappers --------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, _get(owner, attr)))
        _set(owner, attr, wrapper)

    def _span(self, owner, attr: str, name: str, after=None):
        fn = _get(owner, attr)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, layer, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patch(owner, attr, wrapper)

    def _count(self, owner, attr: str, name: str, tally=None):
        fn = _get(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if tally is not None:
                tally(*args, **kwargs)
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self):
        c = self.counts

        def density_pass(params, x):
            c["gmm.density_points"] += int(np.size(x))
            if any(self._open[name] for name in FIT_SPANS):
                c["gmm.density_passes_in_fits"] += 1

        def fit_done(kind):
            def after(result, *args, **kwargs):
                c[f"ecm.{kind}_iterations"] += result.iterations
                c["ecm.fits"] += 1
            return after

        def cm_delta_done(result, *args, **kwargs):
            c["ecm.kkt_active_steps"] += result[1] > 0.0

        def write_csv_done(result, path, header, rows):
            c["experiments.csv_rows"] += len(rows)
            c["experiments.csv_bytes"] += path.stat().st_size

        def quiver_done(result, canvas, vp, xs, ys, us, vs, **kwargs):
            c["svgplot.quiver_arrows"] += int(np.count_nonzero(np.hypot(us, vs)))

        def render_done(result, canvas):
            c["svgplot.svg_bytes"] += len(result.encode())

        def gd_done(result, *args, **kwargs):
            c["dynamics.gd_steps"] += result.n_steps

        def field_done(result, *args, **kwargs):
            c["dynamics.cells"] += result.dmu1.size

        def detect_done(report, mlp, tol=1e-6):
            candidates = triples = 0
            for k in range(mlp.depth - 1):
                units = mlp.weights[k].shape[1]
                if mlp.activation == "identity":
                    triples += units * comb(units - 1, 2)
                candidates += units + comb(units, 2)
            c["nn.triples"] += triples
            c["nn.candidates"] += candidates + triples
            c["nn.hits"] += (len(report.elimination) + len(report.overlap)
                             + len(report.linear_dependence))

        # cli -> experiments
        for kind in list(experiments.RUNNERS):
            self._span(experiments.RUNNERS, kind, f"experiments.run_{kind}")
        self._span(cli, "load_config", "experiments.load_config")
        self._span(cli, "default_config", "experiments.default_config")
        self._span(experiments, "write_csv", "experiments.write_csv", write_csv_done)
        self._span(experiments, "_finish", "experiments.finish")
        # experiments -> svgplot
        self._span(experiments, "draw_axes", "svgplot.draw_axes")
        self._span(experiments, "draw_quiver", "svgplot.draw_quiver", quiver_done)
        self._span(experiments, "map_polyline", "svgplot.map_polyline")
        for method in ("polyline", "marker"):
            self._span(svgplot.SvgCanvas, method, f"svgplot.{method}")
        self._span(svgplot.SvgCanvas, "render", "svgplot.render", render_done)
        # experiments -> dynamics, ecm, fim, nn, reparam, gmm
        self._span(experiments, "flow_field", "dynamics.flow_field", field_done)
        self._span(experiments, "integrate_gd", "dynamics.integrate_gd", gd_done)
        self._span(experiments, "fit_em_standard", "ecm.fit_em", fit_done("em"))
        self._span(experiments, "fit_ecm_relative", "ecm.fit_ecm", fit_done("ecm"))
        self._span(experiments, "transform_fim", "fim.transform")
        self._patch(experiments, "fim_estimate", self._fim_wrapper(experiments.fim_estimate))
        self._span(experiments, "detect_singularities", "nn.detect", detect_done)
        self._span(experiments, "report_lines", "nn.report_lines")
        self._span(experiments, "to_relative", "reparam.to_relative")
        self._span(experiments, "jacobian", "reparam.jacobian")
        self._span(experiments, "sample", "gmm.sample")
        # inside dynamics; dynamics -> gmm
        for attr in ("expected_velocity_original", "expected_velocity_relative"):
            self._count(dynamics, attr, "dynamics.velocity_calls")
        self._span(dynamics, "mixture_moments", "gmm.mixture_moments")
        self._span(dynamics, "log_likelihood", "gmm.log_likelihood")
        self._span(dynamics, "score_means", "gmm.score_means")
        self._span(gmm, "log_density", "gmm.log_density")  # imported at call time
        # inside ecm; ecm -> gmm, reparam
        self._span(ecm, "e_step", "ecm.e_step")
        self._span(ecm, "m_step_standard", "ecm.m_step")
        self._span(ecm, "cm_step_reference_mean", "ecm.cm_step")
        self._span(ecm, "cm_step_delta", "ecm.cm_step", cm_delta_done)
        self._span(ecm, "log_likelihood", "gmm.log_likelihood")
        self._span(ecm, "responsibilities_array", "gmm.responsibilities")
        self._span(ecm, "to_absolute", "reparam.to_absolute")
        self._span(ecm, "to_relative", "reparam.to_relative")
        # fim -> gmm
        self._span(fim, "score_means", "gmm.score_means")
        self._span(fim, "score", "gmm.score")
        # inside gmm: one count per pass of component log-densities
        self._count(gmm, "log_component_densities", "gmm.density_passes", density_pass)

    def _fim_wrapper(self, fn):
        c = self.counts

        @functools.wraps(fn)
        def wrapper(params, coords="means", method="quadrature", budget=10 ** 6, seed=0):
            tracemalloc.start()
            try:
                result = self.call("fim.estimate", "fim", fn,
                                   (params, coords, method, budget, seed), {})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            c["fim.peak_alloc_bytes"] = max(c["fim.peak_alloc_bytes"], peak)
            if method == "monte_carlo":
                k = result.entries.shape[0]
                c["fim.mc_draws"] += budget
                c["fim.outer_bytes_computed"] += budget * k * k * 8
            return result

        return wrapper

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def breakdown(self) -> dict:
        """Self time per layer and per span name, and total time per name
        (no span name nests inside itself except the gmm density spans,
        which are only read by self time)."""
        covered = collections.defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        layer_self = dict.fromkeys(LAYERS, 0.0)
        name_self = collections.defaultdict(float)
        name_total = collections.defaultdict(float)
        name_calls = collections.Counter(s.name for s in self.spans)
        for s in self.spans:
            own = s.end - s.start - covered[s.id]
            layer_self[s.layer] += own
            name_self[s.name] += own
            name_total[s.name] += s.end - s.start
        roots = sum(s.end - s.start for s in self.spans if s.parent < 0)
        return {"layer_self": layer_self, "name_self": name_self,
                "name_total": name_total, "name_calls": name_calls, "roots": roots}


def layer_metrics(counts: dict, bd: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced rotation.

    ``wall_s`` is the rotation's CLI time as the client measured it around
    each ``cli.main`` call."""
    ls, ns, nt, calls = bd["layer_self"], bd["name_self"], bd["name_total"], bd["name_calls"]

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    em_it, ecm_it = counts["ecm.em_iterations"], counts["ecm.ecm_iterations"]
    density_s = sum(ns[n] for n in DENSITY_SPANS)
    return {
        "gmm.self_s": ls["gmm"],
        "gmm.ns_per_point": per(density_s, counts["gmm.density_points"], 1e9),
        "gmm.density_points": counts["gmm.density_points"],
        "gmm.density_passes_per_iter": per(
            counts["gmm.density_passes_in_fits"] - counts["ecm.fits"], em_it + ecm_it),
        "gmm.sample_s": nt["gmm.sample"],
        "gmm.mixture_moments_calls": calls["gmm.mixture_moments"],
        "reparam.self_s": ls["reparam"],
        "reparam.calls": sum(n for name, n in calls.items() if name.startswith("reparam.")),
        "dynamics.flow_field_s": nt["dynamics.flow_field"],
        "dynamics.cells": counts["dynamics.cells"],
        "dynamics.us_per_cell": per(nt["dynamics.flow_field"], counts["dynamics.cells"], 1e6),
        "dynamics.velocity_calls": counts["dynamics.velocity_calls"],
        "dynamics.integrate_gd_s": nt["dynamics.integrate_gd"],
        "dynamics.gd_steps": counts["dynamics.gd_steps"],
        "dynamics.us_per_gd_step": per(nt["dynamics.integrate_gd"], counts["dynamics.gd_steps"], 1e6),
        "ecm.fit_em_s": nt["ecm.fit_em"],
        "ecm.fit_ecm_s": nt["ecm.fit_ecm"],
        "ecm.em_iterations": em_it,
        "ecm.ecm_iterations": ecm_it,
        "ecm.ms_per_em_iter": per(nt["ecm.fit_em"], em_it, 1e3),
        "ecm.ms_per_ecm_iter": per(nt["ecm.fit_ecm"], ecm_it, 1e3),
        "ecm.e_step_s": nt["ecm.e_step"],
        "ecm.cm_step_s": nt["ecm.cm_step"],
        "ecm.kkt_active_steps": counts["ecm.kkt_active_steps"],
        "ecm.kkt_active_ratio": per(counts["ecm.kkt_active_steps"], ecm_it),
        "fim.estimate_s": nt["fim.estimate"],
        "fim.mc_draws": counts["fim.mc_draws"],
        "fim.ns_per_draw": per(nt["fim.estimate"], counts["fim.mc_draws"], 1e9),
        "fim.transform_s": nt["fim.transform"],
        "fim.outer_bytes_computed": counts["fim.outer_bytes_computed"],
        "fim.peak_alloc_mb": counts["fim.peak_alloc_bytes"] / 2 ** 20,
        "nn.detect_s": nt["nn.detect"],
        "nn.triples": counts["nn.triples"],
        "nn.us_per_triple": per(nt["nn.detect"], counts["nn.triples"], 1e6),
        "nn.hits": counts["nn.hits"],
        "nn.hit_ratio": per(counts["nn.hits"], counts["nn.candidates"]),
        "experiments.self_s": ls["experiments"],
        "experiments.write_csv_s": nt["experiments.write_csv"],
        "experiments.csv_rows": counts["experiments.csv_rows"],
        "experiments.csv_bytes": counts["experiments.csv_bytes"],
        "svgplot.s": ls["svgplot"],
        "svgplot.svg_bytes": counts["svgplot.svg_bytes"],
        "svgplot.quiver_arrows": counts["svgplot.quiver_arrows"],
        "cli.self_s": ls["cli"],
        "trace.unattributed_s": wall_s - bd["roots"],
    }


def median_metrics(rotations: list[dict]) -> dict:
    """Median of each metric over rotations; counts stay whole numbers."""
    out = {}
    for name in rotations[0]:
        values = [r[name] for r in rotations]
        whole = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if whole else statistics.median(values)
    return out
