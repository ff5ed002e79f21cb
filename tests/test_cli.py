import hashlib
import importlib.util
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from childproc import REDUCED_SIMD, child_env, numpy_has_x86_v4
from relreparam import experiments
from relreparam.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                            EXIT_SINGULAR, main)
from relreparam.experiments import (DEFAULTS, KINDS, ConfigError, check_config,
                                    default_config, load_config, run)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "golden_digests.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


try:
    NUMPY_CONFIG = np.show_config(mode="dicts")
except TypeError:  # numpy < 1.25 has no dict mode
    NUMPY_CONFIG = {}


def _dynamic_arch_openblas() -> bool:
    """numpy's BLAS is an OpenBLAS that picks its kernel at run time, so
    OPENBLAS_CORETYPE selects the kernel of a child process."""
    blas = NUMPY_CONFIG.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_has_avx2() -> bool:
    simd = NUMPY_CONFIG.get("SIMD Extensions", {})
    found = set(simd.get("baseline", [])) | set(simd.get("found", []))
    return bool(found & {"AVX2", "X86_V3", "X86_V4"})


def _child_digest(out: Path, kind: str, filename: str, **env_vars) -> str:
    """Digest of the file `filename` from `kind` at its defaults, run in a
    child interpreter with `env_vars` set (see `childproc.child_env`)."""
    proc = subprocess.run([sys.executable, "-m", "relreparam.cli", kind, "--out", str(out)],
                          env=child_env(**env_vars), capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    return sha256(out / filename)


def write_config(tmp_path, mapping, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


class TestConfig:
    def test_print_defaults_is_valid_yaml(self, capsys):
        assert main(["field", "--print-defaults"]) == EXIT_OK
        cfg = yaml.safe_load(capsys.readouterr().out)
        assert cfg["kind"] == "field"
        assert cfg["grid"] == {"min": -2.0, "max": 2.0, "step": 0.1}

    def test_defaults_roundtrip_through_file(self, tmp_path):
        cfg = default_config("nn")
        path = write_config(tmp_path, cfg)
        assert load_config(path) == cfg

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            default_config("banana")
        assert tuple(DEFAULTS) == KINDS

    def test_override_wins(self, tmp_path):
        """--seed replaces the seed of a config file and of the defaults alike."""
        path = write_config(tmp_path, {"kind": "nn", "seed": 3})
        runs = {"file": ["--config", str(path), "--seed", "9"], "default": ["--seed", "9"],
                "file-9": ["--config", str(write_config(tmp_path, {"kind": "nn", "seed": 9},
                                                        "nine.yaml"))]}
        manifests = []
        for name, args in runs.items():
            assert main(["nn", "--out", str(tmp_path / name), *args]) == EXIT_OK
            manifest = json.loads((tmp_path / name / "run_manifest.json").read_text())
            manifests.append({k: v for k, v in manifest.items() if k != "wall_time_s"})
        assert manifests[0] == manifests[1] == manifests[2]

    def test_missing_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        with pytest.raises(ConfigError):
            load_config(path)


class TestConfigSchema:
    """Every config the project ships or benchmarks passes check_config, and
    checking leaves the config, and so its digest, as loaded."""

    DIGESTS = {"field": "af5ec70781f6", "gd": "fcb84a15c596", "ecm": "ee3f1c042dab",
               "fim": "592663073c2f", "nn": "870c76fd1a74"}

    @staticmethod
    def workload_configs():
        path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        return [workloads.config(kind, slot.overrides, seed)
                for slots in workloads.WORKLOADS.values()
                for kind, slot in slots.items() for seed in (None, 7)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_defaults_pass_and_keep_their_digest(self, tmp_path, kind, capsys):
        cfg = default_config(kind)
        check_config(cfg)
        assert cfg == DEFAULTS[kind]
        digest = experiments._finish(cfg, tmp_path, 0.0, ())["config_digest"]
        assert digest.startswith(self.DIGESTS[kind])
        assert main([kind, "--print-defaults"]) == EXIT_OK
        printed = tmp_path / "printed.yaml"
        printed.write_text(capsys.readouterr().out)
        loaded = load_config(printed)
        check_config(loaded)
        assert loaded == cfg

    def test_workload_configs_pass(self, tmp_path):
        configs = self.workload_configs()
        assert len(configs) == 20
        for cfg in configs:
            values = check_config(load_config(write_config(tmp_path, cfg)))
            assert values["kind"] == cfg["kind"]

    def test_values_are_typed_and_filled(self):
        cfg = {**default_config("gd"), "steps": 3.0, "eta": 1, "true_means": [0, 0],
               "reparam": {"clearance": 1}}
        loaded = json.loads(json.dumps(cfg))
        values = check_config(cfg)
        assert cfg == loaded
        assert type(values["steps"]) is int and type(values["eta"]) is float
        assert [type(m) for m in values["true_means"]] == [float, float]
        assert values["reparam"] == {**DEFAULTS["gd"]["reparam"], "clearance": 1.0}
        assert (values["n_samples"], values["out_dir"]) == (200, "out/gd")

    @pytest.mark.parametrize("kind, bad, named", [
        ("ecm", {"n_sample": 5}, "unknown key n_sample"),
        ("ecm", {"reparam": {"encodng": "raw"}}, "unknown key reparam.encodng"),
        ("field", {"grid": {"min": 0.0, "max": 1.0}}, "missing key grid.step"),
        ("nn", {"sizes": [3, 4.5, 1]}, "sizes[1] must be an integer"),
        ("nn", {"inject": ["elimnation"]}, "inject[0] must be one of"),
        ("nn", {"tol": float("nan")}, "tol must be a finite number"),
        ("ecm", {"reparam": {"order_by": "sigma"}}, "reparam.order_by must be one of"),
        ("fim", {"reparam": {"encoding": "squared"}}, "reparam.encoding must be"),
    ])
    def test_error_names_the_key(self, kind, bad, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            check_config({**default_config(kind), **bad})


class TestExitCodes:
    def test_success(self, tmp_path):
        assert main(["nn", "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_config_error_on_bad_yaml(self, tmp_path):
        bad = tmp_path / "broken.yaml"
        bad.write_text("kind: [unclosed")
        assert main(["nn", "--config", str(bad)]) == EXIT_CONFIG

    def test_config_error_on_kind_mismatch(self, tmp_path):
        path = write_config(tmp_path, default_config("fim"))
        assert main(["nn", "--config", str(path)]) == EXIT_CONFIG

    def test_config_error_on_bad_grid(self, tmp_path):
        cfg = default_config("field")
        for grid in ({"min": 0.0, "max": 1.0},  # no step
                     {"min": 0.0, "max": float("inf"), "step": 0.1},
                     {"min": float("-inf"), "max": 1.0, "step": 0.1},
                     {"min": float("nan"), "max": 1.0, "step": 0.1},
                     {"min": 0.0, "max": 1.0, "step": float("nan")},
                     {"min": 0.0, "max": 1.0, "step": float("inf")},
                     {"min": 0.0, "max": 1.0, "step": 0.0},
                     {"min": 0.0, "max": 1.0, "step": -0.1},
                     {"min": 1.0, "max": 0.0, "step": 0.1}):
            cfg["grid"] = grid
            path = write_config(tmp_path, cfg)
            assert main(["field", "--config", str(path),
                         "--out", str(tmp_path / "o")]) == EXIT_CONFIG, grid

    @pytest.mark.parametrize("kind, bad", [
        ("field", {"grid": {"min": 0.0, "max": 1.0}}),
        ("ecm", {"reparam": {"encoding": "bogus"}}),
        ("fim", {"reparam": {"order_by": "bogus"}}),
        ("nn", {"sizes": [3]}),
        ("ecm", {"epsilon": 0}),
        ("ecm", {"max_iters": 0}),
        ("ecm", {"n_samples": 0}),
        ("fim", {"budget": 10}),
        ("fim", {"v": 1.5}),
        ("gd", {"steps": 0}),
        ("gd", {"eta": 0}),
        ("gd", {"v": 1.5}),
        ("gd", {"gradient_source": "empirical", "n_samples": 0}),
        ("field", {"v": 1.5}),
        ("nn", {"tol": 0}),
        ("nn", {"activation": "sigmoid"}),
        ("field", {"v": 0.0}),
        ("gd", {"v": 0.0}),
        ("fim", {"v": 0.0}),
        ("fim", {"v": 1.0}),
        ("ecm", {"epsilon": "abc"}),
        ("nn", {"seed": -1}),
        ("fim", {"seed": -1}),
        ("gd", {"steps": "many"}),
        ("gd", {"init_means": [1.0]}),
        ("fim", {"means": [1.0]}),
        ("field", {"out_dir": 5}),
        ("field", {"out_dir": ["a"]}),
        ("ecm", {"n_sample": 5000}),
        ("gd", {"steps": 2.7}),
        ("gd", {"steps": True}),
        ("ecm", {"max_iters": 2.5}),
        ("fim", {"seed": 1.9}),
        ("nn", {"sizes": [3, 4.5, 1]}),
        ("nn", {"sizes": [3, True, 1]}),
        ("ecm", {"true_means": [0, 0, 7]}),
        ("ecm", {"reparam": {"encodng": "squared"}}),
        ("field", {"grid": {"min": -2.0, "max": 2.0, "step": 0.1, "extra": 3}}),
        ("field", {"eta": -1}),
        ("nn", {"inject": "overlap"}),
        ("nn", {"inject": ["elimnation"]}),
        ("ecm", {"reparam": {"order_by": "sigma"}}),
        ("fim", {"reparam": {"order_by": "sigma"}}),
        ("field", {"reparam": {"order_by": "sigma"}}),
        ("gd", {"reparam": {"order_by": "sigma"}}),
        ("fim", {"reparam": {"encoding": "squared"}}),
    ], ids=["field", "ecm", "fim", "nn", "ecm-epsilon", "ecm-max_iters", "ecm-n_samples",
            "fim-budget", "fim-v", "gd-steps", "gd-eta", "gd-v", "gd-empirical-n_samples",
            "field-v", "nn-tol", "nn-activation", "field-v-zero", "gd-v-zero", "fim-v-zero",
            "fim-v-one", "ecm-epsilon-cast", "nn-seed-negative", "fim-seed-negative",
            "gd-steps-cast", "gd-init_means-short", "fim-means-short", "out_dir-int",
            "out_dir-list", "ecm-unknown-key", "gd-steps-fraction", "gd-steps-bool",
            "ecm-max_iters-fraction", "fim-seed-fraction", "nn-sizes-fraction",
            "nn-sizes-bool", "ecm-true_means-three", "ecm-reparam-unknown-key",
            "field-grid-unknown-key", "field-eta-negative", "nn-inject-string",
            "nn-inject-misspelled", "ecm-order_by-sigma", "fim-order_by-sigma",
            "field-order_by-sigma", "gd-order_by-sigma", "fim-encoding-squared"])
    def test_config_error_leaves_no_out_dir(self, tmp_path, kind, bad):
        """Malformed blocks, unknown keys, out-of-range values and values of
        the wrong type (a fraction or a bool for an int, a short list): exit 2
        before anything is written. An unknown gd gradient_source is
        test_config_error_on_unknown_gradient_source."""
        path = write_config(tmp_path, {**default_config(kind), **bad})
        out = tmp_path / "o"
        assert main([kind, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["ecm", "fim"])
    @pytest.mark.parametrize("block", [None, ["clearance", 0.0], {"clearance": "abc"}],
                             ids=["null", "list", "abc"])
    def test_malformed_reparam_block_is_config_error(self, tmp_path, kind, block):
        path = write_config(tmp_path, {**default_config(kind), "reparam": block})
        out = tmp_path / "o"
        assert main([kind, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_singular_fim_point_refused(self, tmp_path):
        cfg = default_config("fim")
        cfg["means"] = [1.0, 1.0]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["fim", "--config", str(path), "--out", str(out)]) == EXIT_SINGULAR
        # guarded precondition: nothing was emitted
        assert not out.exists()

    def test_config_error_on_unknown_gradient_source(self, tmp_path):
        cfg = default_config("gd")
        cfg["gradient_source"] = "bogus"
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["gd", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_failure_while_computing_leaves_no_out_dir(self, tmp_path, monkeypatch):
        def overflow(*args, **kwargs):
            raise FloatingPointError("overflow in quiver")

        monkeypatch.setattr(experiments, "draw_quiver", overflow)
        out = tmp_path / "o"
        assert main(["field", "--out", str(out)]) == EXIT_NUMERICAL
        assert not out.exists()

    def test_divergent_gd_is_numerical_failure(self, tmp_path):
        cfg = default_config("gd")
        cfg["init_means"] = [-1.5, 1.2]
        cfg["eta"] = 0.05
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["gd", "--config", str(path), "--out", str(out)]) == EXIT_NUMERICAL
        # artifacts for the completed part of the run are still emitted,
        # and the manifest records every one of them
        assert (out / "gd_trajectory_original.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        emitted = {p.name for p in out.iterdir()} - {"run_manifest.json"}
        assert set(manifest["files"]) == emitted

    def test_divergent_gd_stderr_is_the_failure_line(self, tmp_path):
        """numpy's floating-point warnings on the way to divergence stay off
        stderr, so it does not name source paths or lines of the checkout."""
        cfg = default_config("gd")
        cfg["gradient_source"] = "empirical"
        cfg["eta"] = 50
        path = write_config(tmp_path, cfg)
        env = child_env()
        env.pop("RELREPARAM_LOG", None)
        proc = subprocess.run([sys.executable, "-m", "relreparam.cli", "gd", "--config",
                               str(path), "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stderr == "numerical failure: original, relative gradient-descent run diverged\n"


class TestDeterminism:
    def test_field_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["field", "--out", str(a)]) == EXIT_OK
        assert main(["field", "--out", str(b)]) == EXIT_OK
        assert (a / "flow_field.csv").read_bytes() == (b / "flow_field.csv").read_bytes()
        assert (a / "flow_field.svg").read_bytes() == (b / "flow_field.svg").read_bytes()

    def test_every_kind_rerun_matches_digests(self, tmp_path):
        for kind in ("gd", "ecm", "fim", "nn"):
            a, b = tmp_path / f"{kind}_a", tmp_path / f"{kind}_b"
            assert main([kind, "--out", str(a)]) == EXIT_OK
            assert main([kind, "--out", str(b)]) == EXIT_OK
            man_a = json.loads((a / "run_manifest.json").read_text())
            man_b = json.loads((b / "run_manifest.json").read_text())
            assert man_a["files"] == man_b["files"]

    def test_seed_changes_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["ecm", "--out", str(a)]) == EXIT_OK
        assert main(["ecm", "--out", str(b), "--seed", "13"]) == EXIT_OK
        assert sha256(a / "ecm_trajectories.csv") != sha256(b / "ecm_trajectories.csv")


class TestManifest:
    def test_manifest_covers_every_artifact(self, tmp_path):
        for kind in ("field", "gd", "ecm", "fim", "nn"):
            out = tmp_path / kind
            assert main([kind, "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "run_manifest.json").read_text())
            emitted = {p.name for p in out.iterdir()} - {"run_manifest.json"}
            assert set(manifest["files"]) == emitted
            for name, digest in manifest["files"].items():
                assert sha256(out / name) == digest
            assert manifest["tool_version"]
            assert manifest["config_digest"]
            assert set(manifest) == {"config_digest", "tool_version", "wall_time_s", "files"}


class TestGoldenFixtures:
    def test_field_default_matches_golden(self, tmp_path):
        out = tmp_path / "field"
        assert main(["field", "--out", str(out)]) == EXIT_OK
        assert sha256(out / "flow_field.csv") == GOLDEN["field/flow_field.csv"]

    def test_ecm_default_matches_golden(self, tmp_path):
        out = tmp_path / "ecm"
        assert main(["ecm", "--out", str(out)]) == EXIT_OK
        assert sha256(out / "ecm_trajectories.csv") == GOLDEN["ecm/ecm_trajectories.csv"]
        expected = (FIXTURES / "ecm_trajectories_golden.csv").read_bytes()
        assert (out / "ecm_trajectories.csv").read_bytes() == expected

    def test_partial_reparam_block_takes_kind_defaults(self, tmp_path):
        # the left-out encoding is ecm's raw_constrained, so this is the default run
        path = write_config(tmp_path, {"kind": "ecm", "reparam": {"clearance": 0.0}})
        out = tmp_path / "ecm"
        assert main(["ecm", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert sha256(out / "ecm_trajectories.csv") == GOLDEN["ecm/ecm_trajectories.csv"]

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                        or not _dynamic_arch_openblas(),
                        reason="needs x86-64 and numpy on a DYNAMIC_ARCH OpenBLAS")
    @pytest.mark.parametrize("kind, csv", [("ecm", "ecm_trajectories.csv"),
                                           ("field", "flow_field.csv")],
                             ids=["ecm", "field"])
    def test_digest_independent_of_openblas_kernel(self, tmp_path, kind, csv):
        coretypes = ["native", "Prescott"] + (["Haswell"] if _cpu_has_avx2() else [])
        digests = {}
        for coretype in coretypes:
            env_vars = {} if coretype == "native" else {"OPENBLAS_CORETYPE": coretype}
            digests[coretype] = _child_digest(tmp_path / coretype, kind, csv, **env_vars)
        assert set(digests.values()) == {GOLDEN[f"{kind}/{csv}"]}, digests

    # ecm is left out: numpy's exp/log round differently without AVX-512
    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_field_digest_under_reduced_numpy_simd(self, tmp_path):
        reduced = tmp_path / "field"
        digest = _child_digest(reduced, "field", "flow_field.csv",
                               NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD)
        assert digest == GOLDEN["field/flow_field.csv"]
        # the quiver's arctan2/cos/sin run over arrays, so through numpy's SIMD kernels
        native = _child_digest(tmp_path / "native", "field", "flow_field.svg")
        assert sha256(reduced / "flow_field.svg") == native


def assert_csv_cells(path: Path, header: list[str], rows: list[tuple]) -> None:
    """Every CSV cell equals its in-memory value exactly: text cells as
    strings, numeric cells through float() (NaN matching NaN)."""
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# schema=1", ",".join(header)]
    cells = [line.split(",") for line in lines[2:]]
    assert len(cells) == len(rows)
    for r, (got, want) in enumerate(zip(cells, rows)):
        assert len(got) == len(want), (path.name, r)
        for cell, value in zip(got, want):
            if isinstance(value, str):
                assert cell == value, (path.name, r)
            else:
                parsed = float(cell)
                assert parsed == value or (np.isnan(parsed) and np.isnan(value)), (path.name, r)


class TestCsvCells:
    """Each runner's CSV against the results it computed, captured by
    wrapping the library calls it makes; the expected rows are built cell
    by cell, so a transposed or misordered writer fails."""

    @staticmethod
    def capture(monkeypatch, name: str) -> list:
        results = []
        fn = getattr(experiments, name)

        def wrapper(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, name, wrapper)
        return results

    def test_field(self, tmp_path, monkeypatch):
        fields = self.capture(monkeypatch, "flow_field")
        assert main(["field", "--out", str(tmp_path)]) == EXIT_OK
        assert [ff.parameterization for ff in fields] == ["original", "relative"]
        rows = [(m1, m2, ff.dmu1[i, j], ff.dmu2[i, j], ff.parameterization)
                for ff in fields
                for i, m2 in enumerate(ff.mu2_axis)
                for j, m1 in enumerate(ff.mu1_axis)]
        assert_csv_cells(tmp_path / "flow_field.csv",
                         ["mu1", "mu2", "dmu1_dt", "dmu2_dt", "parameterization"], rows)

    def test_gd(self, tmp_path, monkeypatch):
        trajs = self.capture(monkeypatch, "integrate_gd")
        assert main(["gd", "--out", str(tmp_path)]) == EXIT_OK
        assert [t.parameterization for t in trajs] == ["original", "relative"]
        for t in trajs:
            rows = [(s, t.mu1[s], t.mu2[s], t.delta[s], t.loglik[s], t.dist_to_true[s])
                    for s in range(t.n_steps + 1)]
            assert_csv_cells(tmp_path / f"gd_trajectory_{t.parameterization}.csv",
                             ["step", "mu1", "mu2", "delta", "loglik", "dist_to_true"], rows)

    def test_ecm(self, tmp_path, monkeypatch):
        em = self.capture(monkeypatch, "fit_em_standard")
        ecm = self.capture(monkeypatch, "fit_ecm_relative")
        assert main(["ecm", "--out", str(tmp_path)]) == EXIT_OK
        rows = [(s, p.means[0], p.means[1], abs(p.means[1] - p.means[0]),
                 res.loglik[s], res.dist_to_true[s], res.algorithm)
                for res in (*em, *ecm)
                for s, p in enumerate(res.trajectory_params)]
        assert len(ecm[0].trajectory_params) > 1  # so its step column restarts at 0 mid-file
        assert_csv_cells(tmp_path / "ecm_trajectories.csv",
                         ["step", "mu1", "mu2", "delta", "loglik", "dist_to_true",
                          "algorithm"], rows)

    @pytest.mark.parametrize("inject, activation", [
        (["elimination", "overlap", "linear_dependence"], "identity"), ([], "tanh")],
        ids=["injected", "clean"])
    def test_nn(self, tmp_path, monkeypatch, inject, activation):
        reports = self.capture(monkeypatch, "detect_singularities")
        cfg = default_config("nn")
        cfg.update(inject=inject, activation=activation)
        out = tmp_path / "o"
        assert main(["nn", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == EXIT_OK
        (report,) = reports
        rows = ([("elimination", layer, unit, -1, norm)
                 for layer, unit, norm in report.elimination]
                + [(f"overlap{'+' if sign > 0 else '-'}", layer, i, j, gap)
                   for layer, i, j, sign, gap in report.overlap]
                + [("linear_dependence", layer, triple[0], triple[1], resid)
                   for layer, triple, resid in report.linear_dependence])
        assert (len(rows) > 0) == bool(inject)
        assert_csv_cells(out / "nn_report.csv",
                         ["kind", "layer", "index_a", "index_b", "value"], rows)


class TestRunField:
    def test_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "o"
        assert main(["field", "--out", str(out)]) == EXIT_OK
        lines = (out / "flow_field.csv").read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "mu1,mu2,dmu1_dt,dmu2_dt,parameterization"
        # 41x41 grid, one block per parameterization
        assert len(lines) - 2 == 2 * 41 * 41

    def test_single_cell_grid(self, tmp_path):
        cfg = default_config("field")
        cfg["grid"] = {"min": 0.5, "max": 0.5, "step": 1.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["field", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = (out / "flow_field.csv").read_text().splitlines()
        assert len(lines) - 2 == 2  # one cell per parameterization
        svg = (out / "flow_field.svg").read_text()
        assert svg.startswith('<?xml version="1.0"')
        assert "<svg" in svg and svg.rstrip().endswith("</svg>")


class TestRunEcm:
    def test_huge_epsilon_stops_after_one_iteration(self, tmp_path):
        cfg = default_config("ecm")
        cfg["epsilon"] = 1e6
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["ecm", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = [l for l in (out / "ecm_trajectories.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        steps = {}
        for line in lines:
            algo = line.rsplit(",", 1)[1]
            steps[algo] = steps.get(algo, 0) + 1
        assert steps == {"em": 2, "ecm_relative": 2}  # init + one iterate each

    def test_nonconvergence_exit_code_with_artifacts(self, tmp_path):
        cfg = default_config("ecm")
        cfg["max_iters"] = 1
        cfg["epsilon"] = 1e-300
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["ecm", "--config", str(path), "--out", str(out)]) == EXIT_NUMERICAL
        assert (out / "ecm_trajectories.csv").exists()
        assert (out / "ecm_comparison.svg").exists()

    def test_dominance_claim_in_emitted_csv(self, tmp_path):
        out = tmp_path / "o"
        assert main(["ecm", "--out", str(out)]) == EXIT_OK
        em, ecm = [], []
        for line in (out / "ecm_trajectories.csv").read_text().splitlines()[2:]:
            cols = line.split(",")
            (em if cols[-1] == "em" else ecm).append(float(cols[5]))
        n = min(len(em), len(ecm))
        assert all(e <= m + 1e-12 for e, m in zip(ecm[5:n], em[5:n]))


class TestRunFim:
    def test_report_says_pass(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fim", "--out", str(out)]) == EXIT_OK
        report = (out / "fim_report.txt").read_text()
        assert "covariance_law: PASS" in report
        assert "symmetry: PASS" in report
        assert "psd: PASS" in report
        fields = dict(line.split(": ", 1) for line in report.splitlines())
        asymmetry = float(fields["max_asymmetry"])
        min_eig = float(fields["min_eigenvalue"])
        assert np.isfinite(asymmetry) and np.isfinite(min_eig)
        assert 0.0 <= asymmetry <= 1e-10 and min_eig >= -1e-8

    def test_matrix_csvs_have_headers(self, tmp_path):
        out = tmp_path / "o"
        assert main(["fim", "--out", str(out)]) == EXIT_OK
        for name in ("fim_direct_relative", "fim_absolute", "fim_transformed"):
            text = (out / f"{name}.csv").read_text()
            assert text.startswith("# fisher, coordinates=")


class TestRunNn:
    def test_report_contains_all_injected_kinds(self, tmp_path):
        out = tmp_path / "o"
        cfg = default_config("nn")
        cfg["sizes"] = [3, 4, 1]
        path = write_config(tmp_path, cfg)
        assert main(["nn", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = (out / "nn_report.txt").read_text()
        assert "elimination" in report
        assert "overlap" in report
        assert "linear_dependence" in report

    def test_clean_network_reports_identifiable(self, tmp_path):
        out = tmp_path / "o"
        cfg = default_config("nn")
        cfg["inject"] = []
        cfg["activation"] = "tanh"
        path = write_config(tmp_path, cfg)
        assert main(["nn", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert "identifiable" in (out / "nn_report.txt").read_text()


def test_run_ecm_creates_missing_out_dir(tmp_path):
    out = tmp_path / "deep" / "nested" / "dir"
    run(default_config("ecm"), out)
    assert (out / "run_manifest.json").exists()


def test_perfbench_tracer_runs_every_kind(tmp_path, monkeypatch):
    """perfbench/tracer.py wraps library functions by the names their callers
    look them up under; installing it fails if one of those names is gone.
    Each kind runs clean at its defaults under it, and uninstalling puts every
    original back."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer_module = importlib.import_module("tracer")
    runners = dict(experiments.RUNNERS)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._saved]
        for kind in KINDS:
            assert tracer.run(kind, main, [kind, "--out", str(tmp_path / kind)]) == EXIT_OK
    finally:
        tracer.uninstall()
    assert experiments.RUNNERS == runners
    for owner, attr in patched:
        assert not hasattr(tracer_module._get(owner, attr), "__wrapped__"), attr
    names = {span.name for span in tracer.spans}
    assert {f"experiments.run_{kind}" for kind in KINDS} <= names
    counts = tracer.counts
    assert min(counts["dynamics.gd_steps"], counts["dynamics.velocity_calls"],
               counts["ecm.em_iterations"], counts["ecm.ecm_iterations"],
               counts["fim.mc_draws"], counts["nn.triples"]) > 0
    metrics = tracer_module.layer_metrics(counts, tracer.breakdown(), 1.0)
    assert metrics["dynamics.gd_steps"] == 400
