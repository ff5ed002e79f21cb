import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import relreparam
from relreparam.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                            EXIT_SINGULAR, main)
from relreparam.experiments import (ConfigError, default_config, load_config,
                                    run_ecm)

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

    def test_override_wins(self, tmp_path):
        path = write_config(tmp_path, {"kind": "fim", "seed": 3})
        cfg = load_config(path, overrides={"seed": 9})
        assert cfg["seed"] == 9

    def test_missing_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, {"seed": 1})
        with pytest.raises(ConfigError):
            load_config(path)


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
        cfg["grid"] = {"min": 0.0, "max": 1.0}  # no step
        path = write_config(tmp_path, cfg)
        assert main(["field", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_singular_fim_point_refused(self, tmp_path):
        cfg = default_config("fim")
        cfg["means"] = [1.0, 1.0]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["fim", "--config", str(path), "--out", str(out)]) == EXIT_SINGULAR
        # guarded precondition: nothing was emitted
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

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                        or not _dynamic_arch_openblas(),
                        reason="needs x86-64 and numpy on a DYNAMIC_ARCH OpenBLAS")
    @pytest.mark.parametrize("kind, csv", [("ecm", "ecm_trajectories.csv"),
                                           ("field", "flow_field.csv")],
                             ids=["ecm", "field"])
    def test_digest_independent_of_openblas_kernel(self, tmp_path, kind, csv):
        coretypes = ["native", "Prescott"] + (["Haswell"] if _cpu_has_avx2() else [])
        src = str(Path(relreparam.__file__).resolve().parents[1])
        digests = {}
        for coretype in coretypes:
            env = dict(os.environ)
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype != "native":
                env["OPENBLAS_CORETYPE"] = coretype
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / coretype
            proc = subprocess.run([sys.executable, "-m", "relreparam.cli", kind, "--out", str(out)],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == EXIT_OK, proc.stderr
            digests[coretype] = sha256(out / csv)
        assert set(digests.values()) == {GOLDEN[f"{kind}/{csv}"]}, digests


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
    run_ecm(default_config("ecm"), out)
    assert (out / "run_manifest.json").exists()
