import hashlib
import importlib.util
import itertools
import json
import platform
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml

from childproc import REDUCED_SIMD, child_env, numpy_has_x86_v4
from oracles import rowwise_write_csv, subparser_build_parser
from relreparam import experiments
from relreparam.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                            EXIT_SINGULAR, build_parser, main)
from relreparam.experiments import (DEFAULTS, KINDS, ConfigError, check_config,
                                    default_config, load_config, run)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "golden_digests.json").read_text())
GD_FILES = ["gd_trajectory_original.csv", "gd_trajectory_relative.csv", "gd_trajectory.svg"]
NN_FILES = ["nn_report.csv", "nn_report.txt"]


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


def _child_digest(out: Path, kind: str, filename: str, *cli_args: str, **env_vars) -> str:
    """Digest of the file `filename` from `kind` at its defaults (or with
    `cli_args`), run in a child interpreter with `env_vars` set (see
    `childproc.child_env`)."""
    proc = subprocess.run([sys.executable, "-m", "relreparam.cli", kind, "--out", str(out),
                           *cli_args],
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


class TestParser:
    """One parser with the kind as a positional argument, against the
    subparser-per-kind parser it replaced."""

    OPTIONS = (["--config", "cfg.yaml"], ["--out", "o"], ["--seed", "7"], ["--print-defaults"])

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_option_order_parses_as_before(self, kind):
        new, old = build_parser(), subparser_build_parser()
        argvs = [[kind, *itertools.chain(*opts)]
                 for r in range(len(self.OPTIONS) + 1)
                 for opts in itertools.permutations(self.OPTIONS, r)]
        argvs += [[kind, "--seed=3", "--out=o"], [kind, "--print"], [kind, "--seed", "-2"]]
        assert len(argvs) == 68
        for argv in argvs:
            assert vars(new.parse_args(argv)) == vars(old.parse_args(argv)), argv

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--out", "o"], ["Field"],
                                      ["nn", "--seed", "x"], ["nn", "extra"]],
                             ids=["no-kind", "unknown-kind", "options-only", "wrong-case",
                                  "bad-seed", "extra-argument"])
    def test_bad_argv_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "usage: relreparam" in capsys.readouterr().err

    def test_print_defaults_bytes_unchanged(self, capsys):
        pinned = json.loads((FIXTURES / "print_defaults.json").read_text())
        assert tuple(pinned) == KINDS
        for kind in KINDS:
            assert main([kind, "--print-defaults"]) == EXIT_OK
            assert capsys.readouterr().out == pinned[kind], kind

    def test_help_lists_every_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert "{field,gd,ecm,fim,nn}" in capsys.readouterr().out


def same_typed(a, b) -> bool:
    """``a == b`` with every nested value of the same type (so 2.0 is not 2,
    and the string '1e-8' is not a float)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_typed(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_typed, a, b))
    return a == b


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestYamlLoader:
    """Configs are parsed by libyaml's CSafeLoader, when PyYAML has it, with
    the pure-Python SafeLoader as the oracle: the same values of the same types."""

    EDGE_CASES = ["epsilon: 1e-8", "epsilon: 1.0e-8", "steps: 2.0", "steps: 2", "flag: true",
                  "budget: .inf", "low: -.inf", "seed: '5'", "tol: 0x10", "name: null",
                  "sizes: [3, 4.5, 1]", "grid: {min: -2, max: 2.0, step: 1e-1}"]

    @staticmethod
    def assert_loaders_agree(text: str):
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert same_typed(fast, slow), (text, fast, slow)

    def test_module_loader_is_libyaml(self):
        assert experiments._YAML_LOADER is yaml.CSafeLoader

    def test_print_defaults_documents(self, capsys):
        for kind in KINDS:
            assert main([kind, "--print-defaults"]) == EXIT_OK
            self.assert_loaders_agree(capsys.readouterr().out)

    def test_workload_configs(self):
        for cfg in TestConfigSchema.workload_configs():
            self.assert_loaders_agree(yaml.safe_dump(cfg))

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases(self, text):
        self.assert_loaders_agree(text)

    def test_edge_case_values(self):
        """The README's cases: YAML 1.1 reads 1e-8 as a string, and 2.0 stays a float."""
        loaded = yaml.load("[1e-8, 1.0e-8, 2.0, true, .inf, '5']", Loader=yaml.CSafeLoader)
        assert same_typed(loaded, ["1e-8", 1e-8, 2.0, True, float("inf"), "5"])

    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_either_loader_builds_the_same_config(self, tmp_path, monkeypatch, loader):
        monkeypatch.setattr(experiments, "_YAML_LOADER", getattr(yaml, loader))
        for cfg in TestConfigSchema.workload_configs():
            path = write_config(tmp_path, cfg)
            assert same_typed(load_config(path), {**default_config(cfg["kind"]), **cfg})

    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_malformed_yaml_exits_2_with_either_loader(self, tmp_path, monkeypatch, capsys,
                                                       loader):
        monkeypatch.setattr(experiments, "_YAML_LOADER", getattr(yaml, loader))
        bad = tmp_path / "broken.yaml"
        bad.write_text("kind: [unclosed")
        assert main(["nn", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {bad}")
        assert not (tmp_path / "o").exists()

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(b"kind: nn\nactivation: caf\xe9\n")
        assert main(["nn", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {bad}")
        assert not (tmp_path / "o").exists()

    def test_without_libyaml_the_python_loader_is_bound(self, tmp_path, monkeypatch):
        """A PyYAML built without libyaml has no CSafeLoader: the module binds
        SafeLoader and loads the same config."""
        monkeypatch.delattr(yaml, "CSafeLoader")
        spec = importlib.util.spec_from_file_location("relreparam._experiments_no_libyaml",
                                                      experiments.__file__)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module._YAML_LOADER is yaml.SafeLoader
        path = write_config(tmp_path, {"kind": "ecm", "epsilon": 1.0e-6, "init_means": [1, 2.5]})
        assert same_typed(module.load_config(path), load_config(path))


class TestConfigSchema:
    """Every config the project ships or benchmarks passes check_config, and
    checking leaves the config, and so its digest, as loaded."""

    DIGESTS = {"field": "eeb219ab2eb1", "gd": "991dc442d215", "ecm": "3a0f88821807",
               "fim": "54d46ab26324", "nn": "870c76fd1a74"}

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
        digest = experiments._finish(cfg, tmp_path, 0.0, {})["config_digest"]
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

    @pytest.mark.parametrize("kind, overrides, unread", [
        ("field", {}, {"seed"}),
        ("gd", {}, {"seed", "n_samples"}),
        ("gd", {"gradient_source": "empirical"}, set()),
        ("ecm", {}, set()),
        ("fim", {}, set()),
        ("nn", {}, set()),
    ], ids=["field", "gd-expected", "gd-empirical", "ecm", "fim", "nn"])
    def test_runner_reads_every_schema_key(self, kind, overrides, unread):
        """Every key a kind declares is read by its runner, except kind and
        out_dir (read by cli and run) and the seed and sample size of runs
        that draw no sample."""

        class Recorder(dict):
            def __init__(self, prefix, mapping):
                super().__init__({key: Recorder(f"{prefix}{key}.", value)
                                  if isinstance(value, dict) else value
                                  for key, value in mapping.items()})
                self.prefix = prefix

            def __getitem__(self, key):
                value = super().__getitem__(key)
                if not isinstance(value, Recorder):
                    read.add(self.prefix + key)
                return value

        def schema_paths(prefix, schema):
            return {path for key, value in schema.items()
                    for path in (schema_paths(f"{prefix}{key}.", value)
                                 if isinstance(value, dict) else [prefix + key])}

        read = set()
        values = check_config({**default_config(kind), **overrides})
        experiments.RUNNERS[kind](Recorder("", values))
        schema = {**DEFAULTS[kind], **experiments.OPTIONAL[kind]}
        assert read == schema_paths("", schema) - {"kind", "out_dir"} - unread

    def test_values_are_typed_and_filled(self):
        cfg = {**default_config("gd"), "steps": 3.0, "eta": 1, "true_means": [0, 0]}
        loaded = json.loads(json.dumps(cfg))
        values = check_config(cfg)
        assert cfg == loaded
        assert type(values["steps"]) is int and type(values["eta"]) is float
        assert [type(m) for m in values["true_means"]] == [float, float]
        assert (values["n_samples"], values["out_dir"]) == (200, "out/gd")

    @pytest.mark.parametrize("kind, bad, named", [
        ("ecm", {"n_sample": 5}, "unknown key n_sample"),
        ("ecm", {"reparam": {"encodng": "raw"}}, "unknown key reparam"),
        ("field", {"grid": {"min": 0.0, "max": 1.0}}, "missing key grid.step"),
        ("nn", {"sizes": [3, 4.5, 1]}, "sizes[1] must be an integer"),
        ("nn", {"inject": ["elimnation"]}, "inject[0] must be one of"),
        ("nn", {"tol": float("nan")}, "tol must be a finite number"),
        ("ecm", {"reparam": {"order_by": "sigma"}}, "unknown key reparam"),
        ("fim", {"reparam": {"encoding": "squared"}}, "unknown key reparam"),
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

    def test_divergent_empirical_gd_ends_in_minus_inf_loglik(self, tmp_path):
        # the last finite iterate's means are ~1e154: every density underflows
        # and its log-likelihood is -inf, not NaN
        cfg = default_config("gd")
        cfg["gradient_source"] = "empirical"
        cfg["eta"] = 50
        out = tmp_path / "o"
        assert main(["gd", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == EXIT_NUMERICAL
        for pname in ("original", "relative"):
            lines = (out / f"gd_trajectory_{pname}.csv").read_text().splitlines()
            header = lines[1].split(",")
            loglik = [line.split(",")[header.index("loglik")] for line in lines[2:]]
            assert loglik[-1] == "-inf"
            assert "nan" not in loglik

    @pytest.mark.parametrize("args", [["--out", "o"], ["--print-defaults"]],
                             ids=["run", "print-defaults"])
    def test_unknown_log_level_is_config_error(self, tmp_path, args):
        """A RELREPARAM_LOG that names no logging level exits 2 with one
        stderr line, before anything runs or prints."""
        proc = subprocess.run([sys.executable, "-m", "relreparam.cli", "nn", *args],
                              env=child_env(RELREPARAM_LOG="verbose"), cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == ("config error: RELREPARAM_LOG must name a logging level, "
                               "got 'verbose'\n")
        assert proc.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_an_out_dir_that_cannot_be_made_is_an_output_error(self, tmp_path, below):
        """--out naming a regular file, or a path below one: the run exits 2
        with one stderr line, not a traceback, and the file is left as is."""
        blocker = tmp_path / "F"
        blocker.write_text("kept\n")
        env = child_env()
        env.pop("RELREPARAM_LOG", None)
        proc = subprocess.run([sys.executable, "-m", "relreparam.cli", "nn", "--out",
                               str(blocker / "sub" if below else blocker)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("output error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("kind", KINDS)
    def test_default_run_stderr_is_empty(self, tmp_path, kind):
        """Each kind at its defaults, in a fresh interpreter, exits 0 and
        writes nothing to stderr: no numpy warning leaks out."""
        env = child_env()
        env.pop("RELREPARAM_LOG", None)
        proc = subprocess.run([sys.executable, "-m", "relreparam.cli", kind,
                               "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_rerun_over_stale_files_matches_a_fresh_run(self, tmp_path, kind):
        """Two runs into one --out over larger stale files leave the bytes of
        a run into a fresh directory, and the manifest hashes what is on disk."""
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        assert main([kind, "--out", str(fresh)]) == EXIT_OK
        names = sorted(p.name for p in fresh.iterdir())
        reused.mkdir()
        for name in names:
            (reused / name).write_bytes((fresh / name).read_bytes() * 2 + b"stale\n")
        for _ in range(2):
            assert main([kind, "--out", str(reused)]) == EXIT_OK
            assert sorted(p.name for p in reused.iterdir()) == names
            for name in names:
                if name != "run_manifest.json":
                    assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
            manifest = json.loads((reused / "run_manifest.json").read_text())
            fresh_manifest = json.loads((fresh / "run_manifest.json").read_text())
            del manifest["wall_time_s"], fresh_manifest["wall_time_s"]
            assert manifest == fresh_manifest
            for name, digest in manifest["files"].items():
                assert sha256(reused / name) == digest, name

    def test_symlink_at_an_output_name_is_replaced(self, tmp_path):
        """A symlink at an output name is replaced by a regular file; the file
        it pointed to is left as it was."""
        out, target = tmp_path / "o", tmp_path / "elsewhere.txt"
        out.mkdir()
        target.write_text("keep me\n")
        for name in ("nn_report.txt", "nn_report.csv", "run_manifest.json"):
            (out / name).symlink_to(target)
        assert main(["nn", "--out", str(out)]) == EXIT_OK
        assert target.read_text() == "keep me\n"
        manifest = json.loads((out / "run_manifest.json").read_text())
        for name in ("nn_report.txt", "nn_report.csv", "run_manifest.json"):
            assert not (out / name).is_symlink() and (out / name).is_file()
        for name, digest in manifest["files"].items():
            assert sha256(out / name) == digest

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
        assert sha256(out / "flow_field.svg") == GOLDEN["field/flow_field.svg"]

    def test_ecm_default_matches_golden(self, tmp_path):
        out = tmp_path / "ecm"
        assert main(["ecm", "--out", str(out)]) == EXIT_OK
        assert sha256(out / "ecm_trajectories.csv") == GOLDEN["ecm/ecm_trajectories.csv"]
        expected = (FIXTURES / "ecm_trajectories_golden.csv").read_bytes()
        assert (out / "ecm_trajectories.csv").read_bytes() == expected

    def test_gd_default_matches_golden(self, tmp_path):
        out = tmp_path / "gd"
        assert main(["gd", "--out", str(out)]) == EXIT_OK
        for name in GD_FILES:
            assert sha256(out / name) == GOLDEN[f"gd/{name}"], name

    def test_nn_default_matches_golden(self, tmp_path):
        out = tmp_path / "nn"
        assert main(["nn", "--out", str(out)]) == EXIT_OK
        for name in NN_FILES:
            assert sha256(out / name) == GOLDEN[f"nn/{name}"], name

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                        or not _dynamic_arch_openblas(),
                        reason="needs x86-64 and numpy on a DYNAMIC_ARCH OpenBLAS")
    @pytest.mark.parametrize("kind, files", [("ecm", ["ecm_trajectories.csv"]),
                                             ("field", ["flow_field.csv", "flow_field.svg"]),
                                             ("gd", GD_FILES), ("nn", NN_FILES)],
                             ids=["ecm", "field", "gd", "nn"])
    def test_digest_independent_of_openblas_kernel(self, tmp_path, kind, files):
        coretypes = ["native", "Prescott"] + (["Haswell"] if _cpu_has_avx2() else [])
        digests = {}
        for coretype in coretypes:
            env_vars = {} if coretype == "native" else {"OPENBLAS_CORETYPE": coretype}
            out = tmp_path / coretype
            _child_digest(out, kind, files[0], **env_vars)
            digests[coretype] = tuple(sha256(out / name) for name in files)
        assert set(digests.values()) == {tuple(GOLDEN[f"{kind}/{name}"] for name in files)}, digests

    # ecm is left out: numpy's exp/log round differently without AVX-512
    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_field_digest_under_reduced_numpy_simd(self, tmp_path):
        reduced = tmp_path / "field"
        digest = _child_digest(reduced, "field", "flow_field.csv",
                               NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD)
        assert digest == GOLDEN["field/flow_field.csv"]
        # the quiver's arctan2/cos/sin run over arrays, so through numpy's SIMD kernels
        assert sha256(reduced / "flow_field.svg") == GOLDEN["field/flow_field.svg"]

    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_gd_digests_under_reduced_numpy_simd(self, tmp_path):
        reduced = tmp_path / "gd"
        _child_digest(reduced, "gd", GD_FILES[0], NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD)
        for name in GD_FILES:
            assert sha256(reduced / name) == GOLDEN[f"gd/{name}"], name

    # the dependence scan's products and row sums run through numpy's SIMD kernels
    @pytest.mark.skipif(not numpy_has_x86_v4(), reason="needs numpy's X86_V4 dispatch")
    def test_nn_digests_under_reduced_numpy_simd(self, tmp_path):
        reduced = tmp_path / "nn"
        _child_digest(reduced, "nn", NN_FILES[0], NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD)
        for name in NN_FILES:
            assert sha256(reduced / name) == GOLDEN[f"nn/{name}"], name

    def test_wide_nn_report_same_under_kernels_and_simd(self, tmp_path):
        # the [40, 40, 1] network is not pinned: its bytes are compared
        # across settings, and need at least two of them
        settings = {"native": {}}
        if platform.machine().lower() in ("x86_64", "amd64") and _dynamic_arch_openblas():
            settings["Prescott"] = {"OPENBLAS_CORETYPE": "Prescott"}
            if _cpu_has_avx2():
                settings["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
        if numpy_has_x86_v4():
            settings["reduced SIMD"] = {"NPY_DISABLE_CPU_FEATURES": REDUCED_SIMD}
        if len(settings) < 2:
            pytest.skip("needs a DYNAMIC_ARCH OpenBLAS on x86-64 or numpy's X86_V4 dispatch")
        cfg = write_config(tmp_path, {"kind": "nn", "sizes": [40, 40, 1]})
        digests = {}
        for label, env_vars in settings.items():
            out = tmp_path / label
            _child_digest(out, "nn", NN_FILES[0], "--config", str(cfg), **env_vars)
            digests[label] = tuple(sha256(out / name) for name in NN_FILES)
        assert len(set(digests.values())) == 1, digests


def cell_text(value) -> str:
    """The text a CSV cell holds for an in-memory value: a string as it is,
    an integer as ``str(int)``, a float as the ``repr`` of its double, so
    that -0.0 is not 0.0."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def assert_csv_cells(path: Path, header: list[str], rows: list[tuple]) -> None:
    """Every CSV cell is exactly the text of its in-memory value (``cell_text``)."""
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# schema=1", ",".join(header)]
    cells = [line.split(",") for line in lines[2:]]
    assert len(cells) == len(rows)
    for r, (got, want) in enumerate(zip(cells, rows)):
        assert got == [cell_text(value) for value in want], (path.name, r)


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

    def test_repeated_values_and_negative_zero(self, tmp_path):
        """A value shared by many cells and columns keeps each cell's own
        text: -0.0 next to 0.0, within a column and across columns."""
        a = np.array([0.0, -0.0, 0.1, 0.1, -0.0, np.nan, -np.nan, np.inf, 0.1])
        b = a[::-1].copy()
        header = ["a", "b", "a_again", "step", "name"]
        columns = [a, b, a, np.arange(a.size), ["x"] * a.size]
        experiments.write_csv(tmp_path / "t.csv", header, columns)
        assert_csv_cells(tmp_path / "t.csv", header,
                         list(zip(a, b, a, range(a.size), columns[-1])))
        assert (tmp_path / "t.csv").read_text().splitlines()[3] == "-0.0,inf,-0.0,1,x"


# Floats at the repr switch points, the signed zeros and NaNs, the infinities
# and the smallest subnormal, in one column.
NEGATIVE_NAN = np.copysign(np.nan, -1.0)
EDGE_FLOATS = np.array([0.0, -0.0, np.nan, NEGATIVE_NAN, np.inf, -np.inf, 5e-324, -5e-324,
                        1e16, 9999999999999998.0, 1e-05, 0.0001, 0.1, 1.0 / 3.0, -2.5])
EDGE_TABLES = {
    "edge-floats": [EDGE_FLOATS],
    "signed-zeros-across-columns": [np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0, 0.0])],
    "value-shared-by-columns": [EDGE_FLOATS, EDGE_FLOATS[::-1], EDGE_FLOATS.copy(),
                                np.full(EDGE_FLOATS.size, 0.1)],
    "mixed-columns": [
        np.arange(EDGE_FLOATS.size), range(EDGE_FLOATS.size), EDGE_FLOATS,
        ["s"] * EDGE_FLOATS.size, list(range(-7, 8)), EDGE_FLOATS.tolist(),
        EDGE_FLOATS.astype(np.float32), EDGE_FLOATS.astype(">f8"), EDGE_FLOATS > 0.0,
        np.stack([EDGE_FLOATS, EDGE_FLOATS[::-1]], axis=1)[:, 1]],
    "zero-rows": [np.empty(0), np.arange(0), range(0), [], np.empty(0, dtype=np.float32)],
    "no-float64": [np.arange(3), ["a", "b", "c"], [0.5, -0.0, 2.0]],
}


class TestWriteCsv:
    """``write_csv`` against ``rowwise_write_csv``, the cell-by-cell writer
    it replaced, byte for byte."""

    @pytest.mark.parametrize("name", list(EDGE_TABLES))
    def test_edge_tables_match_rowwise_writer(self, tmp_path, name):
        columns = EDGE_TABLES[name]
        header = [f"c{i}" for i in range(len(columns))]
        experiments.write_csv(tmp_path / "fast.csv", header, columns)
        rowwise_write_csv(tmp_path / "rowwise.csv", header, columns)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()

    def test_edge_floats_text(self, tmp_path):
        experiments.write_csv(tmp_path / "t.csv", ["x"], [EDGE_FLOATS])
        assert (tmp_path / "t.csv").read_text().splitlines()[2:] == [
            "0.0", "-0.0", "nan", "nan", "inf", "-inf", "5e-324", "-5e-324", "1e+16",
            "9999999999999998.0", "1e-05", "0.0001", "0.1", "0.3333333333333333", "-2.5"]

    # Each kind at its defaults, then perfbench's SCALED_FIELD and LONG_GD and a
    # grid whose velocities overflow to inf and nan. fim is left out: its CSVs
    # are FisherMatrix.to_csv text, not tables.
    @pytest.mark.parametrize("kind, overrides", [(kind, {}) for kind in KINDS if kind != "fim"] + [
        ("field", {"grid": {"min": -2.0, "max": 2.0, "step": 0.05}}),
        ("field", {"grid": {"min": -1.0e103, "max": 1.0e103, "step": 1.0e102}}),
        ("gd", {"steps": 1000}),
    ], ids=[kind for kind in KINDS if kind != "fim"]
        + ["field-81x81", "field-overflowing", "gd-1000-steps"])
    def test_every_csv_matches_rowwise_writer(self, tmp_path, monkeypatch, kind, overrides):
        fast = experiments.write_csv
        rowwise_dir = tmp_path / "rowwise"
        rowwise_dir.mkdir()
        written = []

        def both(path, header_cols, columns):
            rowwise_write_csv(rowwise_dir / path.name, header_cols, columns)
            written.append(path.name)
            return fast(path, header_cols, columns)

        monkeypatch.setattr(experiments, "write_csv", both)
        cfg = {**default_config(kind), **overrides}
        out = tmp_path / "o"
        assert main([kind, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
        assert len(written) == (2 if kind == "gd" else 1)
        for name in written:
            assert (out / name).read_bytes() == (rowwise_dir / name).read_bytes(), name

    @pytest.mark.parametrize("columns", [[np.zeros(2), [1]], [np.zeros(2), np.zeros(3)],
                                         [range(2), ["a"]]], ids=["mixed", "float64", "other"])
    def test_unequal_columns_raise_and_write_nothing(self, tmp_path, columns):
        with pytest.raises(ValueError, match="unequal length for t.csv"):
            experiments.write_csv(tmp_path / "t.csv", ["a", "b"], columns)
        assert not (tmp_path / "t.csv").exists()

    def test_zero_row_table_writes_the_header_only(self, tmp_path):
        cfg = {**default_config("nn"), "inject": [], "activation": "tanh"}
        out = tmp_path / "o"
        assert main(["nn", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
        assert (out / "nn_report.csv").read_text() == "# schema=1\nkind,layer,index_a,index_b,value\n"


class TestRunField:
    def test_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "o"
        assert main(["field", "--out", str(out)]) == EXIT_OK
        lines = (out / "flow_field.csv").read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == "mu1,mu2,dmu1_dt,dmu2_dt,parameterization"
        # 41x41 grid, one block per parameterization
        assert len(lines) - 2 == 2 * 41 * 41

    def test_overflowing_grid_stderr_is_empty(self, tmp_path):
        """Velocities that overflow to inf or nan are written as they are,
        and numpy's floating-point warnings stay off stderr."""
        cfg = default_config("field")
        cfg["grid"] = {"min": -1.0e103, "max": 1.0e103, "step": 1.0e102}
        path = write_config(tmp_path, cfg)
        env = child_env()
        env.pop("RELREPARAM_LOG", None)
        proc = subprocess.run([sys.executable, "-m", "relreparam.cli", "field", "--config",
                               str(path), "--out", str(tmp_path / "o")],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        assert "nan" in (tmp_path / "o" / "flow_field.csv").read_text()

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


class TestSvgValidity:
    """Every SVG the CLI writes parses as XML, and its coordinates and sizes
    are finite numbers."""

    NUMERIC = ("x1", "y1", "x2", "y2", "x", "y", "width", "height")

    @pytest.mark.parametrize("kind, grid", [(kind, None) for kind in KINDS] + [
        ("field", {"min": -1.0e+100, "max": 1.0e+100, "step": 5.0e+99}),
        ("field", {"min": 1.0, "max": 1.0, "step": 0.5}),
    ], ids=list(KINDS) + ["field-overflowing", "field-one-cell"])
    def test_coordinates_are_finite(self, tmp_path, kind, grid):
        cfg = default_config(kind)
        if grid is not None:
            cfg["grid"] = grid
        out = tmp_path / "o"
        assert main([kind, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == EXIT_OK
        svgs = sorted(out.glob("*.svg"))
        assert svgs or kind in ("fim", "nn")
        for svg in svgs:
            for el in ElementTree.parse(svg).iter():
                values = [el.attrib[a] for a in self.NUMERIC if a in el.attrib]
                values += re.split("[ ,]", el.attrib.get("points", ""))
                assert all(np.isfinite(float(v)) for v in values if v), (svg.name, el.attrib)


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
    assert run(default_config("ecm"), out)[0] == out
    assert (out / "run_manifest.json").exists()


def test_run_writes_to_the_configs_out_dir_by_default(tmp_path):
    out = tmp_path / "from_config"
    got, manifest = run({**default_config("nn"), "out_dir": str(out)})
    assert got == out
    assert {p.name for p in out.iterdir()} == {*manifest["files"], "run_manifest.json"}


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
