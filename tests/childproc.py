"""Child interpreters for the tests that pin bits across numpy SIMD dispatch
levels and OpenBLAS kernels: those settings act only on a fresh process."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import relreparam

HERE = Path(__file__).resolve().parent
# numpy's SIMD dispatch without its AVX-512 kernels
REDUCED_SIMD = "X86_V4 AVX512_ICL AVX512_SPR"


def numpy_has_x86_v4() -> bool:
    """numpy dispatches to its AVX-512 (X86_V4) kernels on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        return False
    return bool(__cpu_features__.get("X86_V4"))


def child_env(**env_vars) -> dict:
    """This process's environment with `env_vars` set, the BLAS-kernel and
    SIMD-dispatch variables otherwise cleared, and this checkout's `src`
    first on PYTHONPATH."""
    env = dict(os.environ)
    for name in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES"):
        env.pop(name, None)
    env.update(env_vars)
    src = str(Path(relreparam.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# The test classes whose bits are pinned under reduced SIMD, as node ids
# relative to this directory. Each class's rerun test passes them all to
# ``assert_passes_under_reduced_simd``, so one child pytest reruns them.
REDUCED_SIMD_CLASSES = (
    "test_dynamics.py::TestIntegrateGdOracle",
    "test_dynamics.py::TestIntegrateGdRowMajorOracle",
    "test_fim.py::TestMcMomentsMatchRowMajorOracle",
    "test_gmm.py::TestLogSumExpRowsMatchesOracles",
    "test_gmm.py::TestSampleSlicesMatchOneShotDraw",
    "test_gmm.py::TestUnitSigmaPassMatchesGenericOracle",
    "test_nn.py::TestScreenedScanMatchesUnscreenedOracle",
    "test_svgplot.py::TestHundredthsMatchPercentFormat",
)


@functools.cache
def _run_under_reduced_simd(node_ids: tuple[str, ...]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", *node_ids,
         "-k", "not reduced_numpy_simd"],
        cwd=HERE, env=child_env(NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD),
        capture_output=True, text=True)


def assert_passes_under_reduced_simd(*node_ids: str) -> None:
    """Run the tests at `node_ids` (``file::Class``, relative to this
    directory) in one child pytest without numpy's AVX-512 kernels, leaving
    out their own reduced-SIMD reruns, and require that all passed, none was
    skipped and some of each class ran. The child runs once per process for
    the same node ids; later calls check its output again."""
    proc = _run_under_reduced_simd(node_ids)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "skipped" not in proc.stdout, proc.stdout
    for node_id in node_ids:
        assert f"{node_id}::" in proc.stdout, (node_id, proc.stdout)
