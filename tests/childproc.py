"""Child interpreters for the tests that pin bits across numpy SIMD dispatch
levels and OpenBLAS kernels: those settings act only on a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import relreparam

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


def assert_passes_under_reduced_simd(node_id: str) -> None:
    """Run the tests at `node_id` (``path::Class``) in a child pytest without
    numpy's AVX-512 kernels, leaving out their own reduced-SIMD rerun, and
    require that some ran and all passed."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node_id,
         "-k", "not reduced_numpy_simd"],
        env=child_env(NPY_DISABLE_CPU_FEATURES=REDUCED_SIMD), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " passed" in proc.stdout and "skipped" not in proc.stdout, proc.stdout
