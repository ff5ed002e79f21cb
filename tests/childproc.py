"""Child interpreters for the tests that pin bits across numpy SIMD dispatch
levels and OpenBLAS kernels: those settings act only on a fresh process."""

import os
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
