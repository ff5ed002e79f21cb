"""Environment fingerprint recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _blas_core() -> str | None:
    """The OpenBLAS kernel picked at run time (numpy's build config only
    names the build target), read from the OpenBLAS bundled with numpy."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        fn = getattr(ctypes.CDLL(lib_path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_config": blas.get("openblas configuration"),
        "blas_core": _blas_core(),
        "openblas_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("OPENBLAS_")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
    }
