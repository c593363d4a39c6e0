"""Where a run happened: commit, CPU, core count, Python, numpy, BLAS."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without starting git; 'unknown' outside
    a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def blas() -> dict:
    """BLAS library, version and the thread count it actually uses."""
    info = {"name": "unknown", "version": "unknown", "threads": "unknown",
            "core": "unknown"}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    # numpy wheels bundle OpenBLAS under numpy.libs; the library is already
    # loaded, so opening it again only returns the existing handle.
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if get_threads is None:
                continue
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            info["threads"] = get_threads()
            if get_core is not None:
                get_core.restype = ctypes.c_char_p
                get_core.argtypes = []
                info["core"] = get_core().decode()
            return info
    return info


def describe(root: Path, nproc: int) -> dict:
    return {
        "git_commit": git_commit(root),
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
    }
