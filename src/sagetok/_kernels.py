"""Compile-on-first-use C libraries, loaded through ``ctypes``.

Each compiled loop (``_sgns_rows.c`` for the SGNS row sums, ``_encode.c``
for the greedy encoder, ``_bpe.c`` for the BPE merge loop) is built by
:func:`build_kernel` into the package's own ``__pycache__`` and loaded
from there. No shared temporary directory: another user could plant a
library there. Where no C compiler runs or that directory cannot be
written, the caller gets None and uses its Python path, which gives the
same output.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import threading
from pathlib import Path

# no -march=native or -ffast-math: the loops must round as numpy does
KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def _compile_library(source: bytes, lib_path: Path, compiler: str) -> None:
    """Compile C ``source`` into the shared library ``lib_path``; OSError
    when the compiler is missing or fails. The library is written to a
    name of this thread's own, created by the linker with the usual
    permissions, and renamed, so a process never loads a partly written
    one."""
    # imported here: a process that finds its libraries cached never needs it
    import subprocess

    lib_path.parent.mkdir(exist_ok=True)
    tmp = lib_path.with_name(f"{lib_path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        subprocess.run([compiler, *KERNEL_FLAGS, "-x", "c", "-", "-o", tmp], input=source,
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, lib_path)
    except subprocess.SubprocessError as exc:
        raise OSError(f"{compiler} failed: {exc}") from None
    finally:
        tmp.unlink(missing_ok=True)


def build_kernel(source: Path, cache: Path, compiler: str = "cc") -> ctypes.CDLL | None:
    """The C file ``source``, compiled into ``cache`` on the first call and
    loaded; None when the compiler is missing or fails, or ``cache``
    cannot be written or read. The library's name hashes the source, the
    flags and the platform, so an edit builds a new one. The caller
    declares the argument types of the functions it calls."""
    import sysconfig

    try:
        text = source.read_bytes()
        key = hashlib.sha256(b"\0".join([text, " ".join(KERNEL_FLAGS).encode(), sysconfig.get_platform().encode()]))
        lib_path = cache / f"{source.stem}.{key.hexdigest()[:16]}.so"
        if not lib_path.exists():
            _compile_library(text, lib_path, compiler)
        return ctypes.CDLL(str(lib_path))
    except OSError:
        return None
