"""The package's C kernels, built on first use and loaded with ctypes.

Every `*.c` file beside this module is compiled into one shared
library: the dynamics kernels of sweep.c (`envs`: the peg rollout and
the cable step with its chain relaxation), the Matern kernel block of
matern.c and the subset Cholesky of cholesky.c (`gp`), and the
free-space flood fill of reach.c (`constraints`). The first call of
`kernels()` in a process builds it, unless a per-user cache
($XDG_CACHE_HOME/obsurf, else ~/.cache/obsurf) holds a build of the
same sources, flags and machine.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

# The kernels' results must equal their numpy or LAPACK formulations'
# bit for bit: no -ffast-math, no FMA contraction. The cable kernel
# starts threads (-pthread).
_CFLAGS = ("-O2", "-fPIC", "-shared", "-pthread", "-ffp-contract=off",
           "-fno-math-errno")
_COMPILERS = ("cc", "gcc")
_ptr, _long, _dbl = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
# Result and argument types of each kernel.
_KERNELS = {
    "obsurf_rollout": (None, [_ptr, _long, _long, _ptr, _ptr, _long, _ptr,
                              _dbl, _dbl]),
    "obsurf_cable": (_long, [_ptr, _long, _long, _long, _ptr, _ptr, _long,
                             _ptr, _long, _ptr, _ptr, _dbl, _dbl, _dbl, _dbl,
                             _dbl, _long, _ptr]),
    "obsurf_cholesky": (_long, [_ptr, _long, _ptr, _ptr, _long, _ptr, _long,
                                _ptr, _ptr, _ptr, _ptr]),
    "obsurf_inverse": (None, [_ptr, _ptr, _long, _ptr]),
    "obsurf_matern_s": (None, [_ptr, _long, _ptr, _long, _long, _dbl, _ptr,
                               _ptr]),
    "obsurf_matern_k": (None, [_ptr, _ptr, _long, _dbl, _ptr]),
    "obsurf_reach": (_long, [_ptr, _long, _long, _long, _long, _long, _ptr,
                             _long, _ptr]),
}


def _compiler() -> Optional[str]:
    """Path of the first C compiler on PATH, or None."""
    return next(filter(None, map(shutil.which, _COMPILERS)), None)


@functools.cache
def kernels() -> ctypes.CDLL:
    """The library built from the package's C sources (see the module
    docstring), with each kernel's ctypes signature set."""
    sources = sorted(Path(__file__).parent.glob("*.c"))
    names = ", ".join(src.name for src in sources)
    key = hashlib.sha256(b"".join(src.name.encode() + src.read_bytes()
                                  for src in sources) + repr(
        (_CFLAGS, platform.machine())).encode()).hexdigest()[:16]
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    cache = (Path(xdg) if os.path.isabs(xdg)
             else Path.home() / ".cache") / "obsurf"
    lib = cache / f"kernels-{key}.so"
    if not lib.exists():
        cc = _compiler()
        if cc is None:
            raise RuntimeError(f"obsurf's kernels need a C compiler to build "
                               f"{names}; found none of "
                               f"{', '.join(_COMPILERS)} on PATH")
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=cache)
        os.close(fd)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", tmp, *map(str, sources)],
                           check=True, capture_output=True, text=True)
            # whole or absent, so concurrent builders never load half a file
            os.replace(tmp, lib)
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(f"{cc} failed to build {names}:\n"
                               f"{exc.stderr}") from None
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    built = ctypes.CDLL(str(lib))
    for name, (restype, argtypes) in _KERNELS.items():
        fn = getattr(built, name)
        fn.restype, fn.argtypes = restype, argtypes
    return built


def arg(name: str, a, shape: tuple, fixed: tuple = ()) -> int:
    """Address of a C-contiguous float64 array of the given shape. An
    array of `fixed`, (array, address) pairs from `fixed`, skips the
    checks and the address lookup, which costs ~3 us a call."""
    for own, own_addr in fixed:
        if a is own and a.shape == shape:
            return own_addr
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.shape == shape):
        raise ValueError(f"{name} must be a C-contiguous float64 "
                         f"array of shape {shape}, not "
                         f"{getattr(a, 'dtype', type(a).__name__)} "
                         f"{np.shape(a)}")
    return addr(a)


def addr(a: np.ndarray) -> int:
    """Address of a C-contiguous array's data. A writable one is read
    through ctypes' buffer view, ~1 us where a.ctypes.data takes ~3."""
    if a.flags.writeable and a.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def fixed(*arrays: np.ndarray) -> tuple:
    """Kernel arguments that never change, as `arg` takes them."""
    return tuple((a, arg("fixed", a, a.shape)) for a in arrays)
