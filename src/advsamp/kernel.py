"""Build and load the compiled kernel library, ``_kernel.c``.

It has two users: ``advsamp.training`` runs its training steps through it,
and ``advsamp.data_io.load_svmlight`` parses svmlight files with it.

The source is compiled on first use with the system C compiler (``cc``,
else ``gcc``) and loaded through ctypes. The library goes into the
package's ``__pycache__/``, named by the SHA-256 of the source, the compiler
command and the interpreter's extension suffix, so an edited source or
another interpreter gets its own build. When that directory is not
writable the build goes into a private temporary directory, removed again
once the library is loaded. Nothing is compiled at import.

``load()`` returns None, with one warning per process, when no compiler is
found or the build fails; training then runs its Python step loop, and
svmlight files are read by the Python line-by-line reader.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC")
LIBS = ("-lm",)

_P, _I, _D, _S = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_char_p
SIGNATURES = {
    # CSR arrays, order, step labels, step log p_n; n, m+1, t0, t1;
    # W, B, AW, AB; K; rho, lam, eps; scratch xi, g, first; loss out
    "advsamp_neg_steps": [_P] * 6 + [_I] * 4 + [_P] * 4 + [_I] + [_D] * 3 + [_P] * 4,
    # CSR arrays, order, labels; t0, t1; W, B, AW, AB; C, K;
    # rho, lam, eps; scratch p; loss out
    "advsamp_softmax_steps": [_P] * 5 + [_I] * 2 + [_P] * 4 + [_I] * 2 + [_D] * 3 + [_P] * 2,
    # file bytes, length, index offset; row, label and nonzero capacities;
    # label_ptr, labels, indptr, indices, data; sizes out
    "advsamp_parse_svmlight": [_S] + [_I] * 5 + [_P] * 6,
}


def library_name() -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(CFLAGS + LIBS).encode())
    key.update(suffix.encode())
    return f"_kernel-{key.hexdigest()[:16]}{suffix}"


def build(cc: str, target: Path) -> Path:
    """Compile the source into ``target`` through a temporary file in the
    same directory, so a concurrent reader never sees a partial library."""
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([cc, *CFLAGS, "-o", tmp, str(SOURCE), *LIBS],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _bind(path: Path):
    lib = ctypes.CDLL(str(path))
    for name, argtypes in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    return lib


@functools.cache
def load():
    """The kernel library, built if needed, or None when it cannot be had."""
    try:
        name = library_name()
    except OSError as exc:
        return _unavailable(f"cannot read {SOURCE.name}: {exc}")
    cache = SOURCE.parent / "__pycache__"
    if (cache / name).exists():
        try:
            return _bind(cache / name)
        except OSError:
            pass  # unreadable or not a library: build it again
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        return _unavailable("no C compiler (cc or gcc) found")
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    private = None
    if not os.access(cache, os.W_OK):
        cache = private = Path(tempfile.mkdtemp(prefix="advsamp-kernel-"))
    try:
        return _bind(build(cc, cache / name))
    except subprocess.CalledProcessError as exc:
        return _unavailable(f"{cc} failed on {SOURCE.name}: {exc.stderr.strip()}")
    except OSError as exc:
        return _unavailable(f"building {SOURCE.name} failed: {exc}")
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)


def _unavailable(reason: str):
    warnings.warn(f"compiled kernel unavailable ({reason}); training runs the Python "
                  "step loop and svmlight files are parsed in Python",
                  RuntimeWarning, stacklevel=3)
    return None
