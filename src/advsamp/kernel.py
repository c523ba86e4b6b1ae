"""Build and load the compiled kernel library, ``_kernel.c``.

It has four users: ``advsamp.training`` runs its training steps through
it, ``advsamp.aux_tree.fit_tree`` fits the tree's nodes with it one level
per call, ``advsamp.aux_tree.AuxiliaryTree`` walks the tree with it (all
log-probabilities in ``log_prob_all``, one path per row in
``sample_batch`` and ``log_prob_pairs``), and ``advsamp.data_io`` parses
every svmlight file with it and multiplies CSR rows by dense matrices
with it (``CsrRows.matmul``, behind the PCA projection and evaluation).

The source is compiled on first use with the system C compiler (``cc``,
else ``gcc``) and loaded through ctypes. The library goes into the
package's ``__pycache__/``, named by the SHA-256 of the source, the compiler
command and the interpreter's extension suffix, so an edited source or
another interpreter gets its own build; a new build there deletes the
builds of the same suffix that it supersedes. When that directory is not
writable the build goes into a private temporary directory, removed again
once the library is loaded. Nothing is compiled at import.

The kernel is required: ``load()`` raises a ``KernelError`` naming the
compiler it looked for, or the build's error, when it cannot have the
library. Either outcome is kept for the rest of the process, so a failed
build is not run again on the next call.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

from .errors import KernelError

SOURCE = Path(__file__).with_name("_kernel.c")
CFLAGS = ("-O2", "-shared", "-fPIC")
LIBS = ("-lm",)

_P, _I, _D, _S = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_char_p
# every exported function of the source, by its users: training's two step
# loops, aux_tree's level fit, log-probability walk and path walk, and
# data_io's CSR product and two svmlight passes; tests/test_kernel.py checks
# them against the source
SIGNATURES = {
    # CSR arrays, order, step labels, step log p_n; n, m+1, t0, t1;
    # W, B, AW, AB; K; rho, lam, eps; scratch xi, g, first; loss out
    "advsamp_neg_steps": [_P] * 6 + [_I] * 4 + [_P] * 4 + [_I] + [_D] * 3 + [_P] * 4,
    # CSR arrays, order, labels; t0, t1; W, B, AW, AB; C, K;
    # rho, lam, eps; scratch p; loss out
    "advsamp_softmax_steps": [_P] * 5 + [_I] * 2 + [_P] * 4 + [_I] * 2 + [_D] * 3 + [_P] * 2,
    # rows, slots, row_ptr; k; label ids, counts, aggregates; nodes, L,
    # num_real; lam, grad tol, gain ulps; max iter, halvings, guard;
    # theta in/out, zeta, counters and cap_grad out
    "advsamp_fit_level": [_P] * 3 + [_I] + [_P] * 3 + [_I] * 3 + [_D] * 3 + [_I] * 3 + [_P] * 4,
    # logits, log sigma tails; n, depth; label_leaf; C; scratch acc (2 Cp),
    # out in/out
    "advsamp_tree_add_log_probs": [_P] * 2 + [_I] * 2 + [_P] + [_I] + [_P] * 2,
    # rows; n, k; node_w, node_b; depth; thresholds (None for pairs),
    # leaves in (pairs) or out (sampling), signed logits out (pairs)
    "advsamp_tree_walk": [_P] + [_I] * 2 + [_P] * 2 + [_I] + [_P] * 3,
    # CSR arrays; first and end row; dense (K, k) operand; k; (rows, k) out
    "advsamp_csr_matmat": [_P] * 3 + [_I] * 2 + [_P] + [_I] + [_P],
    # file bytes, length; counts of line ends, commas and colons out
    "advsamp_count_svmlight": [_S, _I, _P],
    # file bytes, length, index offset, feature count limit; label_ptr,
    # labels, indptr, indices, data; sizes or error place out
    "advsamp_parse_svmlight": [_S] + [_I] * 3 + [_P] * 6,
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


def load():
    """The kernel library, built if needed; a KernelError when it cannot be
    built or loaded."""
    lib = _outcome()
    if isinstance(lib, KernelError):
        raise KernelError(str(lib))
    return lib


@functools.cache
def _outcome():
    """``open_library()``'s library or its KernelError, once per process:
    ``functools.cache`` would not keep a raised exception."""
    try:
        return open_library()
    except KernelError as exc:
        return exc


def open_library():
    """The library from the package's cache, built there (or privately) when
    it is missing; a KernelError when no compiler is found or the build
    fails."""
    try:
        name = library_name()
    except OSError as exc:
        raise KernelError(f"cannot read {SOURCE.name}: {exc}") from exc
    cache = SOURCE.parent / "__pycache__"
    if (cache / name).exists():
        try:
            return _bind(cache / name)
        except OSError:
            pass  # unreadable or not a library: build it again
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        raise KernelError(f"no C compiler (cc or gcc) found to build {SOURCE.name}")
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    private = None
    if not os.access(cache, os.W_OK):
        cache = private = Path(tempfile.mkdtemp(prefix="advsamp-kernel-"))
    try:
        lib = _bind(build(cc, cache / name))
    except subprocess.CalledProcessError as exc:
        raise KernelError(f"{cc} failed on {SOURCE.name}: {exc.stderr.strip()}") from exc
    except OSError as exc:
        raise KernelError(f"building {SOURCE.name} failed: {exc}") from exc
    finally:
        if private is not None:
            shutil.rmtree(private, ignore_errors=True)
    # the builds this one supersedes: other hashes with the same extension
    # suffix (another interpreter's builds have another suffix)
    suffix = name[len("_kernel-") + 16:]  # past the hash
    for old in set(cache.glob("_kernel-" + "?" * 16 + suffix)) - {cache / name}:
        with contextlib.suppress(OSError):
            old.unlink()
    return lib
