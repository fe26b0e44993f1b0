"""Compiled backend tier: ctypes-loaded C kernels for the hot paths.

The C source (``_kernels.c``, shipped next to this module) runs, over
exactly the tables and reducer constants the numpy kernels use:

* the batched NTT forward / inverse for the four Table-3 butterfly
  families, reading and writing the caller's uint64 limb matrix (each
  row is range-checked and staged to 32-bit state inside the kernel).
  The Shoup, Montgomery and SMR families share one vectorized stage
  routine on 32-bit lanes; :class:`CompiledNtt` hands it 32-bit twiddle
  tables (uint32 Shoup companions and Montgomery forms, int32 signed
  Montgomery forms), cast once from the engine's 64-bit carriers;
* the NTT-domain pointwise product against a prepared operand;
* the key-switch inner-product MAC — one fused kernel per reducer for
  :class:`~repro.poly.lazy.LazyAccumulator`'s ``reduced`` strategy plus
  SMR ``raw`` — and its terminal ``fold`` / ``fold_into``;
* the basis-conversion scale step and CRT tensor pass.

Outputs are bit-identical by the canonical-exactness argument in the
package docstring; the MAC and fold also replay the numpy reducers'
wrapping arithmetic step for step, so even the lazy accumulator contents
match.  The shared library is built lazily on first use with
whatever C compiler is around (``$CC``, else ``cc``/``gcc``/``clang``)
and the flags in :data:`CFLAGS` (``-march=native`` targets the host's
vector ISA; a compiler that rejects it builds without it).  It is
cached under ``$REPRO_KERNEL_CACHE`` (default: a per-user directory in
the system tempdir) by a digest of the source, the compiler, the flags
and the host CPU (:func:`_build_key`), so one build serves every process
and every test run on this host, and nothing stale or built for another
CPU is ever loaded.

No toolchain — or a failing build — is *not* an error: :func:`get_lib`
warns once per process with :class:`~repro.poly.backends.
BackendFallbackWarning` and every subsequent call silently uses the
numpy tier.  ``_reset()`` clears that latch for tests.

Checked mode runs *inside* the C kernels: each (limb, stage) pass
re-scans the live row against the certified stage bound (canonical
``q-1`` for the Shoup / Montgomery / SMR families, Harvey-lazy ``2q-1``
for Barrett) and a violation surfaces as the same
:class:`~repro.errors.SanitizerError` shape the numpy kernels raise.
The converter and the MAC / fold are the exceptions: under ``checked``
they fall through to the numpy path so the LazyAccumulator's
fold-soundness instrumentation (not just the output bound) stays active.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.errors import SanitizerError
from repro.poly.backends import BackendFallbackWarning
from repro.poly.ntt import _range_error

_SOURCE = Path(__file__).with_name("_kernels.c")

_LIB: ctypes.CDLL | None = None
_FAILED = False


def _reset() -> None:
    """Forget the loaded library and the warn-once latch (tests only)."""
    global _LIB, _FAILED
    _LIB = None
    _FAILED = False


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE", "").strip()
    if env:
        return Path(env)
    uid = getattr(os, "getuid", lambda: "all")()
    return Path(tempfile.gettempdir()) / f"repro-kernels-{uid}"


def _compiler() -> str | None:
    cc = os.environ.get("CC", "").strip()
    if cc:
        return cc
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


#: Compile flags of the kernel library.  ``-march=native`` targets the
#: host's vector ISA (AVX2 / AVX-512 lanes for the 32-bit butterflies);
#: a compiler that rejects it builds without it (``_PORTABLE``).
CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared")
_PORTABLE = tuple(f for f in CFLAGS if f != "-march=native")


def _host_isa() -> str:
    """The host's instruction-set identity: machine name plus the CPU
    feature flags where the OS lists them (Linux ``/proc/cpuinfo``)."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith(("flags", "Features")):
                    return f"{platform.machine()}:{line.split(':', 1)[1].strip()}"
    except OSError:
        pass
    return f"{platform.machine()}:{platform.processor()}"


def _build_key(cc: str) -> str:
    """Digest naming the library: source, compiler, flags and host ISA.

    The compiler is identified by its resolved path and that file's size
    and mtime, so a changed ``$CC`` or an upgraded toolchain rebuilds,
    and a cache shared with another CPU never loads code built for
    instructions it lacks.
    """
    path = shutil.which(cc) or cc
    try:
        st = os.stat(path)
        ident = f"{path}:{st.st_size}:{st.st_mtime_ns}"
    except OSError:
        ident = path
    h = hashlib.sha256(_SOURCE.read_bytes())
    for part in (ident, " ".join(CFLAGS), _host_isa()):
        h.update(b"\0" + part.encode())
    return h.hexdigest()[:16]


def _build_lib() -> Path:
    """Compile (or reuse) the kernel shared library, returning its path.

    The artifact name carries :func:`_build_key`, so editing
    ``_kernels.c``, switching compilers or moving the cache to another
    host invalidates stale builds naturally; the build lands under a
    temporary name and is published with an atomic ``os.replace`` so
    concurrent processes never load a half-written library.
    """
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler found ($CC unset, no cc/gcc/clang)")
    cache = _cache_dir()
    so = cache / f"repro_kernels_{_build_key(cc)}.so"
    if so.exists():
        return so
    cache.mkdir(parents=True, exist_ok=True)
    tmp = so.with_name(f"{so.name}.tmp{os.getpid()}")
    for flags in (CFLAGS, _PORTABLE):
        cmd = [cc, *flags, "-o", str(tmp), str(_SOURCE)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode == 0:
            os.replace(tmp, so)
            return so
    tmp.unlink(missing_ok=True)
    detail = (proc.stderr or proc.stdout).strip()[:400]
    raise RuntimeError(f"{cc} failed (rc={proc.returncode}): {detail}")


_P, _I = ctypes.c_void_p, ctypes.c_int64
#: C ABI of every exported kernel, argument by argument in ``_kernels.c``
#: order
_SIGNATURES = {
    "ntt32_run": [_I, _I] + [_P] * 8 + [_I, _I, _P, _P],
    "ntt_fwd_barrett": [_P] * 5 + [_I, _I, _P, _P],
    "ntt_inv_barrett": [_P] * 6 + [_I, _I, _P, _P],
    "pw_barrett": [_P] * 4 + [_I, _I, _P],
    "pw_mont": [_P] * 4 + [_I, _I, _P],
    "pw_shoup": [_P] * 4 + [_I, _I, _P],
    "pw_smr": [_P] * 4 + [_I, _I, _P],
    "mac_barrett": [_P] * 5 + [_I, _I],
    "mac_mont": [_P] * 5 + [_I, _I],
    "mac_shoup": [_P] * 5 + [_I, _I],
    "mac_smr": [_P] * 5 + [_I, _I],
    "mac_smr_raw": [_P] * 3 + [_I, _I],
    "fold_u64": [_P] * 3 + [_I, _I, _P, _I],
    "fold_i64": [_P] * 4 + [_I, _I, _I, _P, _I],
    "crt_convert": [_P] * 8 + [_I, _I, _I, _P],
    "crt_scale": [_P] * 4 + [_I, _I, _P],
}


#: family codes of the shared 32-bit NTT routine (``_kernels.c`` FAM_*);
#: Barrett keeps its own 64-bit lazy kernels
_FAM = {"shoup": 0, "montgomery": 1, "smr": 2}


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Pin every kernel's argument and return types, so a call with the
    wrong arity raises instead of reading garbage registers."""
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib


def get_lib() -> ctypes.CDLL | None:
    """The kernel library, building it on first call; ``None`` if absent.

    Degradation is loud exactly once: the first failed attempt emits one
    :class:`BackendFallbackWarning` naming the cause, then the failure
    is latched and later calls return ``None`` silently.
    """
    global _LIB, _FAILED
    if _LIB is not None:
        return _LIB
    if _FAILED:
        return None
    try:
        _LIB = _declare(ctypes.CDLL(str(_build_lib())))
    except Exception as exc:  # noqa: BLE001 - any build/load failure degrades
        _FAILED = True
        _LIB = None
        warnings.warn(
            f"compiled backend unavailable ({exc}); "
            "falling back to the numpy reference tier",
            BackendFallbackWarning,
            stacklevel=3,
        )
        return None
    return _LIB


def _ptr(a: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(a.ctypes.data)


def _c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a)


def _lanes(a, shape) -> bool:
    """Whether ``a`` is a C-ABI lane matrix: 64-bit ints, ``shape``, contiguous.

    The MAC kernels read int64 and uint64 lanes alike (the same bits the
    numpy reducers' ``astype`` casts produce); anything else — scalars,
    broadcast columns, strided views — stays on the numpy path.
    """
    return (
        isinstance(a, np.ndarray)
        and a.shape == shape
        and a.dtype.kind in "iu"
        and a.dtype.itemsize == 8
        and a.flags.c_contiguous
    )


class CompiledNtt:
    """C-kernel implementation bound to one :class:`BatchNTT` engine.

    Holds contiguous casts of the engine's prepared twiddle tables and
    reducer constants in the C ABI dtypes (built once per engine —
    ``take_rows``/``extend`` clones get their own impl) plus one
    ``n``-word row buffer the 32-bit transforms stage each limb through,
    so a transform is one C call from the caller's uint64 matrix to the
    uint64 result, range check included.  The same constants serve the
    pointwise product and the key-switch MAC / fold that
    :class:`~repro.poly.lazy.LazyAccumulator` dispatches here.
    """

    def __init__(self, engine, lib: ctypes.CDLL) -> None:
        self.engine = engine
        self.lib = lib
        self.n = engine.n
        self.num_limbs = len(engine.primes)
        self.shape = (self.num_limbs, self.n)
        self.method = method = engine.method
        red = engine.backend.red
        q64 = _c(np.array(engine.primes, dtype=np.uint64))
        self._q_col = q64.reshape(-1, 1)
        #: floor(2^64 / q) per limb, for the exact terminal fold
        self._mu64 = _c(
            np.array([(1 << 64) // q for q in engine.primes], dtype=np.uint64)
        )
        self._err = np.zeros(4, dtype=np.uint64)
        self._row = None
        fwd, inv, ninv = engine._fwd, engine._inv, engine._n_inv
        if method == "barrett":
            mu = _c(np.asarray(red.mu, dtype=np.uint64).reshape(-1))
            self._fwd_call = (lib.ntt_fwd_barrett, (), (_c(fwd[0]), q64, mu))
            self._inv_call = (
                lib.ntt_inv_barrett,
                (),
                (_c(inv[0]), _c(ninv[0].reshape(-1)), q64, mu),
            )
            self._pw = (lib.pw_barrett, (np.uint64,), (q64, mu))
            self._mac = (lib.mac_barrett, (q64, mu))
            return
        self._row = np.empty(self.n, np.uint32)
        # 32-bit tables, every cast exact: canonical twiddles and
        # Montgomery forms lie in [0, q), signed Montgomery forms in
        # (-q, q), Shoup companions floor(w * 2^32 / q) in [0, 2^32).
        dt = np.int32 if method == "smr" else np.uint32
        w_fwd, w_inv, nv = (
            _c(t[0].reshape(-1).astype(dt)) for t in (fwd, inv, ninv)
        )
        sh_fwd = sh_inv = nvsh = None
        if method == "shoup":
            sh_fwd, sh_inv, nvsh = (
                _c(t[1].reshape(-1).astype(np.uint32)) for t in (fwd, inv, ninv)
            )
        q32 = _c(q64.astype(np.uint32))
        fam = _FAM[method]
        self._fwd_call = (lib.ntt32_run, (fam, 0), (w_fwd, sh_fwd, None, None, q32))
        self._inv_call = (lib.ntt32_run, (fam, 1), (w_inv, sh_inv, nv, nvsh, q32))
        if method == "shoup":
            self._pw = (lib.pw_shoup, (np.uint64, np.uint64), (q64,))
            self._mac = (lib.mac_shoup, (q64,))
        elif method == "montgomery":
            qi = _c(np.asarray(red.q_inv_neg).reshape(-1).astype(np.uint32))
            self._pw = (lib.pw_mont, (np.uint64,), (q64, qi))
            self._mac = (lib.mac_mont, (q64, qi))
        else:
            m32 = _c(
                np.bitwise_and(
                    np.asarray(red.m, dtype=np.int64).reshape(-1),
                    np.int64(0xFFFFFFFF),
                ).astype(np.uint32)
            )
            self._m32 = m32
            self._pw = (lib.pw_smr, (np.int64,), (q64, m32))
            self._mac = (lib.mac_smr, (q64, m32))

    def _run(self, call, direction: str, src, dst) -> None:
        fn, head, tables = call
        err = self._err
        err[:] = 0
        kernel = self.engine._kernel
        # Read the *live* bound column each call: it is the same certified
        # per-stage bound the numpy kernel asserts, and tests tighten it
        # in place to prove the asserts run inside the hot loop.
        bound_col = None
        if kernel.checked:
            bound_col = np.ascontiguousarray(
                np.asarray(kernel._bound_col, dtype=np.uint64).reshape(-1)
            )
        staging = () if self._row is None else (_ptr(self._row),)
        rc = fn(
            *head,
            _ptr(src),
            _ptr(dst),
            *staging,
            *(None if t is None else _ptr(t) for t in tables),
            *self.shape,
            ctypes.c_void_p(None) if bound_col is None else _ptr(bound_col),
            _ptr(err),
        )
        if rc == 2:
            raise _range_error(src, self._q_col)
        if rc:
            limb = int(err[2])
            bound = int(bound_col[limb])
            m = int(err[1])
            stage = f"{direction} stage m={m}" if m else "n^-1 scale"
            raise SanitizerError(
                f"checked mode: {self.method} NTT {stage} produced "
                f"{int(err[0])} outside [0, {bound}] at row {limb}, "
                f"coefficient index {int(err[3])}"
            )

    def _transform(self, a, call, direction, out):
        """One C call from ``a`` to the result, range check included.

        The kernel stages each limb row in and out itself, so ``out`` may
        be ``a``; a partial overlap is the one case that needs a private
        copy of the input first.  On a range error the rows of ``out``
        before the offending limb may already hold their transforms.
        """
        src = np.ascontiguousarray(a, dtype=np.uint64)
        direct = (
            out is not None
            and out.dtype == np.uint64
            and out.flags.c_contiguous
        )
        dst = out if direct else np.empty(self.shape, np.uint64)
        if (
            dst.ctypes.data != src.ctypes.data
            and np.may_share_memory(src, dst)
        ):
            src = src.copy()
        self._run(call, direction, src, dst)
        if out is None or direct:
            return dst
        np.copyto(out, dst, casting="unsafe")
        return out

    def forward(self, a, out=None):
        return self._transform(a, self._fwd_call, "forward", out)

    def inverse(self, a_hat, out=None):
        return self._transform(a_hat, self._inv_call, "inverse", out)

    def pointwise_prepared(self, a_hat, prepared):
        """``a_hat * b`` against a prepared operand, canonical, in C.

        Returns ``None`` (numpy) unless every prepared part is a full
        contiguous limb matrix in the backend's dtype.
        """
        fn, dtypes, consts = self._pw
        if len(prepared) != len(dtypes) or not all(
            _lanes(p, self.shape) and p.dtype == dt
            for p, dt in zip(prepared, dtypes)
        ):
            return None
        a = np.ascontiguousarray(a_hat, dtype=np.uint64)
        out = np.empty(self.shape, np.uint64)
        rc = fn(
            _ptr(a),
            *(_ptr(p) for p in prepared),
            *(_ptr(c) for c in consts),
            *self.shape,
            _ptr(out),
        )
        if rc:
            raise _range_error(a, self._q_col)
        return out

    def mac(self, acc, a, b, b_shoup):
        """The fused C kernel for ``acc.acc += a * b``, or ``None``.

        Returns a zero-argument call so the accumulator can charge its
        worst-case bound *before* anything is written; ``None`` sends the
        term down the numpy path (scalar, broadcast or strided operands).
        ``acc`` is a :class:`~repro.poly.lazy.
        LazyAccumulator` whose reducer belongs to this engine.
        """
        operands = (a, b) if b_shoup is None else (a, b, b_shoup)
        if not all(_lanes(x, self.shape) for x in (acc.acc, *operands)):
            return None
        raw = acc.strategy == "raw"
        fn, consts = (self.lib.mac_smr_raw, ()) if raw else self._mac
        buffers = (acc.acc, *operands, *consts)

        def run() -> None:
            fn(*(_ptr(x) for x in buffers), *self.shape)

        return run

    def fold(self, acc, out, *, keep: bool):
        """Terminal fold of ``acc.acc`` into canonical ``out`` in C.

        ``keep`` also leaves the residues in the accumulator, the state
        :meth:`LazyAccumulator.fold_into` ends in.  ``out`` must be a
        contiguous uint64 limb matrix; returns ``None`` (numpy) otherwise.
        """
        lanes = _lanes(acc.acc, self.shape) and _lanes(out, self.shape)
        if not lanes or out.dtype != np.uint64:
            return None
        if acc.signed:
            self.lib.fold_i64(
                _ptr(acc.acc), _ptr(self._q_col), _ptr(self._mu64),
                _ptr(self._m32), int(acc.strategy == "raw"), *self.shape,
                _ptr(out), int(keep),
            )
        else:
            self.lib.fold_u64(
                _ptr(acc.acc), _ptr(self._q_col), _ptr(self._mu64),
                *self.shape, _ptr(out), int(keep),
            )
        return out


class CompiledConvert:
    """C CRT tensor pass bound to one :class:`BasisConverter`.

    Takes over ``convert``'s ``(L_out, L_in, N)`` cross-product + fold;
    the scale step and the exact ``v`` correction stay in the caller (the
    v guard needs Python big ints).  Declines (returns ``None``) under
    checked mode so the accumulator instrumentation stays engaged.
    """

    def __init__(self, converter, lib: ctypes.CDLL) -> None:
        self.converter = converter
        self.lib = lib
        self._m = _c(converter._m)
        self._msh = _c(converter._m_sh)
        self._corr = _c(converter._corr.reshape(-1))
        self._corrsh = _c(converter._corr_sh.reshape(-1))
        self._p = _c(np.array(converter.dst, dtype=np.uint64))
        self._mu = _c(
            np.array([(1 << 64) // p for p in converter.dst], dtype=np.uint64)
        )
        self._w = _c(converter._w.reshape(-1))
        self._wsh = _c(converter._w_sh.reshape(-1))
        self._q_src = _c(converter._q_src.reshape(-1))

    def scale_core(self, x, out):
        """The per-row Shoup scale in C; caller has already range-checked."""
        if self.converter.checked:
            return None
        if not (
            x.flags.c_contiguous
            and x.dtype == np.uint64
            and out.flags.c_contiguous
            and out.dtype == np.uint64
        ):
            return None
        self.lib.crt_scale(
            _ptr(x),
            _ptr(self._w),
            _ptr(self._wsh),
            _ptr(self._q_src),
            ctypes.c_int64(len(self.converter.src)),
            ctypes.c_int64(self.converter.n),
            _ptr(out),
        )
        return out

    def convert_core(self, x_hat, v_row, out):
        conv = self.converter
        if conv.checked:
            return None
        if not (
            x_hat.flags.c_contiguous
            and v_row.flags.c_contiguous
            and out.flags.c_contiguous
            and out.dtype == np.uint64
        ):
            return None
        self.lib.crt_convert(
            _ptr(x_hat),
            _ptr(self._m),
            _ptr(self._msh),
            _ptr(v_row),
            _ptr(self._corr),
            _ptr(self._corrsh),
            _ptr(self._p),
            _ptr(self._mu),
            ctypes.c_int64(len(conv.src)),
            ctypes.c_int64(len(conv.dst)),
            ctypes.c_int64(conv.n),
            _ptr(out),
        )
        return out


def make_compiled_ntt(engine):
    lib = get_lib()
    return None if lib is None else CompiledNtt(engine, lib)


def make_compiled_convert(converter):
    lib = get_lib()
    return None if lib is None else CompiledConvert(converter, lib)
