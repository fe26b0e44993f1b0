"""Backend dispatch: precedence, cross-tier bit-identity, degradation.

The backend contract has five load-bearing claims, each tested here:

* the tiers are exactly numpy and compiled; selection follows
  constructor arg > ``REPRO_BACKEND`` > numpy, children inherit their
  parent's tier, and unknown names fail loudly;
* the compiled tier, when available, is bit-identical to the numpy
  reference on the full parity grid (four reducers x N in
  {1024, 4096} x L in {4, 12}:
  NTT round-trip, multiply, ModUp, ModDown, hybrid key switch), and on
  the key switch's internals: pointwise products, multiply_accumulate,
  the lazy accumulator's pre-fold contents and hoisted rotations; and
  the compiled transform's every stride specialization (n from 2 to 64
  and 2^16, edge residues, in place), checked-mode trips included;
* the compiled MAC keeps the numpy guards: the bound charge precedes
  every C call, checked mode stays on numpy, and out-of-range input
  raises the numpy tier's error;
* the kernel library is cached under a key covering source, compiler,
  flags and host CPU, and a compiler rejecting ``-march=native`` still
  builds (portable flags);
* degradation is graceful and loud exactly once — a missing toolchain
  warns a single :class:`BackendFallbackWarning` (not per call) and
  runs on numpy.
"""

import os
import warnings

import numpy as np
import pytest

from repro.errors import (
    AccumulatorOverflowError,
    ParameterError,
    SanitizerError,
)
from repro.poly.backends import (
    BACKEND_TIERS,
    BackendFallbackWarning,
    compiled,
    resolve_backend,
)
from repro.poly.basis_conv import HoistedGaloisPlan, KeySwitchKey
from repro.poly.batch_ntt import BatchNTT
from repro.poly.lazy import LazyAccumulator
from repro.poly.ntt import automorphism_tables
from repro.poly.rns_poly import PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool, ntt_friendly_primes

def _available_tiers() -> list[str]:
    tiers = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BackendFallbackWarning)
        if compiled.get_lib() is not None:
            tiers.append("compiled")
    return tiers


TIERS = _available_tiers()


# -- precedence and plumbing ----------------------------------------------
class TestResolution:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "numpy"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert resolve_backend(None) == "compiled"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert resolve_backend("numpy") == "numpy"

    @pytest.mark.parametrize("bad", ["cuda", "looped", ""])
    def test_unknown_tier_rejected(self, bad):
        with pytest.raises(ParameterError, match="backend"):
            resolve_backend(bad)

    def test_tier_names_normalize(self):
        assert resolve_backend(" COMPILED ") == "compiled"

    def test_env_unknown_tier_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ParameterError, match="backend"):
            resolve_backend(None)

    def test_tier_names_are_closed(self):
        assert set(BACKEND_TIERS) == {"numpy", "compiled"}

    @pytest.mark.parametrize("via", ["override", "env"])
    def test_removed_tier_name_rejected(self, via, monkeypatch):
        # the process-pool tier was deleted; its name is now unknown
        monkeypatch.setenv("REPRO_BACKEND", "sharded")
        with pytest.raises(ParameterError, match="numpy, compiled"):
            resolve_backend("sharded" if via == "override" else None)

    def test_context_override_beats_env(self, pool64, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        ctx = PolyContext.from_pool(
            pool64, num_terminal=1, num_main=2, backend="numpy"
        )
        assert ctx.backend == "numpy"
        assert ctx.batch_ntt.backend_tier == "numpy"

    def test_children_inherit_tier(self, pool64, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        ctx = PolyContext.from_pool(
            pool64, num_terminal=1, num_main=3, backend="compiled"
        )
        assert ctx.drop_last().backend == "compiled"
        aux = [p.value for p in pool64.aux]
        assert ctx.extend(aux).backend == "compiled"

    def test_serving_config_validates_tier(self):
        from repro.serving.scheduler import ServingConfig

        with pytest.raises(ParameterError, match="backend"):
            ServingConfig(backend="bogus")

    def test_serving_config_mismatch_rejected(self):
        from repro.context import CkksContext
        from repro.serving.scheduler import CkksServer, ServingConfig

        cc = CkksContext(
            ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=0,
            backend="numpy",
        )
        with pytest.raises(ValueError, match="backend"):
            CkksServer(cc, config=ServingConfig(backend="compiled"))


# -- cross-tier parity grid -----------------------------------------------
_GRID = [(1024, 4), (1024, 12), (4096, 4), (4096, 12)]
_METHODS = ("barrett", "montgomery", "shoup", "smr")


@pytest.fixture(scope="module")
def parity_pools():
    cache = {}

    def get(n, num_limbs):
        if (n, num_limbs) not in cache:
            cache[(n, num_limbs)] = PrimePool.generate(
                n,
                main_bits=30,
                terminal_bits=25,
                num_main=num_limbs - 1,
                num_terminal=1,
                num_aux=4,
            )
        return cache[(n, num_limbs)]

    return get


@pytest.mark.skipif(not TIERS, reason="no non-numpy tier available")
@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("n,num_limbs", _GRID)
def test_tier_parity(parity_pools, method, n, num_limbs):
    """Every available tier bit-matches numpy on every kernel family."""
    pool = parity_pools(n, num_limbs)
    dnum = 2 if num_limbs <= 6 else 3
    aux = [int(p) for p in pool.extension_basis(1, num_limbs - 1, dnum=dnum)]

    def build(tier):
        rng = np.random.default_rng(0xBACE)
        ctx = PolyContext.from_pool(
            pool,
            num_terminal=1,
            num_main=num_limbs - 1,
            method=method,
            backend=tier,
        )
        a = ctx.random(rng)
        b = ctx.random(rng)
        ksk = KeySwitchKey.random(ctx, aux, dnum, rng)
        return ctx, a, b, ksk

    ctx_n, a_n, b_n, ksk_n = build("numpy")
    hat_n = ctx_n.batch_ntt.forward(a_n.limbs)
    round_n = ctx_n.batch_ntt.inverse(hat_n)
    mul_n = RnsPolynomial(ctx_n, a_n.limbs).multiply(
        RnsPolynomial(ctx_n, b_n.limbs)
    )
    up_n = a_n.mod_up(aux)
    down_n = up_n.mod_down(len(aux))
    ks_n = a_n.key_switch(ksk_n)

    for tier in TIERS:
        ctx_t, a_t, b_t, ksk_t = build(tier)
        assert np.array_equal(a_n.limbs, a_t.limbs)
        hat_t = ctx_t.batch_ntt.forward(a_t.limbs)
        assert np.array_equal(hat_n, hat_t), f"{tier} forward diverges"
        assert np.array_equal(round_n, ctx_t.batch_ntt.inverse(hat_t)), (
            f"{tier} inverse diverges"
        )
        mul_t = RnsPolynomial(ctx_t, a_t.limbs).multiply(
            RnsPolynomial(ctx_t, b_t.limbs)
        )
        assert np.array_equal(mul_n.limbs, mul_t.limbs), (
            f"{tier} multiply diverges"
        )
        up_t = a_t.mod_up(aux)
        assert np.array_equal(up_n.limbs, up_t.limbs), (
            f"{tier} mod_up diverges"
        )
        assert np.array_equal(
            down_n.limbs, up_t.mod_down(len(aux)).limbs
        ), f"{tier} mod_down diverges"
        ks_t = a_t.key_switch(ksk_t)
        for half_n, half_t in zip(ks_n, ks_t):
            assert np.array_equal(half_n.limbs, half_t.limbs), (
                f"{tier} key_switch diverges"
            )


@pytest.mark.skipif(not TIERS, reason="no non-numpy tier available")
@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("n,num_limbs", [(1024, 4), (4096, 12)])
def test_tier_parity_key_switch_internals(parity_pools, method, n, num_limbs):
    """The compiled MAC, fold and pointwise kernels bit-match numpy:
    pointwise products, multiply_accumulate at 1-3 terms (and SMR
    ``raw``), the raw accumulator contents before the fold, and hoisted
    rotations through ``HoistedGaloisPlan`` and ``run_hoisted``."""
    pool = parity_pools(n, num_limbs)
    dnum = 2 if num_limbs <= 6 else 3
    aux = [int(p) for p in pool.extension_basis(1, num_limbs - 1, dnum=dnum)]
    elements = (5, 25, 2 * n - 1)
    strategies = ("reduced", "raw") if method == "smr" else ("reduced",)

    def run(tier):
        rng = np.random.default_rng(0xFACE)
        ctx = PolyContext.from_pool(
            pool,
            num_terminal=1,
            num_main=num_limbs - 1,
            method=method,
            backend=tier,
        )
        xs = [ctx.random(rng).to_ntt() for _ in range(3)]
        ys = [ctx.random(rng).to_ntt() for _ in range(3)]
        keys = [KeySwitchKey.random(ctx, aux, dnum, rng) for _ in elements]
        got = {"pointwise": xs[0].pointwise_multiply(ys[0]).limbs}
        for strategy in strategies:
            for terms in (1, 2, 3):
                acc = LazyAccumulator(
                    ctx.batch_ntt.backend.red,
                    (num_limbs, n),
                    strategy=strategy,
                )
                try:
                    out = RnsPolynomial.multiply_accumulate(
                        xs[:terms], ys[:terms], strategy=strategy, acc=acc
                    ).limbs
                except AccumulatorOverflowError:
                    out = "overflow"
                got[strategy, terms] = (out, acc.acc.copy(), acc.bound)
        sw = ctx.key_switcher(aux, dnum)
        plan = HoistedGaloisPlan(sw, elements, keys)
        got["hoisted"] = [h.limbs for pair in plan.run(xs[1]) for h in pair]
        got["accs"] = [acc.acc.copy() for acc in sw._accs]
        perm = automorphism_tables(n, elements[0])[2]
        pair = sw.run_hoisted(sw.hoist(xs[2]), keys[0], perm=perm)
        got["run_hoisted"] = [h.limbs for h in pair]
        return got

    def same(x, y):
        if isinstance(x, (list, tuple)):
            return len(x) == len(y) and all(map(same, x, y))
        if isinstance(x, np.ndarray):
            return isinstance(y, np.ndarray) and np.array_equal(x, y)
        return x == y

    ref = run("numpy")
    if method == "smr":
        # 30-bit main primes leave Alg. 2 headroom for two raw products
        assert ref["raw", 3][0] == "overflow"
    for tier in TIERS:
        got = run(tier)
        assert got.keys() == ref.keys()
        for key in ref:
            assert same(ref[key], got[key]), f"{tier} {key} diverges"


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
def test_compiled_checked_mode_trips_like_numpy(pool64):
    """The C kernels assert the same live certified bound column the
    numpy kernels do — tightening it below honest butterfly output must
    trip a SanitizerError from inside the compiled transform."""
    ctx = PolyContext.from_pool(
        pool64, num_terminal=1, num_main=2, method="shoup", checked=True,
        backend="compiled",
    )
    kernel = ctx.batch_ntt._kernel
    kernel._bound_col = np.full_like(kernel._bound_col, 2)
    rng = np.random.default_rng(3)
    a = np.stack(
        [rng.integers(0, q, 64, dtype=np.uint64) for q in ctx.primes]
    )
    with pytest.raises(SanitizerError, match="forward stage"):
        ctx.batch_ntt.forward(a)


# -- compiled NTT stride specializations ----------------------------------
#: every fixed-stride tail stage (t = 1, 2, 4, 8) and the generic loop;
#: n = 2 is the lone t = 1 stage
_STRIDE_N = (2, 4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def stride_primes():
    """``count`` 30-bit limbs NTT-friendly for exactly ``n``: at small n
    some q - 1 has few trailing zero bits (q = 5 mod 8 at n = 2), the
    hardest case for the kernel's Newton-derived q^-1 mod 2^32."""
    cache = {}

    def get(n, count=4):
        if (n, count) not in cache:
            cache[n, count] = [int(q) for q in ntt_friendly_primes(30, count, n)]
        return cache[n, count]

    return get


def _engines(primes, n, method, *, checked=False):
    engines = {}
    for tier in ("numpy", "compiled"):
        engine = BatchNTT(primes, n, method, backend=tier)
        engine.set_checked(checked)
        engines[tier] = engine
    assert isinstance(engines["compiled"]._tier_impl(), compiled.CompiledNtt)
    return engines


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("method", _METHODS)
@pytest.mark.parametrize("n", [*_STRIDE_N, 1 << 16])
def test_compiled_ntt_stride_parity(stride_primes, method, n):
    """Each stride specialization of the compiled transform bit-matches
    numpy — forward, inverse and in place (``out=a``) — on rows of the
    edge residues 0, 1 and q-1 and on a random row with them planted."""
    primes = stride_primes(n) if n < 1 << 16 else stride_primes(n, 1)
    rng = np.random.default_rng(n)
    a = np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in primes])
    a[:, : min(n, 3)] = 0
    a[:, -min(n, 3) :] = np.array(primes, dtype=np.uint64).reshape(-1, 1) - 1
    if len(primes) > 1:
        a[1:] = np.array([[0], [1], [primes[3] - 1]], dtype=np.uint64)
    got = {}
    for tier, engine in _engines(primes, n, method).items():
        fwd, inv = engine.forward(a), engine.inverse(a)
        fwd_in, inv_in = a.copy(), a.copy()
        assert engine.forward(fwd_in, out=fwd_in) is fwd_in
        assert engine.inverse(inv_in, out=inv_in) is inv_in
        assert np.array_equal(engine.inverse(fwd), a)
        got[tier] = (fwd, inv, fwd_in, inv_in)
    for ref, out in zip(got["numpy"], got["compiled"]):
        assert np.array_equal(ref, out)


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
@pytest.mark.parametrize("n", _STRIDE_N)
@pytest.mark.parametrize(
    "method,where",
    [(m, w) for m in _METHODS for w in ("forward t=1", "inverse t=1")]
    + [(m, "n^-1 scale") for m in ("montgomery", "shoup", "smr")],
)
def test_compiled_checked_trip_matches_numpy(stride_primes, method, where, n):
    """A bound tightened on one limb trips inside the t = 1 stage (the
    forward's last, the inverse's first) or the inverse's n^-1 scale on
    both tiers, with numpy's exact SanitizerError text.

    Forward: a row e_1 stays in {0, 1} until the t = 1 stage writes the
    twiddles themselves.  Inverse: a row of q-1 doubles per stage into
    q - 2^s (canonical) or 2q - 2^s (Barrett's lazy state), and the scale
    returns it to q-1."""
    primes = stride_primes(n)
    limb = 2
    q = primes[limb]
    a = np.zeros((len(primes), n), dtype=np.uint64)
    msgs = {}
    for tier, engine in _engines(primes, n, method, checked=True).items():
        kernel = engine._kernel
        if where == "forward t=1":
            a[limb, 1] = 1
            bound, call = 1, engine.forward
            stage = f"forward stage m={n // 2}"
        else:
            a[limb] = q - 1
            bound = kernel.lazy_factor * q - (3 if where == "inverse t=1" else 2)
            call = engine.inverse
            stage = f"inverse stage m={n}" if where == "inverse t=1" else where
        kernel._bound_col[limb] = bound
        with pytest.raises(SanitizerError) as e:
            call(a)
        msgs[tier] = str(e.value)
        assert f"NTT {stage} produced" in msgs[tier]
        assert f"at row {limb}, coefficient index 0" in msgs[tier]
    assert msgs["compiled"] == msgs["numpy"]


@pytest.mark.skipif("compiled" not in TIERS, reason="no C toolchain")
class TestCompiledMacSafety:
    """The C MAC sits behind the same guards as the numpy one: the bound
    charge comes first, checked mode declines to numpy, and the staged
    NTT keeps the numpy tier's range-check error."""

    @staticmethod
    def _setup(pool, method, *, checked=False, strategy="reduced"):
        ctx = PolyContext.from_pool(
            pool, num_terminal=1, num_main=2, method=method,
            backend="compiled", checked=checked,
        )
        rng = np.random.default_rng(17)
        x, y = ctx.random(rng).to_ntt(), ctx.random(rng).to_ntt()
        acc = LazyAccumulator(
            ctx.batch_ntt.backend.red,
            (ctx.num_limbs, ctx.ring_degree),
            strategy=strategy,
            checked=checked,
        )
        parts = y.prepared_operand()
        kw = {"b_shoup": parts[1]} if method == "shoup" else {}
        return ctx, acc, x.limbs, parts[0], kw

    @pytest.mark.parametrize(
        "method,strategy",
        [(m, "reduced") for m in _METHODS] + [("smr", "raw")],
    )
    def test_overflow_leaves_accumulator_untouched(
        self, pool64, method, strategy
    ):
        ctx, acc, a, b, kw = self._setup(pool64, method, strategy=strategy)
        impl = acc._tier_impl()
        assert isinstance(impl, compiled.CompiledNtt)
        assert impl.mac(acc, a, b, kw.get("b_shoup")) is not None
        acc.accumulate_product(a, b, **kw)  # one real term, in C
        acc.bound = acc.limit - acc._per_term + 1
        before = (acc.acc.copy(), acc.bound, acc.terms)
        with pytest.raises(AccumulatorOverflowError, match="fold first"):
            acc.accumulate_product(a, b, **kw)
        assert np.array_equal(acc.acc, before[0])
        assert (acc.bound, acc.terms) == before[1:]

    @pytest.mark.parametrize(
        "method,strategy",
        [(m, "reduced") for m in _METHODS] + [("smr", "raw")],
    )
    def test_fold_edge_residues_match_numpy(self, pool64, method, strategy):
        """Whole multiples of q and the carrier's extremes are where a
        quotient-estimate fold needs its correction step; the C fold must
        agree with numpy's ``%`` there too (outputs and leftover state)."""
        folded = {}
        for tier in ("numpy", "compiled"):
            ctx = PolyContext.from_pool(
                pool64, num_terminal=1, num_main=2, method=method,
                backend=tier,
            )
            # the contents bypass the bound tracker on purpose, so the
            # fold-soundness check of checked mode stays off
            acc = LazyAccumulator(
                ctx.batch_ntt.backend.red,
                (ctx.num_limbs, ctx.ring_degree),
                strategy=strategy,
                checked=False,
            )
            info = np.iinfo(acc.acc.dtype)
            rng = np.random.default_rng(23)
            for row, q in zip(acc.acc, ctx.primes):
                k = rng.integers(0, info.max // q, row.size, dtype=np.int64)
                row[:] = k.astype(row.dtype) * row.dtype.type(q)
                row[:4] = [info.max, info.min, 0, q - 1]
                if acc.signed:
                    row[8:] = -row[8:]
            fresh = acc.fold()
            out = np.empty_like(fresh)
            acc.fold_into(out)
            folded[tier] = (fresh, out, acc.acc.copy())
        for ref, got in zip(folded["numpy"], folded["compiled"]):
            assert np.array_equal(ref, got)

    @pytest.mark.parametrize("method", _METHODS)
    def test_checked_mode_declines_and_trips_fold_sound(self, pool64, method):
        ctx, acc, a, b, kw = self._setup(pool64, method, checked=True)
        assert ctx.batch_ntt._tier_impl() is not None
        assert acc._tier_impl() is None, "checked mode must stay on numpy"
        acc.accumulate_product(a, b, **kw)
        acc.acc[0, 0] = 2**62  # corrupt behind the tracker
        with pytest.raises(SanitizerError, match="static bound tracking"):
            acc.fold()
        out = np.empty(acc.acc.shape, np.uint64)
        with pytest.raises(SanitizerError, match="static bound tracking"):
            acc.fold_into(out)

    @pytest.mark.parametrize("method", _METHODS)
    @pytest.mark.parametrize("limb,col,value", [(1, 7, "q"), (2, 3, 2**63)])
    def test_staged_ntt_range_error_matches_numpy(
        self, pool64, method, limb, col, value
    ):
        msgs = {}
        for tier in ("numpy", "compiled"):
            ctx = PolyContext.from_pool(
                pool64, num_terminal=1, num_main=2, method=method,
                backend=tier,
            )
            bad = ctx.random(np.random.default_rng(4)).limbs.copy()
            # q itself is the first invalid residue of its row
            bad[limb, col] = ctx.primes[limb] if value == "q" else value
            for name, call in (
                ("forward", ctx.batch_ntt.forward),
                ("inverse", ctx.batch_ntt.inverse),
                ("in place", lambda x, c=ctx: c.batch_ntt.forward(x, out=x)),
                ("pointwise", lambda x, c=ctx: c.batch_ntt.pointwise(x, x % 5)),
            ):
                with pytest.raises(ParameterError) as e:
                    call(bad.copy())
                msgs[tier, name] = str(e.value)
        for (tier, name), msg in msgs.items():
            assert msg == msgs["numpy", name]
            assert f"({limb}, {col})" in msg


# -- graceful degradation -------------------------------------------------
class TestCompiledDegradation:
    def test_no_toolchain_warns_once_and_runs_numpy(
        self, pool64, rng, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        compiled._reset()
        try:
            ref_ctx = PolyContext.from_pool(
                pool64, num_terminal=1, num_main=2, backend="numpy"
            )
            ctx = PolyContext.from_pool(
                pool64, num_terminal=1, num_main=2, backend="compiled"
            )
            a = ctx.random(rng)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = ctx.batch_ntt.forward(a.limbs)
                ctx.batch_ntt.forward(a.limbs)
                ctx.batch_ntt.inverse(got)
            fallbacks = [
                w for w in caught
                if issubclass(w.category, BackendFallbackWarning)
            ]
            assert len(fallbacks) == 1, (
                "degradation must warn exactly once, "
                f"got {len(fallbacks)}"
            )
            assert "compiled backend unavailable" in str(
                fallbacks[0].message
            )
            assert np.array_equal(
                got, ref_ctx.batch_ntt.forward(a.limbs)
            ), "fallback path must still be the numpy reference"
        finally:
            compiled._reset()


class TestKernelBuild:
    """The cached library is named by everything that shapes the binary,
    and a compiler without the host-ISA flag still builds."""

    def test_build_key_covers_compiler_flags_and_host(self, monkeypatch):
        cc = compiled._compiler() or "cc"
        base = compiled._build_key(cc)
        assert compiled._build_key(cc) == base
        assert compiled._build_key("/nonexistent-compiler") != base
        monkeypatch.setattr(compiled, "_host_isa", lambda: "other-cpu:sse2")
        assert compiled._build_key(cc) != base
        monkeypatch.undo()
        monkeypatch.setattr(compiled, "CFLAGS", compiled._PORTABLE)
        assert compiled._build_key(cc) != base

    @pytest.mark.skipif(os.name != "posix", reason="needs /bin/sh")
    def test_compiler_rejecting_host_isa_builds_portable(
        self, monkeypatch, tmp_path
    ):
        log = tmp_path / "calls"
        fake = tmp_path / "fakecc"
        fake.write_text(
            "#!/bin/sh\n"
            f'echo "$*" >> "{log}"\n'
            'case " $* " in *" -march=native "*) exit 1;; esac\n'
            'while [ "$1" != "-o" ]; do shift; done\n'
            ': > "$2"\n'
        )
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        so = compiled._build_lib()
        assert so.is_file()
        calls = log.read_text().splitlines()
        assert len(calls) == 2
        assert "-march=native" in calls[0].split()
        assert calls[1].split()[: len(compiled._PORTABLE)] == list(
            compiled._PORTABLE
        )
        assert compiled._build_lib() == so  # cached: no third compile
        assert len(log.read_text().splitlines()) == 2
