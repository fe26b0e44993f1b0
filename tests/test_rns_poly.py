"""RnsPolynomial validation against exact CRT big-integer references.

Every limb-wise operation is cross-checked by reconstructing operands and
results to Python integers mod Q = prod q_i — slow but exact, which is the
point: the (num_limbs, N) limb layout must be *algebraically invisible*.
"""

import gc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import crt_reference, negacyclic_schoolbook
from repro.errors import LayoutError, LevelError, ParameterError
from repro.poly.rns_poly import COEFF, NTT, PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool, ntt_friendly_primes

N = 16  # tiny ring keeps the exact big-int references fast


@pytest.fixture(scope="module")
def ctx():
    small = PrimePool.generate(N, num_main=2, num_terminal=1, num_aux=0)
    return PolyContext.from_pool(small, num_terminal=1, num_main=2)


def test_context_properties(ctx):
    assert ctx.num_limbs == 3
    assert ctx.modulus == ctx.primes[0] * ctx.primes[1] * ctx.primes[2]
    assert ctx.moduli.shape == (3, 1)


def test_int_coeffs_round_trip(ctx):
    coeffs = list(range(-N // 2, N // 2))
    poly = ctx.from_int_coeffs(coeffs)
    assert poly.to_int_coeffs(centered=True) == coeffs
    uncentered = poly.to_int_coeffs(centered=False)
    assert uncentered == [c % ctx.modulus for c in coeffs]


def test_add_sub_negate_match_crt(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    ai = a.to_int_coeffs(centered=False)
    bi = b.to_int_coeffs(centered=False)
    big_q = ctx.modulus
    assert (a + b).to_int_coeffs(centered=False) == [
        (x + y) % big_q for x, y in zip(ai, bi)
    ]
    assert (a - b).to_int_coeffs(centered=False) == [
        (x - y) % big_q for x, y in zip(ai, bi)
    ]
    assert (-a).to_int_coeffs(centered=False) == [(-x) % big_q for x in ai]
    assert (a - a).to_int_coeffs(centered=False) == [0] * N


def test_linear_ops_fold_edge_residues(ctx):
    """Every pair of residues from {0, 1, q-1, q-2}: the branch-free folds
    of add / sub / negate (and their in-place forms) equal ``% q``."""
    q = ctx.moduli
    edges = np.hstack([q * 0, q * 0 + 1, q - 1, q - 2])
    a = RnsPolynomial(ctx, np.repeat(edges, 4, axis=1))
    b = RnsPolynomial(ctx, np.tile(edges, 4))
    cases = (
        (a.add(b), (a.limbs + b.limbs) % q),
        (a.sub(b), (a.limbs + q - b.limbs) % q),
        (a.negate(), (q - a.limbs) % q),
    )
    for got, want in cases:
        assert np.array_equal(got.limbs, want)
    c = RnsPolynomial(ctx, a.limbs.copy())
    assert np.array_equal(c.add_(b).sub_(b).negate_().limbs, (q - a.limbs) % q)


def test_multiply_matches_schoolbook_per_limb(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    prod = a * b
    assert prod.domain == COEFF
    for i, q in enumerate(ctx.primes):
        expect = negacyclic_schoolbook(a.limbs[i], b.limbs[i], q)
        assert np.array_equal(prod.limbs[i], expect)


def test_multiply_matches_crt_reference(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    ai = a.to_int_coeffs(centered=False)
    bi = b.to_int_coeffs(centered=False)
    big_q = ctx.modulus
    ref = [0] * N
    for i in range(N):
        for j in range(N):
            sign = 1 if i + j < N else -1
            ref[(i + j) % N] = (ref[(i + j) % N] + sign * ai[i] * bi[j]) % big_q
    assert (a * b).to_int_coeffs(centered=False) == ref


def test_ntt_domain_round_trip_and_pointwise(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    a_hat = a.to_ntt()
    assert a_hat.domain == NTT
    assert np.array_equal(a_hat.to_coeff().limbs, a.limbs)
    # NTT-domain multiply stays in NTT; equals coeff-domain multiply.
    prod_hat = a_hat.multiply(b.to_ntt())
    assert prod_hat.domain == NTT
    assert np.array_equal(prod_hat.to_coeff().limbs, (a * b).limbs)


def test_exact_rescale_is_rounded_division(ctx, rng):
    a = ctx.random(rng)
    q_last = ctx.primes[-1]
    rescaled = a.exact_rescale()
    assert rescaled.num_limbs == ctx.num_limbs - 1
    assert rescaled.ctx is ctx.drop_last()
    got = rescaled.to_int_coeffs(centered=True)
    for x, y in zip(a.to_int_coeffs(centered=True), got):
        r = x % q_last
        if r > q_last // 2:
            r -= q_last  # centered remainder, (-q_L/2, q_L/2]
        assert (x - r) // q_last == y


def test_rescale_error_is_at_most_half(ctx, rng):
    """|rescaled - x / q_L| <= 1/2: the 'exact' in exact rescaling."""
    a = ctx.random(rng)
    q_last = ctx.primes[-1]
    got = a.exact_rescale().to_int_coeffs(centered=True)
    for x, y in zip(a.to_int_coeffs(centered=True), got):
        # |y - x/q_L| <= 1/2, checked in exact integer arithmetic.
        assert 2 * abs(y * q_last - x) <= q_last


def test_domain_and_context_errors(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    with pytest.raises(LayoutError):
        a.pointwise_multiply(b)  # coeff-domain operands
    with pytest.raises(LayoutError):
        a.to_ntt().exact_rescale()
    with pytest.raises(LayoutError):
        a.to_ntt().to_int_coeffs()
    with pytest.raises(LayoutError):
        a.to_ntt().add(b)  # mixed domains
    other = PolyContext(ctx.ring_degree, ctx.primes, "shoup")
    with pytest.raises(ParameterError):
        a.add(other.random(rng))  # same primes, different method
    single = PolyContext(ctx.ring_degree, ctx.primes[:1])
    with pytest.raises(LevelError):
        single.random(rng).exact_rescale()
    with pytest.raises(LevelError):
        single.drop_last()


def test_context_validation():
    with pytest.raises(ParameterError):
        PolyContext(N, [])
    with pytest.raises(ParameterError):
        PolyContext(N, [97, 97])
    ctx2 = PolyContext(N, [ntt_friendly_primes(30, 1, N)[0]])
    with pytest.raises(LayoutError):
        ctx2.from_int_coeffs([1, 2, 3])  # wrong length


def test_shoup_backend_context_multiplies(ctx, rng):
    """The acceptance bar calls out SMR and Shoup: rerun multiply on Shoup."""
    shoup_ctx = PolyContext(ctx.ring_degree, ctx.primes, "shoup")
    a, b = shoup_ctx.random(rng), shoup_ctx.random(rng)
    prod = a * b
    for i, q in enumerate(shoup_ctx.primes):
        expect = negacyclic_schoolbook(a.limbs[i], b.limbs[i], q)
        assert np.array_equal(prod.limbs[i], expect)


def test_drop_last_is_cached(ctx):
    assert ctx.drop_last() is ctx.drop_last()
    assert ctx.drop_last().primes == ctx.primes[:-1]
    # Twiddle tables are immutable: the child reuses the parent's engines
    # instead of rebuilding them (rescale chains would be O(L^2) otherwise).
    for child_ntt, parent_ntt in zip(ctx.drop_last().ntts, ctx.ntts):
        assert child_ntt is parent_ntt
    # The batched engine is shared the same way (sliced, same roots).
    assert ctx.drop_last().batch_ntt.psis == ctx.batch_ntt.psis[:-1]


# -- batched pipeline vs per-prime reference engines -----------------------


@pytest.mark.parametrize("method", ("barrett", "montgomery", "shoup", "smr"))
def test_transforms_bit_match_reference_engines(ctx, method, rng):
    """to_ntt / to_coeff / pointwise_multiply run batched but must equal a
    Python loop over the per-prime reference engines, bit for bit."""
    mctx = PolyContext(ctx.ring_degree, ctx.primes, method)
    a, b = mctx.random(rng), mctx.random(rng)
    ref_fwd = np.stack([ntt.forward(a.limbs[i]) for i, ntt in enumerate(mctx.ntts)])
    a_hat = a.to_ntt()
    assert np.array_equal(a_hat.limbs, ref_fwd)
    assert np.array_equal(a_hat.to_coeff().limbs, a.limbs)
    b_hat = b.to_ntt()
    ref_pw = np.stack(
        [
            ntt.pointwise(a_hat.limbs[i], b_hat.limbs[i])
            for i, ntt in enumerate(mctx.ntts)
        ]
    )
    assert np.array_equal(a_hat.pointwise_multiply(b_hat).limbs, ref_pw)


def test_rescale_unchanged_after_caching(ctx, rng):
    """The cached-constant, division-free rescale must reproduce the
    original per-limb pow()-per-call loop exactly."""
    for _ in range(10):
        a = ctx.random(rng)
        q_last = ctx.primes[-1]
        last = a.limbs[-1].astype(np.int64)
        centered = np.where(last > q_last // 2, last - q_last, last)
        ref = np.empty((ctx.num_limbs - 1, ctx.ring_degree), np.uint64)
        for i, q in enumerate(ctx.primes[:-1]):
            r = centered % q
            diff = a.limbs[i] + np.uint64(q) - r.astype(np.uint64)
            diff = np.where(diff >= q, diff - np.uint64(q), diff)
            inv = pow(q_last, -1, q)
            ref[i] = diff * np.uint64(inv) % np.uint64(q)
        assert np.array_equal(a.exact_rescale().limbs, ref)


def test_rescale_consts_cached_on_context(ctx):
    consts = ctx.rescale_consts
    assert consts is ctx.rescale_consts  # cached_property
    inv, inv_shoup, mu32, corr = consts
    q_last = ctx.primes[-1]
    for i, q in enumerate(ctx.primes[:-1]):
        assert int(inv[i, 0]) == pow(q_last, -1, q)
        assert int(inv_shoup[i, 0]) == (pow(q_last, -1, q) << 32) // q
        assert int(mu32[i, 0]) == (1 << 32) // q
        assert int(corr[i, 0]) == (-q_last) % q


def test_prepared_operand_is_cached_and_requires_ntt(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    with pytest.raises(LayoutError):
        b.prepared_operand()  # coefficient domain
    b_hat = b.to_ntt()
    handle = b_hat.prepared_operand()
    assert b_hat.prepared_operand() is handle  # paid once, reused
    # pointwise_multiply goes through the same cached handle.
    a_hat = a.to_ntt()
    first = a_hat.pointwise_multiply(b_hat)
    assert b_hat.prepared_operand() is handle
    assert np.array_equal(a_hat.pointwise_multiply(b_hat).limbs, first.limbs)


# -- multiply_accumulate (§4.2 key-switching shape) ------------------------


@pytest.mark.parametrize("method", ("barrett", "montgomery", "shoup", "smr"))
def test_multiply_accumulate_matches_naive_chain(ctx, method, rng):
    from repro.poly.rns_poly import RnsPolynomial

    mctx = PolyContext(ctx.ring_degree, ctx.primes, method)
    k = 6
    a = [mctx.random(rng).to_ntt() for _ in range(k)]
    b = [mctx.random(rng).to_ntt() for _ in range(k)]
    ref = a[0].pointwise_multiply(b[0])
    for i in range(1, k):
        ref = ref + a[i].pointwise_multiply(b[i])
    got = RnsPolynomial.multiply_accumulate(a, b)
    assert got.domain == NTT
    assert np.array_equal(got.limbs, ref.limbs)


def test_multiply_accumulate_raw_strategy(rng):
    """SMR's deferred-reduction strategy on terminal-sized limbs."""
    from repro.poly.rns_poly import RnsPolynomial
    from repro.rns.primes import ntt_friendly_primes as gen

    primes = [p.value for p in gen(25, 3, N)]
    sctx = PolyContext(N, primes, "smr")
    k = 8
    a = [sctx.random(rng).to_ntt() for _ in range(k)]
    b = [sctx.random(rng).to_ntt() for _ in range(k)]
    ref = a[0].pointwise_multiply(b[0])
    for i in range(1, k):
        ref = ref + a[i].pointwise_multiply(b[i])
    got = RnsPolynomial.multiply_accumulate(a, b, strategy="raw")
    assert np.array_equal(got.limbs, ref.limbs)


def test_multiply_accumulate_validation(ctx, rng):
    from repro.poly.rns_poly import RnsPolynomial

    a, b = ctx.random(rng).to_ntt(), ctx.random(rng).to_ntt()
    with pytest.raises(ParameterError):
        RnsPolynomial.multiply_accumulate([], [])
    with pytest.raises(ParameterError):
        RnsPolynomial.multiply_accumulate([a], [b, b])
    with pytest.raises(LayoutError):
        RnsPolynomial.multiply_accumulate([a], [ctx.random(rng)])  # coeff
    other = PolyContext(ctx.ring_degree, ctx.primes, "shoup")
    with pytest.raises(ParameterError):
        RnsPolynomial.multiply_accumulate([a], [other.random(rng).to_ntt()])


# -- transform twin caching (PR 3 satellite) --------------------------------
def test_to_ntt_caches_twin(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    assert a.to_ntt() is a_hat  # second transform is the cached twin
    assert a_hat.to_coeff() is a  # and the link is bidirectional
    assert np.array_equal(a_hat.limbs, ctx.batch_ntt.forward(a.limbs))


def test_to_coeff_caches_twin(ctx, rng):
    from repro.poly.rns_poly import RnsPolynomial

    a_hat = RnsPolynomial(ctx, ctx.batch_ntt.forward(ctx.random(rng).limbs),
                          NTT)
    a = a_hat.to_coeff()
    assert a_hat.to_coeff() is a
    assert a.to_ntt() is a_hat


def test_hmult_hrot_round_leaves_no_polynomial_garbage():
    """A twin links back to its source weakly, so a polynomial and its
    transform twin never form a reference cycle: a whole HMult + HRot
    round is freed by reference counting, with nothing left for the
    cyclic collector (which rarely runs under a large-array workload)."""
    from repro import CkksContext
    from repro.poly.rns_poly import LimbState, RnsPolynomial

    cc = CkksContext(
        ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=5, rotations=(1,)
    )
    z = np.arange(8) / 8
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ct = cc.encrypt(z, num_slots=8)
        out = cc.evaluator.rotate(cc.evaluator.multiply(ct, ct), 1)
        del ct, out
        gc.collect()
        leaked = [
            type(o).__name__
            for o in gc.garbage
            if isinstance(o, (RnsPolynomial, LimbState))
        ]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert leaked == []


def test_same_domain_transform_is_identity(ctx, rng):
    a = ctx.random(rng)
    assert a.to_coeff() is a
    a_hat = a.to_ntt()
    assert a_hat.to_ntt() is a_hat


# -- in-place mutation must invalidate caches (PR 3 satellite) --------------
def test_inplace_ops_match_functional(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    expect_add = a.add(b)
    mut = ctx.zeros().add_(a).add_(b)
    assert np.array_equal(mut.limbs, expect_add.limbs)
    expect_sub = a.sub(b)
    mut = ctx.zeros().add_(a).sub_(b)
    assert np.array_equal(mut.limbs, expect_sub.limbs)
    expect_neg = a.negate()
    mut = ctx.zeros().add_(a).negate_()
    assert np.array_equal(mut.limbs, expect_neg.limbs)


def test_inplace_mutation_drops_prepared_handle(ctx, rng):
    """Regression: a stale prepared operand must not survive mutation.

    Before the fix, mutating the limb matrix in place left the cached
    backend-prepared handle serving the *old* values to every subsequent
    pointwise product.
    """
    a_hat = ctx.random(rng).to_ntt()
    b_hat = ctx.random(rng).to_ntt()
    _ = a_hat.pointwise_multiply(b_hat)  # fills b_hat._prepared
    assert b_hat._prepared is not None
    b_hat.negate_()
    assert b_hat._prepared is None
    got = a_hat.pointwise_multiply(b_hat)
    from repro.poly.rns_poly import RnsPolynomial

    fresh = RnsPolynomial(ctx, b_hat.limbs.copy(), NTT)
    assert np.array_equal(got.limbs, a_hat.pointwise_multiply(fresh).limbs)


def test_inplace_mutation_severs_twin_link(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    a.add_(ctx.random(rng))
    # Neither side may keep serving the stale transform.
    assert a._twin is None and a_hat._twin is None
    new_hat = a.to_ntt()
    assert new_hat is not a_hat
    assert np.array_equal(new_hat.limbs, ctx.batch_ntt.forward(a.limbs))


def test_inplace_on_twin_invalidates_both_sides(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    a_hat.negate_()  # mutate the cached twin, not the original
    assert a._twin is None
    assert np.array_equal(a.to_ntt().limbs, ctx.batch_ntt.forward(a.limbs))


def test_multiply_result_carries_no_twin(ctx, rng):
    """Regression: a product chain must not pin an NTT-domain copy of
    every intermediate through the twin link (memory, ref cycles)."""
    a, b = ctx.random(rng), ctx.random(rng)
    prod = a * b
    assert prod._twin is None
    # The operands keep their twins — repeat products stay cheap.
    assert a._twin is not None and b._twin is not None
    assert np.array_equal(
        prod.limbs,
        ctx.batch_ntt.inverse(a.to_ntt().pointwise_multiply(b.to_ntt()).limbs),
    )


# -- explicit LimbState (PR 4 tentpole) -------------------------------------
def test_limbstate_carries_domain_level_scale(ctx, rng):
    from repro.poly.rns_poly import LimbState

    a = ctx.random(rng)
    assert a.state.domain == COEFF and a.domain == COEFF
    assert a.state.level == ctx.num_limbs and a.level == ctx.num_limbs
    assert a.state.scale == 1.0 and a.scale == 1.0
    with pytest.raises(LayoutError):
        LimbState("frequency", 3)
    with pytest.raises(LevelError):
        LimbState(COEFF, 0)


def test_scale_propagates_through_ops(ctx, rng):
    a, b = ctx.random(rng), ctx.random(rng)
    a.state.scale = 2.0**20
    b.state.scale = 2.0**21
    assert (a + b).scale == a.scale  # linear ops keep the left scale
    assert (a - b).scale == a.scale
    assert (-a).scale == a.scale
    assert a.to_ntt().scale == a.scale  # transforms preserve it
    assert (a * b).scale == 2.0**41  # products multiply it
    from repro.poly.rns_poly import RnsPolynomial

    mac = RnsPolynomial.multiply_accumulate(
        [a.to_ntt(), a.to_ntt()], [b.to_ntt(), b.to_ntt()]
    )
    assert mac.scale == 2.0**41  # fused inner products too
    q_last = ctx.primes[-1]
    res = a.exact_rescale()
    assert res.scale == a.scale / q_last  # rescale divides by q_last
    assert res.level == a.level - 1


def test_invalidate_is_the_single_cache_drop_path(ctx, rng):
    a = ctx.random(rng)
    a_hat = a.to_ntt()
    handle = a_hat.prepared_operand()
    assert a_hat.state.prepared is handle
    assert a.state.twin is a_hat and a_hat.state.twin is a
    a_hat.state.invalidate()
    assert a_hat.state.prepared is None
    assert a_hat.state.twin is None and a.state.twin is None


def test_mismatch_reason_is_none_for_compatible(ctx):
    assert ctx.mismatch_reason(ctx) is None
    clone = PolyContext(ctx.ring_degree, ctx.primes, ctx.method)
    assert ctx.mismatch_reason(clone) is None
    assert ctx.compatible(clone)


def test_check_error_names_the_field(ctx, rng):
    a = ctx.random(rng)
    lower = ctx.drop_last().random(rng)
    with pytest.raises(ParameterError, match="level mismatch"):
        a.add(lower)
    other = PolyContext(ctx.ring_degree, ctx.primes, "barrett")
    with pytest.raises(ParameterError, match="reduction method mismatch"):
        a.add(other.random(rng))


def test_automorphism_round_trips_through_crt(ctx, rng):
    """sigma_k on the limb matrix equals sigma_k on the big integers."""
    a = ctx.random(rng)
    k = 5
    got = a.automorphism(k).to_int_coeffs(centered=True)
    src = a.to_int_coeffs(centered=True)
    n = ctx.ring_degree
    big_q = ctx.modulus
    expect = [0] * n
    for i in range(n):
        e = (i * k) % (2 * n)
        v = src[i]
        if e >= n:
            expect[e - n] = -v
        else:
            expect[e] = v
    half = big_q // 2
    expect = [((c + half) % big_q) - half for c in expect]
    assert got == expect


# -- exact vectorized CRT reconstruction ----------------------------------
#: derandomized with a fixed example budget: the same inputs every run
CRT_FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)
CRT_LIMBS = (1, 2, 3, 12, 24)


@lru_cache(maxsize=None)
def _crt_ctx(limbs: int) -> PolyContext:
    """The paper's limb layout at N=16: one 25-bit terminal, then mains."""
    pool = PrimePool.generate(N, num_main=23, num_terminal=1, num_aux=0)
    return PolyContext.from_pool(pool, num_terminal=1, num_main=limbs - 1)


def _fast_bound(ctx: PolyContext) -> int:
    """Largest |x| the two-limb fast path resolves: (q0*q1 - 1) / 2."""
    return (ctx.primes[0] * (ctx.primes[1] if ctx.num_limbs > 1 else 1)) // 2


@st.composite
def _crt_column(draw, ctx: PolyContext) -> list[int]:
    """One coefficient's residues: from an integer (certificate and Q/2
    edges, inside or anywhere beyond the fast range) or drawn directly
    (each residue 0, 1, q-1 or arbitrary)."""
    half_p, half_q = _fast_bound(ctx), ctx.modulus // 2
    kind = draw(st.sampled_from(("edge", "fast", "any", "residues")))
    if kind == "residues":
        return [
            draw(st.sampled_from((0, 1, q - 1)) | st.integers(0, q - 1))
            for q in ctx.primes
        ]
    if kind == "edge":
        mag = draw(st.sampled_from((0, 1, half_p, half_p + 1, half_q)))
        x = draw(st.sampled_from((mag, -mag)))
    else:
        bound = half_p if kind == "fast" else half_q
        x = draw(st.integers(-bound, bound))
    return [x % q for q in ctx.primes]


@CRT_FUZZ
@given(limbs=st.sampled_from(CRT_LIMBS), centered=st.booleans(), data=st.data())
def test_crt_matches_bigint_reference(limbs, centered, data):
    ctx = _crt_ctx(limbs)
    cols = data.draw(st.lists(_crt_column(ctx), min_size=N, max_size=N))
    poly = RnsPolynomial(ctx, np.array(cols, dtype=np.uint64).T.copy())
    want = crt_reference(ctx.primes, poly.limbs)
    assert poly.to_int_coeffs(centered=centered) == crt_reference(
        ctx.primes, poly.limbs, centered=centered
    )
    floats = np.array([float(c) for c in want], dtype=np.float64)
    assert poly.to_float_coeffs().tobytes() == floats.tobytes()
    # the certificate resolves exactly the coefficients with |x| < q0*q1/2
    _, idx, _ = poly.crt_centered()
    beyond = [j for j, c in enumerate(want) if abs(c) > _fast_bound(ctx)]
    assert idx.tolist() == beyond


@pytest.mark.parametrize("limbs", CRT_LIMBS)
def test_crt_certificate_boundary(limbs):
    """+-(q0q1-1)/2 stay on the fast path; +-(q0q1+1)/2 and +-(Q-1)/2 fall
    back (when L >= 3), and all of them reconstruct exactly."""
    ctx = _crt_ctx(limbs)
    half_p, half_q = _fast_bound(ctx), ctx.modulus // 2
    xs = [half_p, -half_p, half_p + 1, -(half_p + 1), half_q, -half_q, 0, 1]
    xs += [-1] * (N - len(xs))
    poly = ctx.from_int_coeffs(xs)
    assert poly.to_int_coeffs() == [(x + half_q) % ctx.modulus - half_q for x in xs]
    _, idx, _ = poly.crt_centered()
    assert idx.tolist() == ([2, 3, 4, 5] if limbs >= 3 else [])


@pytest.mark.parametrize("limbs", (3, 12, 24))
def test_crt_uniform_rows_take_the_exact_fallback(limbs, rng):
    """A uniformly random element (a garbage decrypt) fails the certificate
    in every column and still reconstructs exactly, in both conventions."""
    ctx = _crt_ctx(limbs)
    poly = ctx.random(rng)
    _, idx, _ = poly.crt_centered()
    assert idx.size == N
    for centered in (True, False):
        assert poly.to_int_coeffs(centered=centered) == crt_reference(
            ctx.primes, poly.limbs, centered=centered
        )


def test_crt_lifts_cached_on_context(ctx):
    lifts = ctx.crt_lifts
    assert ctx.crt_lifts is lifts
    for lift, q in zip(lifts, ctx.primes):
        assert lift % q == 1
        assert lift % (ctx.modulus // q) == 0
