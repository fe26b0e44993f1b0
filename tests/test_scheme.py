"""End-to-end scheme-layer tests: keygen -> encrypt -> evaluate -> decrypt.

The acceptance chain — encrypt, HMult + relinearize, rotate, rescale,
decrypt — is cross-checked against the exact big-int/CRT
:class:`ReferenceEvaluator` (itself anchored against an O(N^2)
schoolbook big-int multiply at small N) for N in {1024, 4096} and all
four reducer backends.  Hoisted rotation is asserted *bit-identical* to
independent rotations, and the whole pipeline is asserted reproducible
bit-for-bit from a single seed.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import crt_reference
from repro.errors import (
    KeyError_,
    LayoutError,
    LevelError,
    ParameterError,
    ScaleMismatchError,
)
from repro.poly.rns_poly import PolyContext, RnsPolynomial
from repro.rns.primes import PrimePool
from repro.scheme import (
    CanonicalEncoder,
    Ciphertext,
    Evaluator,
    KeyGenerator,
    Plaintext,
    ReferenceEvaluator,
    conjugation_element,
    galois_element,
    lift_signed,
)

METHODS = ("barrett", "montgomery", "shoup", "smr")
SCALE = 2.0**30
DNUM = 2

#: |decoded - reference| ceiling for the noisy pipeline: the estimated
#: noise after the acceptance chain sits near 2^-17 of the final scale,
#: so 1e-3 leaves two decimal orders of safety margin.
E2E_TOL = 1e-3


@lru_cache(maxsize=None)
def _pool(n: int) -> PrimePool:
    return PrimePool.generate(n, num_main=3, num_terminal=1, num_aux=4)


@lru_cache(maxsize=None)
def _setup(n: int, method: str):
    """(ctx, keygen) per configuration, built once per session."""
    pool = _pool(n)
    ctx = PolyContext.from_pool(pool, num_terminal=1, num_main=3, method=method)
    aux = [p.value for p in pool.extension_basis(1, 3, dnum=DNUM)]
    keygen = KeyGenerator(ctx, aux, DNUM, np.random.default_rng(0xCAFE + n))
    return ctx, keygen


@lru_cache(maxsize=None)
def _reference(n: int) -> ReferenceEvaluator:
    # Products of two scale-2^30 encodings wrap-add at most N terms:
    # |coeff| < N * 2^60 <= 2^72; pad to 76 bits.
    return ReferenceEvaluator(n, coeff_bound_bits=76)


def _messages(n: int) -> tuple[np.ndarray, np.ndarray]:
    r = np.random.default_rng(0x5EED + n)
    return r.uniform(-1, 1, n), r.uniform(-1, 1, n)


def _encrypt_two(ctx, keygen, seed=0xE7C):
    v1, v2 = _messages(ctx.ring_degree)
    ev = Evaluator.from_keygen(keygen, rotations=[3])
    rng = np.random.default_rng(seed)
    ct1 = ev.encrypt(Plaintext.encode(ctx, v1, SCALE), keygen.public, rng)
    ct2 = ev.encrypt(Plaintext.encode(ctx, v2, SCALE), keygen.public, rng)
    return ev, ct1, ct2, v1, v2


# -- the reference evaluator is itself anchored at small N ------------------
def test_reference_evaluator_matches_schoolbook():
    n = 64
    r = np.random.default_rng(3)
    a = [int(x) for x in r.integers(-(2**30), 2**30, n)]
    b = [int(x) for x in r.integers(-(2**30), 2**30, n)]
    ref = ReferenceEvaluator(n, coeff_bound_bits=76)
    # O(N^2) schoolbook in exact Python ints.
    expect = [0] * n
    for i in range(n):
        for j in range(n):
            if i + j < n:
                expect[(i + j) % n] += a[i] * b[j]
            else:
                expect[(i + j) % n] -= a[i] * b[j]
    assert ref.multiply(a, b) == expect
    # rescale: round-to-nearest division, exactly.
    q = 12289
    got = ref.rescale(expect, q)
    for x, y in zip(expect, got):
        assert 2 * abs(y * q - x) <= q
    with pytest.raises(ParameterError):
        ref.multiply([2**75] + [0] * (n - 1), [2**10] + [0] * (n - 1))


def test_reference_automorphism_is_signed_permutation():
    n = 64
    ref = ReferenceEvaluator(n, coeff_bound_bits=40)
    a = list(range(1, n + 1))
    k = 5
    got = ref.automorphism(a, k)
    for i in range(n):
        e = (i * k) % (2 * n)
        if e >= n:
            assert got[e - n] == -a[i]
        else:
            assert got[e] == a[i]


# -- fresh encryption ------------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
def test_encrypt_decrypt_roundtrip(method):
    n = 256
    ctx, keygen = _setup(n, method)
    ev, ct1, _, v1, _ = _encrypt_two(ctx, keygen)
    decoded = ev.decrypt(ct1, keygen.secret).decode()
    # Encoding quantizes to 1/SCALE; noise adds ~2^-20 on top.
    assert np.abs(decoded - v1).max() < 1e-6
    assert ct1.level == ctx.num_limbs
    assert ct1.scale == SCALE
    assert ct1.noise_budget_bits > 80


# -- the acceptance chain --------------------------------------------------
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n", (1024, 4096))
def test_end_to_end_multiply_rotate_rescale_decrypt(n, method):
    """encrypt -> HMult+relin -> rotate -> rescale -> decrypt recovers the
    plaintext product, vs the exact big-int/CRT reference evaluator."""
    ctx, keygen = _setup(n, method)
    ev, ct1, ct2, v1, v2 = _encrypt_two(ctx, keygen)

    prod = ev.multiply(ct1, ct2)
    assert prod.scale == SCALE * SCALE
    rot = ev.rotate(prod, 3)
    res = ev.rescale(rot)
    assert res.level == ctx.num_limbs - 1
    q_last = ctx.primes[-1]
    assert res.scale == pytest.approx(SCALE * SCALE / q_last)
    decoded = ev.decrypt(res, keygen.secret).decode()

    ref = _reference(n)
    m1 = [round(v * SCALE) for v in v1]
    m2 = [round(v * SCALE) for v in v2]
    expect = ref.automorphism(ref.multiply(m1, m2), galois_element(3, n))
    expect = np.array(expect, dtype=np.float64) / (SCALE * SCALE)
    assert np.abs(decoded - expect).max() < E2E_TOL


def test_noise_budget_decreases_along_the_chain():
    n = 256
    ctx, keygen = _setup(n, "smr")
    ev, ct1, ct2, _, _ = _encrypt_two(ctx, keygen)
    prod = ev.multiply(ct1, ct2)
    rot = ev.rotate(prod, 3)
    assert prod.noise_budget_bits < ct1.noise_budget_bits
    assert rot.noise_budget_bits <= prod.noise_budget_bits
    assert rot.noise_budget_bits > 0  # still decryptable, with room


# -- hoisted rotations -----------------------------------------------------
@pytest.mark.parametrize("method", ("barrett", "smr"))
def test_hoisted_rotation_bit_identical_to_independent(method):
    n = 1024
    rotations = [1, 2, 3, 5, 7]
    ctx, keygen = _setup(n, method)
    ev = Evaluator.from_keygen(keygen, rotations=rotations)
    rng = np.random.default_rng(11)
    v1, _ = _messages(n)
    ct = ev.encrypt(Plaintext.encode(ctx, v1, SCALE), keygen.public, rng)
    hoisted = ev.rotate_hoisted(ct, rotations)
    assert set(hoisted) == set(rotations)
    for r in rotations:
        independent = ev.rotate(ct, r)
        assert np.array_equal(hoisted[r].c0.limbs, independent.c0.limbs), r
        assert np.array_equal(hoisted[r].c1.limbs, independent.c1.limbs), r
        assert hoisted[r].scale == independent.scale


def test_rotation_matches_reference_permutation():
    n = 256
    ctx, keygen = _setup(n, "shoup")
    ev, ct1, _, v1, _ = _encrypt_two(ctx, keygen)
    rot = ev.rotate(ct1, 3)
    decoded = ev.decrypt(rot, keygen.secret).decode()
    ref = _reference(n)
    m1 = [round(v * SCALE) for v in v1]
    expect = np.array(
        ref.automorphism(m1, galois_element(3, n)), dtype=np.float64
    ) / SCALE
    assert np.abs(decoded - expect).max() < E2E_TOL


def test_conjugate_matches_reference():
    n = 256
    ctx, keygen = _setup(n, "smr")
    ev = Evaluator.from_keygen(keygen, conjugate=True)
    rng = np.random.default_rng(13)
    v1, _ = _messages(n)
    ct = ev.encrypt(Plaintext.encode(ctx, v1, SCALE), keygen.public, rng)
    conj = ev.conjugate(ct)
    decoded = ev.decrypt(conj, keygen.secret).decode()
    ref = _reference(n)
    m1 = [round(v * SCALE) for v in v1]
    expect = np.array(
        ref.automorphism(m1, conjugation_element(n)), dtype=np.float64
    ) / SCALE
    assert np.abs(decoded - expect).max() < E2E_TOL


# -- linear / plaintext ops ------------------------------------------------
def test_add_sub_plain_ops_match_reference():
    n = 256
    ctx, keygen = _setup(n, "montgomery")
    ev, ct1, ct2, v1, v2 = _encrypt_two(ctx, keygen)
    sk = keygen.secret
    got = ev.decrypt(ev.add(ct1, ct2), sk).decode()
    assert np.abs(got - (v1 + v2)).max() < 1e-5
    got = ev.decrypt(ev.sub(ct1, ct2), sk).decode()
    assert np.abs(got - (v1 - v2)).max() < 1e-5
    got = ev.decrypt(ev.negate(ct1), sk).decode()
    assert np.abs(got + v1).max() < 1e-5
    pt = Plaintext.encode(ctx, v2, SCALE)
    got = ev.decrypt(ev.add_plain(ct1, pt), sk).decode()
    assert np.abs(got - (v1 + v2)).max() < 1e-5
    prod = ev.multiply_plain(ct1, pt)
    assert prod.scale == SCALE * SCALE
    got = ev.decrypt(prod, sk).decode()
    ref = _reference(n)
    m1 = [round(v * SCALE) for v in v1]
    m2 = [round(v * SCALE) for v in v2]
    expect = np.array(ref.multiply(m1, m2), np.float64) / (SCALE * SCALE)
    assert np.abs(got - expect).max() < E2E_TOL


# -- determinism (seeded rng plumbing) -------------------------------------
def test_pipeline_is_bit_reproducible_from_one_seed():
    """Same seeds => bit-identical keys, ciphertexts, and results."""
    n = 256
    pool = _pool(n)
    aux = [p.value for p in pool.extension_basis(1, 3, dnum=DNUM)]

    def run():
        ctx = PolyContext.from_pool(
            pool, num_terminal=1, num_main=3, method="smr"
        )
        keygen = KeyGenerator(ctx, aux, DNUM, np.random.default_rng(99))
        ev = Evaluator.from_keygen(keygen, rotations=[2])
        rng = np.random.default_rng(100)
        v1, v2 = _messages(n)
        ct1 = ev.encrypt(Plaintext.encode(ctx, v1, SCALE), keygen.public, rng)
        ct2 = ev.encrypt(Plaintext.encode(ctx, v2, SCALE), keygen.public, rng)
        out = ev.rescale(ev.rotate(ev.multiply(ct1, ct2), 2))
        return keygen, ct1, out

    kg_a, ct_a, out_a = run()
    kg_b, ct_b, out_b = run()
    assert np.array_equal(kg_a.secret.coeffs, kg_b.secret.coeffs)
    assert np.array_equal(kg_a.public.b.limbs, kg_b.public.b.limbs)
    for pa, pb in zip(
        kg_a.relinearization_key().pairs, kg_b.relinearization_key().pairs
    ):
        assert np.array_equal(pa[0].limbs, pb[0].limbs)
        assert np.array_equal(pa[1].limbs, pb[1].limbs)
    assert np.array_equal(ct_a.c0.limbs, ct_b.c0.limbs)
    assert np.array_equal(out_a.c0.limbs, out_b.c0.limbs)
    assert np.array_equal(out_a.c1.limbs, out_b.c1.limbs)


def _negacyclic_square(s: np.ndarray) -> np.ndarray:
    """Schoolbook ``s * s mod (X^N + 1)`` over the integers."""
    n = len(s)
    full = np.convolve(s, s)
    s2 = full[:n].copy()
    s2[: n - 1] -= full[n:]  # X^N = -1 wrap
    return s2


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("hamming_weight", [None, 12])
def test_relinearization_key_matches_schoolbook_square(method, hamming_weight):
    """The ring-product ``s^2`` builds the same key, bit for bit, as the
    integer convolution, at the keygen level and a rescaled prefix."""
    n = 64
    pool = _pool(n)
    ctx = PolyContext.from_pool(pool, num_terminal=1, num_main=3, method=method)
    aux = [p.value for p in pool.extension_basis(1, 3, dnum=DNUM)]

    def keygen():
        return KeyGenerator(
            ctx, aux, DNUM, np.random.default_rng(0x5EC),
            hamming_weight=hamming_weight,
        )

    for level in (ctx, ctx.drop_last()):
        fast, slow = keygen(), keygen()
        want = slow.switching_key(
            _negacyclic_square(slow.secret.coeffs), ctx=level
        )
        got = fast.relinearization_key(level)
        assert len(got.pairs) == len(want.pairs) == DNUM
        for (gb, ga), (wb, wa) in zip(got.pairs, want.pairs):
            assert np.array_equal(gb.limbs, wb.limbs)
            assert np.array_equal(ga.limbs, wa.limbs)


# -- state tracking and error surfaces -------------------------------------
def test_level_and_scale_errors_name_the_problem():
    n = 256
    ctx, keygen = _setup(n, "smr")
    ev, ct1, ct2, _, _ = _encrypt_two(ctx, keygen)
    prod = ev.multiply(ct1, ct2)
    low = ev.rescale(prod)
    with pytest.raises(LevelError, match="level mismatch"):
        ev.add(low, ct1)
    with pytest.raises(ScaleMismatchError, match="scale mismatch"):
        ev.add(prod, ct1)
    # Below the keygen level the evaluator derives keys from its key
    # source; an evaluator holding only top-level keys still fails with
    # an error naming the level gap.
    assert ev.rotate(low, 3).level == low.level
    keyless = Evaluator(
        ctx, relin_key=ev.relin_key, galois_keys=ev.galois_keys
    )
    with pytest.raises(KeyError_, match="below the keygen level"):
        keyless.rotate(low, 3)
    with pytest.raises(KeyError_, match="below the keygen level"):
        keyless.multiply(low, low)
    bare = Evaluator(ctx)
    with pytest.raises(KeyError_, match="relinearization"):
        bare.multiply(ct1, ct2)
    with pytest.raises(KeyError_, match="no Galois key"):
        bare.rotate(ct1, 1)
    with pytest.raises(LevelError):
        single = ev.rescale(ev.rescale(ev.rescale(ct1)))
        ev.rescale(single)


def test_context_mismatch_errors_name_the_field(rng):
    n = 256
    ctx, _ = _setup(n, "smr")
    other_method = PolyContext(ctx.ring_degree, ctx.primes, "shoup")
    with pytest.raises(ParameterError, match="reduction method mismatch"):
        ctx.random(rng).add(other_method.random(rng))
    dropped = ctx.drop_last()
    with pytest.raises(ParameterError, match="level mismatch"):
        ctx.random(rng).add(dropped.random(rng))
    small_pool = _pool(64)
    small = PolyContext.from_pool(
        small_pool, num_terminal=1, num_main=2, method="smr"
    )
    with pytest.raises(ParameterError, match="ring degree mismatch"):
        ctx.random(rng).add(small.random(rng))
    scrambled = PolyContext(
        ctx.ring_degree, list(reversed(ctx.primes)), "smr"
    )
    with pytest.raises(ParameterError, match="limb basis mismatch"):
        ctx.random(rng).add(scrambled.random(rng))


def test_ciphertext_state_is_authoritative():
    n = 256
    ctx, keygen = _setup(n, "smr")
    ev, ct1, _, _, _ = _encrypt_two(ctx, keygen)
    assert ct1.state.domain == ct1.c0.domain
    assert ct1.state.level == ctx.num_limbs
    # The ciphertext state is authoritative and borrowed components are
    # never mutated: rewrapping at a different scale must not disturb
    # the original ciphertext's (or the components') metadata.
    before = (ct1.c0.scale, ct1.c1.scale)
    rewrapped = Ciphertext(ct1.c0, ct1.c1, scale=ct1.scale * 7.0)
    assert rewrapped.scale == ct1.scale * 7.0
    assert (ct1.c0.scale, ct1.c1.scale) == before
    assert ct1.scale == SCALE
    with pytest.raises(LayoutError, match="domains differ"):
        Ciphertext(ct1.c0, ct1.c1.to_ntt(), scale=SCALE)
    with pytest.raises(ParameterError):
        Ciphertext(ct1.c0, ct1.c1, scale=-1.0)


def test_encode_rejects_oversized_values():
    n = 256
    ctx, _ = _setup(n, "smr")
    with pytest.raises(LayoutError):
        Plaintext.encode(ctx, np.ones(n + 1), SCALE)
    with pytest.raises(ParameterError, match="exceeds Q/2"):
        Plaintext.encode(ctx, [2.0**90], SCALE)
    with pytest.raises(ParameterError):
        Plaintext.encode(ctx, [1.0], -2.0)


def test_encode_decode_roundtrip_quantizes_at_scale():
    n = 256
    ctx, _ = _setup(n, "smr")
    v = np.random.default_rng(5).uniform(-3, 3, n)
    pt = Plaintext.encode(ctx, v, SCALE)
    assert pt.scale == SCALE
    back = pt.decode()
    assert np.abs(back - v).max() <= 0.5 / SCALE + 1e-12


def test_galois_element_group_facts():
    n = 256
    assert galois_element(0, n) == 1
    k1 = galois_element(1, n)
    assert galois_element(2, n) == (k1 * k1) % (2 * n)
    # rotation by r then by -r is the identity element
    assert (galois_element(1, n) * galois_element(-1, n)) % (2 * n) == 1
    assert conjugation_element(n) == 2 * n - 1
    assert math.gcd(k1, 2 * n) == 1


# -- exact vectorized decode ------------------------------------------------
def _bigint_decode(encoder, pt, num_slots):
    """Decode through the exact Python ints: ``float()`` of each one."""
    ints = crt_reference(pt.ctx.primes, pt.poly.to_coeff().limbs)
    coeffs = np.array([float(c) for c in ints], dtype=np.float64)
    return encoder.project(coeffs / pt.scale, num_slots)


def test_decode_is_bit_identical_to_the_bigint_formula():
    """Fresh, post-HMult and garbage (every coefficient on the fallback)
    plaintexts decode to the same float64 bits as ``float(int)`` of the
    exact CRT, at full and sparse slot counts, through both decoders."""
    n = 1024
    ctx, keygen = _setup(n, "smr")
    ev, ct1, ct2, _, _ = _encrypt_two(ctx, keygen)
    sk = keygen.secret
    garbage = ctx.random(np.random.default_rng(0xBAD))
    garbage.state.scale = SCALE
    encoder = CanonicalEncoder(ctx)
    for pt in (
        ev.decrypt(ct1, sk),
        ev.decrypt(ev.rescale(ev.multiply(ct1, ct2)), sk),
        Plaintext(garbage),
    ):
        for num_slots in (4, n // 8, n // 2):
            got = encoder.decode(pt, num_slots=num_slots)
            assert got.tobytes() == _bigint_decode(encoder, pt, num_slots).tobytes()
        ints = crt_reference(pt.ctx.primes, pt.poly.limbs)
        want = np.array(ints, dtype=np.float64) / pt.scale
        assert pt.decode().tobytes() == want.tobytes()


def test_fresh_decrypt_needs_no_crt_fallback(monkeypatch):
    """At N=4096, L=12 the two-limb fast path certifies every coefficient
    of a fresh decrypt: the big-int fallback is never given a column."""
    n = 4096
    pool = PrimePool.generate(n, num_main=11, num_terminal=1, num_aux=5)
    ctx = PolyContext.from_pool(pool, num_terminal=1, num_main=11)
    aux = [p.value for p in pool.extension_basis(1, 11, dnum=3)]
    rng = np.random.default_rng(0xFA57)
    keygen = KeyGenerator(ctx, aux, 3, rng)
    exact = RnsPolynomial._crt_exact

    def no_fallback(poly, idx):
        assert idx.size == 0, f"{idx.size} coefficients took the fallback"
        return exact(poly, idx)

    monkeypatch.setattr(RnsPolynomial, "_crt_exact", no_fallback)
    encoder = CanonicalEncoder(ctx)
    values = rng.uniform(-1, 1, n // 2)
    ev = Evaluator(ctx)
    ct = ev.encrypt(encoder.encode(values, SCALE), keygen.public, rng)
    got = encoder.decode(ev.decrypt(ct, keygen.secret))
    assert np.abs(got - values).max() < E2E_TOL


def test_lift_signed_matches_floor_mod_on_both_paths():
    """Coefficients below min q take the broadcast lift, larger ones the
    per-limb floor-mod; both equal ``c mod q_i``."""
    ctx, _ = _setup(256, "smr")
    q_min = min(ctx.primes)
    small = [0, 1, -1, q_min - 1, -(q_min - 1)]
    for coeffs in (small, small + [q_min], small + [-q_min], small + [-(2**40)]):
        c = np.resize(np.array(coeffs, dtype=np.int64), ctx.ring_degree)
        want = np.stack([np.mod(c, q) for q in ctx.primes]).astype(np.uint64)
        assert np.array_equal(lift_signed(ctx, c).limbs, want)
