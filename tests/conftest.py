"""Shared fixtures: prime pools are session-scoped (prime search is the
slow part of the suite) and every random stream is seeded for bit-exact
reproducibility — the suite guards bit-faithful range claims, so flaky
inputs would defeat its purpose."""

import numpy as np
import pytest

from repro.rns.primes import PrimePool


@pytest.fixture(scope="session")
def pool64() -> PrimePool:
    """A small 25-30 construction over N=64 shared by most tests."""
    return PrimePool.generate(64, num_main=4, num_terminal=2, num_aux=1)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0x5EED)


def negacyclic_schoolbook(a, b, q: int) -> np.ndarray:
    """Reference ``a * b mod (x^N + 1, q)`` via ``numpy.polymul``.

    Exact: coefficients are lifted to Python ints (object dtype) so the
    quadratic-size intermediate products never wrap.
    """
    n = len(a)
    # numpy.polymul wants highest-degree-first coefficients.
    full = np.polymul(
        np.asarray(a, dtype=object)[::-1], np.asarray(b, dtype=object)[::-1]
    )[::-1]
    out = np.zeros(n, dtype=object)
    for i, c in enumerate(full):
        if i < n:
            out[i] += c
        else:
            out[i % n] -= c  # x^N = -1: degree >= N wraps negated
    return np.array([int(x) % q for x in out], dtype=np.uint64)


def crt_reference(primes, limbs, *, centered: bool = True) -> list[int]:
    """Plain big-int CRT of a ``(L, N)`` residue matrix, column by column.

    Recomputes every lift with ``pow`` and reduces with Python ints: the
    slow, obviously-correct formula the vectorized decode is checked
    against.  ``centered`` maps into ``(-Q/2, Q/2]``, else ``[0, Q)``.
    """
    big_q = 1
    for q in primes:
        big_q *= q
    out = []
    for col in np.asarray(limbs).T:
        x = 0
        for r, q in zip(col, primes):
            m = big_q // q
            x += int(r) * m * pow(m, -1, q)
        x %= big_q
        if centered and x > big_q // 2:
            x -= big_q
        out.append(x)
    return out
