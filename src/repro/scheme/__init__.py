"""Scheme layer: RLWE ciphertexts, SIMD encoding, and the evaluator.

Built on :mod:`repro.poly`: keys ride the hybrid key-switching pipeline,
rotations ride the Galois index-permutation kernels and the hoisted
(shared-ModUp) schedule, rescaling rides ``exact_rescale`` — and
:class:`SchemeCostModel` prices each composite op as a sum of the
already-priced Table-3 kernels.  :class:`CanonicalEncoder` packs complex
slot vectors through the canonical embedding (rotations become cyclic
slot shifts), the internal ``_linalg`` / ``_circuit`` modules run the
slot-wise workloads (BSGS matvec and polynomial evaluation) and compile
circuits on top (reached through :class:`repro.CkksContext`), and
:class:`ReferenceEvaluator` is the exact big-int/CRT plaintext-side
oracle — now with direct slot semantics — the end-to-end tests compare
against.
"""

from repro.scheme._circuit import CircuitPlan, TracedCiphertext
from repro.scheme._linalg import bsgs_split
from repro.scheme.ciphertext import Ciphertext, Plaintext
from repro.scheme.cost import SchemeCostModel
from repro.scheme.encoder import CanonicalEncoder, special_fft, special_ifft
from repro.scheme.evaluator import Evaluator
from repro.scheme.keys import (
    DEFAULT_SIGMA,
    KeyGenerator,
    PublicKey,
    SecretKey,
    conjugation_element,
    galois_element,
    lift_signed,
    sample_error,
    sample_ternary,
)
from repro.scheme.reference import ReferenceEvaluator

__all__ = [
    "DEFAULT_SIGMA",
    "CanonicalEncoder",
    "Ciphertext",
    "CircuitPlan",
    "Evaluator",
    "KeyGenerator",
    "Plaintext",
    "PublicKey",
    "ReferenceEvaluator",
    "SchemeCostModel",
    "SecretKey",
    "TracedCiphertext",
    "bsgs_split",
    "conjugation_element",
    "galois_element",
    "lift_signed",
    "sample_error",
    "sample_ternary",
    "special_fft",
    "special_ifft",
]
