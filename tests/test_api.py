"""The PR 10 public-API contract: one entry point, canonical kwargs.

Pins the redesign's three promises:

* :class:`repro.CkksContext` is the single public entry point — the
  curated ``repro.__all__`` resolves, and ``cc.matvec`` /
  ``cc.poly_eval`` / ``cc.compile`` / ``cc.model`` reproduce what the
  internals produce;
* construction kwargs are spelled one way everywhere (``scale_bits``,
  ``backend``, ``seed``, ``checked``) with the old spellings accepted
  behind a deprecation warning;
* every pre-redesign import path (``repro.scheme.SlotLinalg``,
  ``repro.scheme.circuit.CircuitTracer``, ``repro.poly.KeySwitcher``,
  ``cc.tracer()``, ``cc.linalg``) still works and warns **exactly
  once** per process, naming its replacement.
"""

import warnings

import numpy as np
import pytest

import repro
from repro import CkksContext
from repro._compat import _warned
from repro.errors import ParameterError
from repro.poly.backends import resolve_backend

CTX_KW = dict(ring_degree=64, num_main=3, num_aux=3, dnum=2, seed=5)


@pytest.fixture(scope="module")
def cc() -> CkksContext:
    return CkksContext(rotations=(1, 2), **CTX_KW)


@pytest.fixture()
def fresh_warnings():
    """Reset the process-global warn-once registry around a test."""
    saved = set(_warned)
    _warned.clear()
    try:
        yield
    finally:
        _warned.clear()
        _warned.update(saved)


def _collect(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return [w for w in caught if issubclass(w.category, DeprecationWarning)]


# -- curated surface ---------------------------------------------------------

def test_repro_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_context_stores_canonical_attributes(cc):
    assert cc.scale_bits == 30
    assert cc.scale == 2.0**30
    assert cc.main_bits == 30 and cc.terminal_bits == 25
    # the tier the environment selects (numpy unless REPRO_BACKEND is set)
    assert cc.backend == resolve_backend(None)
    assert cc.checked in (True, False)


def test_encrypt_defaults_to_context_scale(cc):
    ct = cc.encrypt([0.5, -0.25], num_slots=2)
    assert ct.scale == cc.scale
    vals = cc.decrypt(ct, num_slots=2)
    assert np.allclose(vals.real, [0.5, -0.25], atol=1e-6)


# -- cc.compile parity -------------------------------------------------------

def test_compile_matches_eager_workloads(cc):
    rng = np.random.default_rng(9)
    matrix = rng.standard_normal((4, 4))
    coeffs = [0.25, -0.5, 0.125]

    def build(p, x):
        return p.rescale(p.poly_eval(p.rescale(p.matvec(x, matrix)), coeffs))

    # N=64 has a short chain: a smaller working scale keeps the degree-2
    # scale stack inside the budget on both paths
    scale = 2.0**20
    plan = cc.compile(build, scale=scale)
    v = rng.standard_normal(4)
    got = cc.decrypt(
        plan.run(cc.encrypt(v, scale=scale, num_slots=4)), num_slots=4
    )

    ct = cc.encrypt(v, scale=scale, num_slots=4)
    ev = cc.evaluator
    eager = ev.rescale(
        cc.poly_eval(ev.rescale(cc.matvec(ct, matrix)), coeffs)
    )
    want = cc.decrypt(eager, num_slots=4)
    # the two runs encrypt independently, so they agree only up to the
    # (scale-relative) noise floor — ~2^-8 after rescaling down to 2^10
    assert np.allclose(got, want, atol=2e-2)
    slots = matrix @ v
    expect = 0.25 - 0.5 * slots + 0.125 * slots**2
    assert np.allclose(got.real, expect, atol=2e-2)


def test_compile_program_delegates_evaluator_ops(cc):
    plan = cc.compile(lambda p, x: p.rescale(p.multiply(x, x)))
    out = cc.decrypt(plan.run(cc.encrypt([0.5], num_slots=1)), num_slots=1)
    assert np.allclose(out.real, [0.25], atol=1e-6)


def test_model_factory_rejects_unknown_kind(cc):
    with pytest.raises(ParameterError, match="unknown model kind"):
        cc.model("svm", np.zeros((4, 2)), np.zeros(4))


# -- canonical kwargs --------------------------------------------------------

def test_delta_alias_maps_to_scale_bits(fresh_warnings):
    caught = _collect(lambda: None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cc = CkksContext(delta=2.0**25, **CTX_KW)
    assert cc.scale_bits == 25
    msgs = [str(w.message) for w in caught]
    assert any("delta" in m and "scale_bits" in m for m in msgs)


def test_conflicting_scale_spellings_rejected(fresh_warnings):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParameterError, match="deprecated alias"):
            CkksContext(scale_bits=30, delta=2.0**25, **CTX_KW)


def test_unknown_kwarg_still_a_typeerror():
    with pytest.raises(TypeError, match="unexpected keyword"):
        CkksContext(frobnicate=1, **CTX_KW)


def test_register_tenant_scale_alias(cc, fresh_warnings):
    from repro import CkksServer
    from repro.errors import AdmissionError

    server = CkksServer(cc)

    def build(tracer, x):
        return tracer.rescale(tracer.multiply(x, x))

    warned = _collect(
        lambda: server.register_tenant("sq-old", build, scale=2.0**30)
    )
    assert any("scale_bits" in str(w.message) for w in warned)
    server.register_tenant("sq-new", build, scale_bits=30)
    assert server._tenants["sq-old"].scale == server._tenants["sq-new"].scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(AdmissionError) as ei:
            server.register_tenant(
                "sq-both", build, scale_bits=30, scale=2.0**30
            )
    assert ei.value.code == "conflicting-kwargs"


# -- deprecation shims: old paths work, warn exactly once --------------------

def _import_slotlinalg():
    from repro.scheme import SlotLinalg  # noqa: F401


def _import_slotlinalg_modpath():
    from repro.scheme.linalg import SlotLinalg  # noqa: F401


def _import_tracer_modpath():
    from repro.scheme.circuit import CircuitTracer  # noqa: F401


def _import_keyswitcher():
    from repro.poly import KeySwitcher  # noqa: F401


@pytest.mark.parametrize("trigger", [
    _import_slotlinalg,
    _import_slotlinalg_modpath,
    _import_tracer_modpath,
    _import_keyswitcher,
])
def test_old_import_paths_warn_exactly_once(trigger, fresh_warnings):
    first = _collect(trigger)
    assert len(first) == 1, [str(w.message) for w in first]
    assert "deprecated" in str(first[0].message)
    assert "instead" in str(first[0].message)  # names the replacement
    second = _collect(trigger)
    assert second == []


def test_old_names_resolve_to_the_internals(fresh_warnings):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        import repro.poly as poly
        import repro.scheme as scheme
        import repro.scheme.circuit as circuit_shim
        import repro.scheme.linalg as linalg_shim
        from repro.poly.basis_conv import KeySwitcher as real_ks
        from repro.scheme._circuit import CircuitTracer as real_tracer
        from repro.scheme._linalg import SlotLinalg as real_linalg

        assert scheme.SlotLinalg is real_linalg
        assert linalg_shim.SlotLinalg is real_linalg
        assert scheme.CircuitTracer is real_tracer
        assert circuit_shim.CircuitTracer is real_tracer
        assert poly.KeySwitcher is real_ks


def test_context_method_shims_warn_once(cc, fresh_warnings):
    first = _collect(lambda: cc.tracer())
    assert len(first) == 1 and "compile" in str(first[0].message)
    assert _collect(lambda: cc.tracer()) == []
    first = _collect(lambda: cc.linalg)
    assert len(first) == 1 and "matvec" in str(first[0].message)
    assert _collect(lambda: cc.linalg) == []


def test_silent_reexports_do_not_warn(fresh_warnings):
    def use():
        from repro.scheme import CircuitPlan, TracedCiphertext, bsgs_split
        from repro.scheme.circuit import CircuitPlan as cp2  # noqa: F401
        from repro.scheme.linalg import bsgs_split as bs2  # noqa: F401

        assert bsgs_split(8) == (3, 3)
        assert CircuitPlan is not None and TracedCiphertext is not None

    assert _collect(use) == []
