"""The four benchmark workloads, driven only through the public API.

Each workload builds its program state in :meth:`setup`, runs a checked
:meth:`warm_up` (so lazy tables are built and the correctness gate has
passed before anything is timed), and then runs a closed or open loop in
:meth:`measure`.  Every input -- slot vectors, matrices, sample order,
arrival schedule -- is drawn from the run's seed; the program receives only
those inputs.  See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import CkksContext, CkksServer, ServingConfig, ml
from repro.errors import ServingError
from repro.poly.backends.compiled import get_lib
from repro.serving.soak import SCALE_BITS, TENANTS, make_builds


class CorrectnessError(RuntimeError):
    """A set-up check failed (warm-up result or execution tier), so nothing
    may be timed."""


#: largest |decrypted - expected| a correct CKKS result shows at these
#: scales (observed: ~5e-3 at N=2^16 after a key switch, ~1e-5 elsewhere)
SLOT_TOL = 2.0**-5


@dataclass
class Samples:
    """What one measured phase produced."""

    #: sample label -> list of seconds
    times: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: correctness problems, one line each (empty when every check passed)
    problems: list = field(default_factory=list)
    #: (start, end) of every timed operation, for the trace attribution
    intervals: list = field(default_factory=list)
    #: number of closed-loop rounds run (the traced replay repeats them)
    rounds: int = 0
    #: workload-specific extras reported next to the metrics
    extra: dict = field(default_factory=dict)

    def add(self, label: str, start: float, end: float) -> None:
        self.times.setdefault(label, []).append(end - start)
        self.intervals.append((start, end))
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Workload:
    """Base: subclasses set the class constants and implement the loop."""

    name = ""
    #: tier passed as ``backend=`` (None: the default a user gets)
    requested_tier: str | None = None
    #: set-ups per run whose median is ``setup_s``
    setups = 2
    #: a closed loop runs at least this many rounds, past ``seconds`` if
    #: need be, so every latency median has enough samples
    min_rounds = 1
    #: checked rounds before timing
    warm_rounds = 1
    #: consecutive rounds whose samples of a label are averaged into one
    #: before the percentile, for a cost that recurs in a cycle of rounds
    block_rounds = 1
    #: end-to-end latency slots: metric name -> (reported label, sample
    #: label, percentile)
    slots: dict = {}

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        #: (requested tier, resolved tier) of every context built
        self.tiers: list[tuple[str, str]] = []
        self.cc: CkksContext | None = None

    def context(self, **kwargs) -> CkksContext:
        """Build the workload's context and record the tier it really runs."""
        cc = CkksContext(backend=self.requested_tier, seed=self.seed, **kwargs)
        tier = cc.backend
        if tier == "compiled" and get_lib() is None:
            tier = "numpy"  # the kernels did not build; numpy runs instead
        self.tiers.append((self.requested_tier or "numpy", tier))
        if self.fallbacks:
            # fail before anything is timed on a tier nobody asked for
            raise CorrectnessError(f"requested/resolved tiers: {self.tiers}")
        self.cc = cc
        return cc

    @property
    def fallbacks(self) -> int:
        return sum(1 for want, got in self.tiers if want != got)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Checked rounds before timing: lazy tables get built, and a wrong
        result stops the run before anything is measured."""
        warm = Samples()
        rng = self.rng(0)
        for _ in range(self.warm_rounds):
            self.round(rng, warm)
            warm.rounds += 1
        if warm.problems:
            raise CorrectnessError(f"warm-up failed its check: {warm.problems}")

    def measure(self, seconds: float, *, rounds: int | None = None) -> Samples:
        """Run the loop for ``seconds`` (or exactly ``rounds`` rounds)."""
        samples = Samples()
        rng = self.rng(1)
        start = time.perf_counter()
        while (
            samples.rounds < rounds if rounds is not None
            else samples.rounds < self.min_rounds
            or time.perf_counter() - start < seconds
        ):
            self.round(rng, samples)
            samples.rounds += 1
        samples.extra["wall_s"] = time.perf_counter() - start
        return samples

    def round(self, rng: np.random.Generator, samples: Samples) -> None:
        raise NotImplementedError

    def latencies(self, samples: Samples) -> dict:
        """metric -> (label, value in ms, sample count)."""
        out = {}
        for metric, (label, key, pct) in self.slots.items():
            values = samples.times.get(key, [])
            if self.block_rounds > 1:
                per_round = len(values) // samples.rounds
                values = _block_means(values, self.block_rounds * per_round)
            out[metric] = (label, _percentile(values, pct) * 1e3, len(values))
        return out

    def throughput(self, samples: Samples) -> tuple[str, float]:
        """Operations completed per second of timed work."""
        busy = sum(b - a for a, b in samples.intervals)
        return "ops_per_s", samples.attempted / busy if busy else 0.0

    def verify(self, samples: Samples) -> None:
        """Checks over a whole phase, run after it with tracing off."""

    def plans(self) -> list:
        """The compiled plans this workload replays (for step/cost counts)."""
        return []

    def trace_phases(self, seconds: float, tracer) -> tuple[Samples, Samples]:
        """An untraced phase, then the same inputs again under the tracer."""
        base = self.measure(seconds)
        tracer.install()
        try:
            traced = self.measure(seconds, rounds=base.rounds)
        finally:
            tracer.uninstall()
        return base, traced

    def trace_overhead(self, base: Samples, traced: Samples) -> float:
        """Traced wall over untraced wall for the same work, minus one."""
        return traced.extra["wall_s"] / base.extra["wall_s"] - 1.0

    def layer_extras(self, tracer, samples: Samples) -> dict:
        """Values of :data:`SERVING_METRICS` this workload measures."""
        return {}


def _percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct)) if values else float("nan")


def _block_means(values, block: int) -> list[float]:
    """Means of consecutive runs of ``block`` values (a short tail is
    dropped)."""
    whole = len(values) - len(values) % block
    return [statistics.fmean(values[i : i + block]) for i in range(0, whole, block)]


class PaperOps(Workload):
    """HMult and HRot at the paper's shape: N=2^16, L=24, dnum=3."""

    name = "paper_ops"
    requested_tier = "compiled"
    # one set-up here takes ~15 s and ~2.9 GB; a round ~6 s, and three
    # give each latency 3 samples (encrypt 6)
    setups = 1
    min_rounds = 3
    slots = {
        "lat_a_ms": ("hmult_ms", "hmult", 50),
        "lat_b_ms": ("hrot_ms", "hrot", 50),
        "lat_c_ms": ("encrypt_ms", "encrypt", 50),
        "lat_d_ms": ("round_ms", "round", 50),
    }

    def setup(self) -> None:
        # 9 aux primes: 8 cannot cover the largest of the 3 digits
        self.context(
            ring_degree=1 << 16, num_main=23, num_aux=9, dnum=3, rotations=(1,)
        )

    def round(self, rng, samples) -> None:
        """HRot, then HMult of the rotation: both run at the top level, and
        one decrypt checks them together."""
        cc, ev = self.cc, self.cc.evaluator
        a = rng.uniform(-1.0, 1.0, cc.num_slots)
        b = rng.uniform(-1.0, 1.0, cc.num_slots)
        t0 = time.perf_counter()
        ca = cc.encrypt(a)
        t1 = time.perf_counter()
        cb = cc.encrypt(b)
        t2 = time.perf_counter()
        rot = ev.rotate(ca, 1)
        t3 = time.perf_counter()
        prod = ev.rescale(ev.multiply(rot, cb))
        t4 = time.perf_counter()
        got = cc.decrypt(prod)
        t5 = time.perf_counter()
        for label, start, end in (
            ("encrypt", t0, t1), ("encrypt", t1, t2), ("hrot", t2, t3),
            ("hmult", t3, t4), ("decrypt", t4, t5),
        ):
            samples.add(label, start, end)
        # decrypt_ms alone (a pure-Python CRT loop) drifted 0.29 between
        # runs, past its bound, so the whole round carries it
        samples.times.setdefault("round", []).append(t5 - t0)
        err = np.max(np.abs(got - np.roll(a, -1) * b))
        samples.check(err <= SLOT_TOL, f"hrot + hmult error {err:.3g}")

    def verify(self, samples) -> None:
        samples.extra["decrypt_ms"] = _percentile(samples.times["decrypt"], 50) * 1e3


class MlInfer(Workload):
    """Compiled-plan replay of the bundled iris models at N=2^13."""

    name = "ml_infer"
    requested_tier = "compiled"
    # after one warm-up round the first timed logreg sample still ran
    # ~35% slow (the heap was still growing); after two it did not
    warm_rounds = 2
    # every other logreg inference faults ~150 MB back into the heap that
    # the allocator returned to the OS after the one before (+~100 ms): a
    # median over single inferences falls between those two modes and
    # jumped by 0.25 of itself from run to run, so each latency sample is
    # the mean over two consecutive rounds
    block_rounds = 2
    slots = {
        "lat_a_ms": ("logreg_ms", "logreg", 50),
        "lat_b_ms": ("mlp_ms", "mlp", 50),
        "lat_c_ms": ("encrypt_ms", "encrypt", 50),
        # plan.run alone, both models: the server side of an inference.
        # decrypt_ms (2 and 4 limbs at ~16 ms) is printed, not gated: its
        # median moved 0.21-0.30 between runs, with the machine's speed
        "lat_d_ms": ("plan_ms", "plan", 50),
    }

    def setup(self) -> None:
        # at N=2^14 the static noise check rejects the logreg model with
        # 10 main primes, hence 2^13
        cc = self.context(
            ring_degree=1 << 13, num_main=10, num_aux=6, dnum=2, rotations=(1, 2)
        )
        split = ml.load_iris_split(seed=0)
        self.x_test = split.x_test
        self.models = (
            ("logreg", cc.model(
                "logreg", split.x_train, (split.y_train == 2).astype(int),
                degree=7,
            )),
            ("mlp", cc.model("mlp", split.x_train, split.y_train, degree=4)),
        )

    def round(self, rng, samples) -> None:
        cc = self.cc
        # the held-out split in a seeded order, round after round
        order = samples.extra.setdefault("order", rng.permutation(len(self.x_test)))
        row = self.x_test[order[samples.rounds % len(order)]]
        for kind, model in self.models:
            t0 = time.perf_counter()
            ct = cc.encrypt(row, scale=model.scale, num_slots=model.dim)
            t1 = time.perf_counter()
            out = model.plan.run(ct)
            t2 = time.perf_counter()
            got = cc.decrypt(out, num_slots=model.dim).real
            t3 = time.perf_counter()
            samples.add(kind, t0, t3)
            samples.times.setdefault("encrypt", []).append(t1 - t0)
            samples.times.setdefault("plan", []).append(t2 - t1)
            samples.times.setdefault("decrypt", []).append(t3 - t2)
            plain = model.predict_plain(row)
            err = np.max(np.abs(got - plain[0]))
            samples.check(err <= SLOT_TOL, f"{kind} slot error {err:.3g}")
            enc_labels, plain_labels = samples.extra.setdefault(kind, ([], []))
            enc_labels.append(int(model.classify(got)[0]))
            plain_labels.append(int(model.classify(plain)[0]))

    def verify(self, samples) -> None:
        decrypts = samples.times["decrypt"]
        samples.extra["decrypt_ms.mean"] = statistics.fmean(decrypts) * 1e3
        for kind, _ in self.models:
            enc_labels, plain_labels = samples.extra.pop(kind)
            agree = ml.agreement(enc_labels, plain_labels)
            samples.extra[f"{kind}_agreement"] = agree
            samples.check(
                agree >= ml.AGREEMENT_THRESHOLD,
                f"{kind} label agreement {agree:.3f} < {ml.AGREEMENT_THRESHOLD}",
            )

    def plans(self) -> list:
        return [model.plan for _, model in self.models]


class SlotEager(Workload):
    """Eager ``cc.matvec`` / ``cc.poly_eval`` on the default (numpy) tier."""

    name = "slot_eager"
    dim = 64
    degree = 7
    slots = {
        "lat_a_ms": ("matvec_ms", "matvec", 50),
        "lat_b_ms": ("matvec_fresh_ms", "matvec_fresh", 50),
        "lat_c_ms": ("poly_eval_ms", "poly_eval", 50),
        "lat_d_ms": ("encrypt_ms", "encrypt", 50),
    }

    def setup(self) -> None:
        self.context(
            ring_degree=4096, num_main=11, num_aux=6, dnum=2,
            rotations=CkksContext.matvec_rotations(self.dim),
        )
        rng = self.rng(2)
        # entries in [-1/8, 1/8) keep |M @ z| <= 8 for |z| <= 1
        self.matrix = rng.uniform(-0.125, 0.125, (self.dim, self.dim))
        self.coeffs = rng.uniform(-0.5, 0.5, self.degree + 1)

    def _fresh(self, rng, samples):
        z = rng.uniform(-1.0, 1.0, self.dim)
        t0 = time.perf_counter()
        ct = self.cc.encrypt(z, num_slots=self.dim)
        samples.times.setdefault("encrypt", []).append(time.perf_counter() - t0)
        return z, ct

    def round(self, rng, samples) -> None:
        cc = self.cc
        fresh = rng.uniform(-0.125, 0.125, (self.dim, self.dim))
        for label, matrix in (("matvec", self.matrix), ("matvec_fresh", fresh)):
            z, ct = self._fresh(rng, samples)
            t0 = time.perf_counter()
            out = cc.matvec(ct, matrix)
            samples.add(label, t0, time.perf_counter())
            err = np.max(np.abs(cc.decrypt(out, num_slots=self.dim) - matrix @ z))
            samples.check(err <= SLOT_TOL, f"{label} error {err:.3g}")
        z, ct = self._fresh(rng, samples)
        t0 = time.perf_counter()
        out = cc.poly_eval(ct, self.coeffs)
        samples.add("poly_eval", t0, time.perf_counter())
        want = np.polynomial.polynomial.polyval(z, self.coeffs)
        err = np.max(np.abs(cc.decrypt(out, num_slots=self.dim) - want))
        samples.check(err <= SLOT_TOL, f"poly_eval error {err:.3g}")

    def measure(self, seconds, *, rounds=None) -> Samples:
        samples = super().measure(seconds, rounds=rounds)
        reused = len(samples.times.get("matvec", []))
        total = reused + len(samples.times.get("matvec_fresh", []))
        samples.extra["reused_matrix_share"] = reused / total if total else 0.0
        return samples


@dataclass
class _Request:
    due: float
    tenant: str
    value: object
    submitted: float = 0.0
    done: float = 0.0
    result: object = None
    code: str | None = None


class ServeMix(Workload):
    """Open-loop Poisson load on ``CkksServer`` at N=1024."""

    name = "serve_mix"
    #: share of requests for the one-request-per-batch logreg tenant
    vector_share = 0.02
    #: offered rates (requests/s): about 1/6 and 1/3 of the ~300 req/s the
    #: server sustains on a 2-core x86_64 VM.  Nearer saturation, queueing
    #: amplifies the machine's speed drift past the metrics' bounds.
    light_rps = 50.0
    heavy_rps = 100.0
    #: the overload rung above ``heavy_rps``: its served rate is the
    #: capacity, and with light and heavy it gives ``max_rate_rps``
    ladder_rps = (400.0,)
    #: requests per phase, so p99 has at least 10 samples beyond it
    phase_requests = 1000
    #: the p99 latency limit that ``max_rate_rps`` must meet
    p99_limit_s = 0.5
    #: batches kept for the bit-exact replay check (each replay costs one
    #: plan run, so the most recent batches are replayed, not all)
    replay_batches = 64
    slots = {
        "lat_a_ms": ("p50_ms.light", "light", 50),
        "lat_b_ms": ("p99_ms.light", "light", 99),
        "lat_c_ms": ("p50_ms.heavy", "heavy", 50),
        "lat_d_ms": ("p99_ms.heavy", "heavy", 99),
    }

    def setup(self) -> None:
        cc = self.context(
            ring_degree=1024, num_main=10, num_aux=7, dnum=2, rotations=(1, 2)
        )
        config = ServingConfig(
            max_queue=100_000,
            default_deadline_s=60.0,
            max_recorded_batches=self.replay_batches,
            seed=self.seed,
        )
        self.server = CkksServer(cc, config=config)
        builds = make_builds(cc)
        for name in sorted(TENANTS):
            self.server.register_tenant(name, builds[name], scale_bits=SCALE_BITS)
        split = ml.load_iris_split(seed=0)
        self.x_test = split.x_test
        self.logreg = cc.model(
            "logreg", split.x_train, (split.y_train == 2).astype(int), degree=7
        )
        self.server.register_tenant(
            "logreg", self.logreg.build, scale_bits=self.logreg.scale_bits,
            input_dim=self.logreg.dim,
        )

    def warm_up(self) -> None:
        """Bursts of 1, 2, 4, ..., 256 requests per scalar tenant.

        Each packing width a timed phase can cut builds its tables here.
        """
        rng = self.rng(0)
        out = []
        for k in range(9):
            due = 0.1 * k
            out.append(_Request(due, "logreg", self.x_test[k]))
            for tenant in sorted(TENANTS):
                out.extend(
                    _Request(due, tenant, float(v))
                    for v in rng.uniform(-1.0, 1.0, 2**k)
                )
        warm = Samples()
        asyncio.run(self._serve([("warm", out)], warm))
        self.verify(warm)
        if warm.problems:
            raise CorrectnessError(f"warm-up failed its check: {warm.problems}")

    def schedule(self, rng, rate: float, count: int) -> list[_Request]:
        """Seeded Poisson arrivals with a fixed tenant mix.

        Every ``1 / vector_share``-th arrival, from a seeded offset, is a
        vector request, so every phase has the same share.
        """
        due = np.cumsum(rng.exponential(1.0 / rate, count))
        block = round(1 / self.vector_share)
        vector = np.zeros(count, bool)
        vector[int(rng.integers(block))::block] = True
        scalar_tenants = rng.choice(sorted(TENANTS), count)
        scalars = rng.uniform(-1.0, 1.0, count)
        rows = rng.integers(len(self.x_test), size=count)
        return [
            _Request(due[i], "logreg", self.x_test[rows[i]]) if vector[i]
            else _Request(due[i], str(scalar_tenants[i]), float(scalars[i]))
            for i in range(count)
        ]

    def measure(self, seconds, *, only: str | None = None) -> Samples:
        """Light, heavy, then the ladder; ``only`` runs one named phase.

        Light and heavy each last ``seconds`` or ``phase_requests``
        requests, whichever is longer; a ladder rung is ``phase_requests``.
        """
        rng = self.rng(1)
        phases = [
            (label, self.schedule(
                rng, rate, max(self.phase_requests, int(seconds * rate))
            ))
            for label, rate in (("light", self.light_rps), ("heavy", self.heavy_rps))
        ] + [
            (f"rate{rate:g}", self.schedule(rng, rate, self.phase_requests))
            for rate in self.ladder_rps
        ]
        if only is not None:
            phases = [phase for phase in phases if phase[0] == only]
        samples = Samples()
        start = time.perf_counter()
        asyncio.run(self._serve(phases, samples))
        samples.extra["wall_s"] = time.perf_counter() - start
        if only is None:
            samples.extra["max_rate_rps"] = _max_rate(
                samples.extra["rungs"], self.p99_limit_s
            )
        return samples

    def trace_phases(self, seconds, tracer):
        # the heavy phase untraced, then the same arrivals traced
        base = self.measure(seconds, only="heavy")
        tracer.install()
        try:
            traced = self.measure(seconds, only="heavy")
        finally:
            tracer.uninstall()
        return base, traced

    def trace_overhead(self, base, traced) -> float:
        # an open loop's wall is fixed by its schedule: compare latency
        return (
            statistics.fmean(traced.times["heavy"])
            / statistics.fmean(base.times["heavy"]) - 1.0
        )

    def plans(self) -> list:
        return list(self.tenant_plans().values())

    def tenant_plans(self) -> dict:
        """Each tenant's plan, compiled again from its recipe.

        Compilation is deterministic, so these carry the fingerprints of
        the plans the server admitted.
        """
        builds = make_builds(self.cc)
        plans = {
            name: self.cc.compile(lambda p, x, b=builds[name]: b(p, x))
            for name in sorted(TENANTS)
        }
        plans["logreg"] = self.logreg.plan
        return plans

    async def _serve(self, phases, samples) -> None:
        await self.server.start()
        try:
            for label, requests in phases:
                await self._phase(label, requests, samples)
        finally:
            await self.server.stop()

    async def _phase(self, label, requests, samples) -> None:
        """Submit each request when due; latency runs from the due time."""
        late = []
        tasks = []
        start = time.perf_counter()
        for req in requests:
            req.due += start
            delay = req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(time.perf_counter() - req.due)
            tasks.append(asyncio.create_task(self._one(req)))
        await asyncio.gather(*tasks)
        end = time.perf_counter()
        for req in requests:
            samples.times.setdefault(label, []).append(req.done - req.due)
            samples.intervals.append((req.due, req.done))
            samples.attempted += 1
            if req.code is not None:
                samples.failed += 1
                samples.problems.append(f"{label}: {req.tenant} rejected ({req.code})")
        samples.extra.setdefault("late_s", []).extend(late)
        samples.extra.setdefault("requests", []).extend(requests)
        samples.extra.setdefault("phase_walls", []).append((start, end))
        # a backlog still queued when the last request is due shows as the
        # time it takes to drain
        rate = len(requests) / (requests[-1].due - start)
        p99 = float(np.percentile(samples.times[label], 99))
        drain = end - requests[-1].due
        samples.extra[f"{label}.offered_rps"] = rate
        samples.extra[f"{label}.served_rps"] = len(requests) / (end - start)
        samples.extra[f"{label}.late_ms_p99"] = float(np.percentile(late, 99)) * 1e3
        samples.extra[f"{label}.p99_ms"] = p99 * 1e3
        samples.extra[f"{label}.drain_s"] = drain
        samples.extra.setdefault("rungs", []).append((rate, max(p99, drain)))

    async def _one(self, req: _Request) -> None:
        req.submitted = time.perf_counter()
        try:
            req.result = await self.server.submit(req.tenant, req.value)
        except ServingError as exc:
            req.code = exc.code
        except Exception as exc:  # an unstructured failure, counted
            req.code = f"unstructured {type(exc).__name__}: {exc}"
        req.done = time.perf_counter()

    def verify(self, samples) -> None:
        """Plaintext reference per tenant, then bit-exact batch replay."""
        for req in samples.extra["requests"]:
            if req.code is not None:
                continue
            if req.tenant == "logreg":
                want = self.logreg.predict_plain(req.value)[0]
                err = float(np.max(np.abs(np.asarray(req.result) - want)))
            else:
                err = abs(req.result - TENANTS[req.tenant](req.value))
            samples.check(err <= SLOT_TOL, f"{req.tenant} error {err:.3g}")
        wrong = _replay_delivered(self.server, self.tenant_plans())
        samples.extra["replayed_batches"] = len(self.server.batch_log)
        samples.check(wrong == 0, f"{wrong} delivered slots failed the replay")
        vector = sum(r.tenant == "logreg" for r in samples.extra["requests"])
        samples.extra["vector_share"] = vector / len(samples.extra["requests"])

    def throughput(self, samples) -> tuple[str, float]:
        # the served rate under overload: unlike max_rate_rps, which moves
        # with the tail latency, it stays within the bound run to run
        top = f"rate{self.ladder_rps[-1]:g}"
        return "capacity_rps", samples.extra.get(f"{top}.served_rps", float("nan"))

    def layer_extras(self, tracer, samples) -> dict:
        return _serving_layers(self.server, tracer, samples)


def _replay_delivered(server, plans) -> int:
    """Replay each recorded batch; count delivered values that differ.

    The same bit-exact oracle as ``repro.serving.verify_delivered``, which
    cannot be used here: it compares every delivered value through
    ``complex()``, which raises on a vector tenant's array result.
    """
    wrong = 0
    for record in server.batch_log:
        out = plans[record.tenant].run(record.ct)
        vals = server.cc.decrypt(out, num_slots=record.slots)
        for _rid, slot, value in record.delivered:
            if np.ndim(value):
                same = np.array_equal(vals[: len(value)], value)
            else:
                same = complex(vals[slot]) == value
            wrong += not same
    return wrong


def _max_rate(rungs, limit: float) -> float:
    """The offered rate at which the ladder's latency reaches ``limit``.

    ``rungs`` are ``(offered rate, max(p99, drain))`` in rising rate order.
    The latency is interpolated linearly in log space between rungs, and
    extended past the outer rungs along the nearest segment, so the result
    moves continuously with the measurements instead of jumping between
    ladder rates.
    """
    points = [(rate, math.log(y)) for rate, y in rungs]
    target = math.log(limit)
    for (r0, y0), (r1, y1) in zip(points, points[1:]):
        if y1 >= target:
            break
    if y1 <= y0:
        return r1
    rate = r0 + (r1 - r0) * (target - y0) / (y1 - y0)
    return min(max(rate, 0.0), 2.0 * points[-1][0])


def _serving_layers(server, tracer, samples) -> dict:
    """Scheduler-stage metrics of the traced serving phases.

    Queue wait runs from submit until the request's batch starts its plan
    replay.  The scheduler keeps each tenant's queue in submit order, so
    replaying its batches in dispatch order against the requests reproduces
    which request rode in which batch.
    """
    requests = samples.extra["requests"]
    dispatch = tracer.batch_dispatch_times()
    cap = server.cc.num_slots
    waits, fills = [], []
    for tenant in {r.tenant for r in requests}:
        queue = sorted(
            (r for r in requests if r.tenant == tenant and r.code is None),
            key=lambda r: r.submitted,
        )
        width = 1 if tenant == "logreg" else cap
        head = 0
        for _, start in sorted(
            (idx, t) for (name, idx), t in dispatch.items() if name == tenant
        ):
            taken = 0
            while (
                head < len(queue) and taken < width
                and queue[head].submitted <= start
            ):
                waits.append(start - queue[head].submitted)
                head += 1
                taken += 1
            if width > 1 and taken:
                fills.append(taken / width)
    walls = samples.extra["phase_walls"]
    runs = [
        s for s in tracer.spans
        if s.name == "scheme._circuit.run" and s.parent is not None
        and any(a <= s.start <= b for a, b in walls)
    ]
    wall = sum(b - a for a, b in walls)
    rejected = {}
    for r in requests:
        if r.code is not None:
            rejected[r.code] = rejected.get(r.code, 0) + 1
    out = {
        "serving.attempted": len(requests),
        "serving.delivered": sum(1 for r in requests if r.code is None),
        "serving.rejected": sum(rejected.values()),
        "serving.retries": int(server.metrics["retries"]),
        "serving.queue_wait_ms.p50": _percentile(waits, 50) * 1e3,
        "serving.queue_wait_ms.p99": _percentile(waits, 99) * 1e3,
        "serving.batch_fill": statistics.fmean(fills) if fills else 0.0,
        "serving.exec_busy_frac": (
            sum(s.end - s.start for s in runs) / wall if wall else 0.0
        ),
        "serving.late_ms.p99": _percentile(samples.extra["late_s"], 99) * 1e3,
    }
    for code in REJECTION_CODES:
        out[f"serving.rejected.{code}"] = rejected.get(code, 0)
    return out


#: structured rejection codes a request can meet at run time
REJECTION_CODES = (
    "circuit-open",
    "deadline-exceeded",
    "internal-error",
    "load-shed",
    "plan-failed",
    "queue-full",
    "retries-exhausted",
)

#: the serving layer's per-layer metrics and their units (0 elsewhere)
SERVING_METRICS = {
    "serving.attempted": "count",
    "serving.delivered": "count",
    "serving.rejected": "count",
    "serving.retries": "count",
    "serving.queue_wait_ms.p50": "ms",
    "serving.queue_wait_ms.p99": "ms",
    "serving.batch_fill": "ratio",
    "serving.exec_busy_frac": "ratio",
    "serving.late_ms.p99": "ms",
    **{f"serving.rejected.{code}": "count" for code in REJECTION_CODES},
}

WORKLOADS = {w.name: w for w in (PaperOps, MlInfer, SlotEager, ServeMix)}
