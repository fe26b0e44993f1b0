"""Deterministic load generation and bit-exact delivery verification.

:func:`run_load` drives a started :class:`~repro.serving.scheduler.
CkksServer` with a pre-drawn request schedule — every tenant choice,
payload value, priority and inter-arrival delay is drawn up front from
one seeded generator, so the *offered load* is identical across runs
even though asyncio interleaving is not.  Outcomes are classified into
delivered results, structured :class:`~repro.errors.ServingError`
rejections (bucketed by ``code``), and unstructured failures (which a
correct server never produces).

:func:`verify_delivered` is the correctness oracle: compiled-plan
execution is deterministic, so replaying each recorded batch's *exact*
input ciphertext through the tenant plan must reproduce, bit for bit,
every slot value that was handed to a client.  Any divergence means a
corrupted execution escaped the recovery machinery — the one thing the
serving layer promises never happens.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ServingError

__all__ = ["LoadReport", "LoadSpec", "draw_specs", "run_load",
           "verify_delivered"]


@dataclass
class LoadSpec:
    """One pre-drawn request: who, what, how urgent, when."""

    tenant: str
    value: float
    priority: int
    delay_s: float
    deadline_s: float


@dataclass
class LoadReport:
    """Outcome tallies and latency percentiles for one load run."""

    submitted: int = 0
    delivered: int = 0
    rejected: Counter = field(default_factory=Counter)  #: ServingError code -> n
    unstructured: int = 0       #: non-ServingError failures (must be 0)
    wall_s: float = 0.0
    requests_per_s: float = 0.0
    p50_s: float = 0.0
    p99_s: float = 0.0
    results: dict = field(default_factory=dict)  #: spec index -> value/error

    def summary(self) -> str:
        rej = ", ".join(
            f"{code}={n}" for code, n in sorted(self.rejected.items())
        ) or "none"
        return (
            f"{self.delivered}/{self.submitted} delivered in "
            f"{self.wall_s:.2f}s ({self.requests_per_s:.1f} req/s, "
            f"p50 {self.p50_s * 1e3:.1f}ms, p99 {self.p99_s * 1e3:.1f}ms); "
            f"rejections: {rej}; unstructured failures: {self.unstructured}"
        )


def draw_specs(
    *,
    tenants,
    requests: int,
    seed: int,
    spread_s: float = 0.5,
    deadline_s: float = 2.0,
    priorities: int = 3,
) -> list[LoadSpec]:
    """Pre-draw a deterministic request schedule from one seed."""
    tenants = list(tenants)
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(requests):
        specs.append(LoadSpec(
            tenant=tenants[int(rng.integers(len(tenants)))],
            value=round(float(rng.uniform(-1.0, 1.0)), 3),
            priority=int(rng.integers(priorities)),
            delay_s=float(rng.uniform(0.0, spread_s)),
            deadline_s=deadline_s,
        ))
    return specs


async def run_load(server, specs) -> LoadReport:
    """Submit every spec on schedule; classify and tally the outcomes."""
    report = LoadReport(submitted=len(specs))

    async def one(index: int, spec: LoadSpec):
        await asyncio.sleep(spec.delay_s)
        try:
            value = await server.submit(
                spec.tenant, spec.value,
                deadline_s=spec.deadline_s, priority=spec.priority,
            )
        except ServingError as exc:
            report.rejected[exc.code] += 1
            report.results[index] = exc
        except Exception as exc:
            report.unstructured += 1
            report.results[index] = exc
        else:
            report.delivered += 1
            report.results[index] = value

    start = time.monotonic()
    await asyncio.gather(*(one(i, s) for i, s in enumerate(specs)))
    report.wall_s = time.monotonic() - start
    if report.wall_s > 0:
        report.requests_per_s = report.delivered / report.wall_s
    lat = sorted(server.latencies_s)
    if lat:
        report.p50_s = lat[len(lat) // 2]
        report.p99_s = lat[min(len(lat) - 1, int(len(lat) * 0.99))]
    return report


def verify_delivered(server) -> int:
    """Replay every recorded batch; count bit-mismatched delivered slots.

    Plan execution is deterministic, so re-running a delivered batch's
    exact input ciphertext through the tenant's plan and decrypting
    must reproduce every delivered value *exactly* (complex equality,
    no tolerance): one slot for a scalar tenant, the leading
    ``input_dim`` slots for a vector tenant.  Returns the number of
    mismatched deliveries — zero for a correct server, because every
    integrity check that could have caught a corrupted execution fires
    before delivery.
    """
    wrong = 0
    for record in server.batch_log:
        tenant = server._tenants[record.tenant]
        out = tenant.plan.run(record.ct, tag=f"verify/{record.batch_index}")
        vals = server.cc.decrypt(out, num_slots=record.slots)
        for _rid, slot, value in record.delivered:
            if isinstance(value, np.ndarray):
                ok = np.array_equal(vals[: len(value)], value)
            else:
                ok = complex(vals[slot]) == value
            wrong += not ok
    return wrong
