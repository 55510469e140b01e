"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` describes *which* faults to inject and *when*, in a
form that is fully reproducible: the same plan against the same run
fires at exactly the same points, in the parent process and in pool
workers alike (workers inherit ``REPRO_FAULTS`` through the
environment).  Instrumented code asks :func:`fire` at each injection
point; with no plan installed the call is a cheap no-op, so the hooks
stay in the hot paths permanently.

Spec grammar (``REPRO_FAULTS`` or :func:`install` /:func:`injected`)::

    plan   := spec (";" spec)*
    spec   := kind ["@" field "=" value ("," field "=" value)*] ["*" count]
    value  := integer | float (float only for the reserved params below)

Reserved params (never matched against context):

``s``     sleep seconds for ``timeout`` injections (default 30)
``p``     firing probability in [0, 1] — seeded Bernoulli per occurrence
``seed``  seed for the probabilistic mode (default 0)

Every other ``field=value`` is a **matcher**: the spec fires only when
the injection point's context carries that field with that exact value.
``*N`` caps a spec at N firings per process (default: unlimited).

Examples::

    REPRO_FAULTS="worker_crash@task=1,attempt=0"    # kill first try of task 1
    REPRO_FAULTS="timeout@task=2,attempt=0,s=5"     # hang task 2 for 5 s once
    REPRO_FAULTS="slow_index@p=0.2,seed=7,s=0.3"    # 20% of scans, seeded

Probabilistic firing hashes ``(seed, kind, sorted context)`` — not a
shared RNG stream — so decisions are independent of evaluation order
and identical across processes.

Fault kinds wired into the runtime: ``worker_crash`` and ``timeout``
(pool tasks, keyed by ``task``/``attempt``).  The serving layer adds
``slow_index`` (sleeps ``s`` seconds at the index scan) and
``index_error`` (raises there), both keyed by the per-server batch
``call``; ``queue_overflow`` (sheds at admission, keyed by the
admission ``call``); and ``shard_corrupt_read`` (raises ``StoreError``
at the mmap block-read choke point, keyed by the per-store read
``call``).  The plan itself is kind-agnostic; tests may invent their
own kinds.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass, field

from ..obs import events, metrics

__all__ = ["FaultSpec", "FaultPlan", "parse_plan", "active_plan", "install",
           "injected", "fire"]

#: Spec fields that parameterise the fault instead of matching context.
_PARAM_FIELDS = {"s", "p", "seed"}


@dataclass
class FaultSpec:
    """One parsed fault: a kind, its matchers and firing discipline."""

    kind: str
    matchers: dict[str, int] = field(default_factory=dict)
    params: dict[str, float] = field(default_factory=dict)
    count: int | None = None
    fired: int = 0

    def matches(self, context: dict[str, int]) -> bool:
        """Would this spec fire for ``context`` (budget and matchers)?"""
        if self.count is not None and self.fired >= self.count:
            return False
        for key, value in self.matchers.items():
            if context.get(key) != value:
                return False
        probability = self.params.get("p")
        if probability is not None:
            return _seeded_bernoulli(
                int(self.params.get("seed", 0)), self.kind, context,
            ) < probability
        return True


def _seeded_bernoulli(seed: int, kind: str, context: dict) -> float:
    """Deterministic uniform [0, 1) from (seed, kind, context)."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(seed).encode())
    digest.update(kind.encode())
    digest.update(repr(sorted(context.items())).encode())
    return int.from_bytes(digest.digest(), "big") / 2.0 ** 64


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` with firing state."""

    def __init__(self, specs: list[FaultSpec] | None = None):
        self.specs = list(specs or [])

    @property
    def active(self) -> bool:
        return bool(self.specs)

    def fire(self, kind: str, **context: int) -> FaultSpec | None:
        """Return the first matching spec for ``kind`` and consume one
        firing from its budget; ``None`` when nothing matches.

        Each firing is observable: a ``fault_injected`` event plus the
        ``faults.injected`` counter, so chaos runs leave an audit trail.
        """
        for spec in self.specs:
            if spec.kind == kind and spec.matches(context):
                spec.fired += 1
                metrics.registry().counter("faults.injected").inc()
                events.emit("fault_injected", fault=kind, **context)
                return spec
        return None


def parse_plan(text: str | None) -> FaultPlan:
    """Parse the spec grammar above; raises ``ValueError`` on malformed
    input so a typo in a chaos run fails fast instead of silently
    injecting nothing."""
    specs: list[FaultSpec] = []
    for raw in (text or "").replace("\n", ";").split(";"):
        raw = raw.strip()
        if not raw:
            continue
        count = None
        if "*" in raw:
            raw, _, count_text = raw.rpartition("*")
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(f"bad fault count in {raw!r}*{count_text!r}")
            if count < 1:
                raise ValueError("fault count must be >= 1")
        kind, _, fields = raw.partition("@")
        kind = kind.strip()
        if not kind or not kind.replace("_", "").isalnum():
            raise ValueError(f"bad fault kind {kind!r}")
        matchers: dict[str, int] = {}
        params: dict[str, float] = {}
        for item in filter(None, (f.strip() for f in fields.split(","))):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"fault field {item!r} is not key=value")
            try:
                if key in _PARAM_FIELDS:
                    params[key] = float(value)
                else:
                    matchers[key] = int(value)
            except ValueError:
                raise ValueError(f"bad value in fault field {item!r}")
        if not 0.0 <= params.get("p", 0.0) <= 1.0:
            raise ValueError("fault probability p must be in [0, 1]")
        specs.append(FaultSpec(kind=kind, matchers=matchers, params=params,
                               count=count))
    return FaultPlan(specs)


#: (env text, parsed plan) cache — reparsed whenever REPRO_FAULTS changes.
_ENV_CACHE: tuple[str, FaultPlan] = ("", FaultPlan())
#: Programmatic override installed by install()/injected(); beats the env.
_OVERRIDE: FaultPlan | None = None


def active_plan() -> FaultPlan:
    """The installed override, else the plan parsed from ``REPRO_FAULTS``.

    The env variable is re-read on every call (it is one dict lookup),
    so long-lived processes and tests can flip faults on and off;
    firing budgets reset whenever the env text changes.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    global _ENV_CACHE
    text = os.environ.get("REPRO_FAULTS", "")
    if text != _ENV_CACHE[0]:
        _ENV_CACHE = (text, parse_plan(text))
    return _ENV_CACHE[1]


def install(plan: FaultPlan | str | None) -> FaultPlan | None:
    """Install ``plan`` (a :class:`FaultPlan` or spec string) as the
    process-wide override; ``None`` removes it.  Returns the previous
    override.  Note: overrides do not cross process boundaries — use
    ``REPRO_FAULTS`` to reach pool workers."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = parse_plan(plan) if isinstance(plan, str) else plan
    return previous


@contextlib.contextmanager
def injected(plan: FaultPlan | str):
    """Install ``plan`` for the block, restoring the previous override."""
    previous = install(plan)
    try:
        yield active_plan()
    finally:
        install(previous)


def fire(kind: str, **context: int) -> FaultSpec | None:
    """Fire ``kind`` against the active plan (no-op without a plan)."""
    plan = active_plan()
    if not plan.active:
        return None
    return plan.fire(kind, **context)
