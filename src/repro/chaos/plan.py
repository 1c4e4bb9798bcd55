"""Fault plans: the declarative, replayable description of a chaos run.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultSpec`\\ s.  The
plan is *pure data*: it can be serialized to JSON, checked into CI, and
replayed bit-for-bit with ``python -m repro.chaos replay plan.json``.
Everything random about an injection run — which message is dropped,
which flit is corrupted, which AMT entries are poisoned — is drawn from
named RNG streams derived from the plan seed, so the same plan against
the same workload produces the same faults in the same order, and
therefore the same telemetry event stream (the determinism contract
``make chaos-smoke`` enforces).

The fault taxonomy (see docs/ROBUSTNESS.md for the full schema):

========== ============ =======================================================
kind        level        meaning
========== ============ =======================================================
drop        both         a message vanishes in transit (per-message ``rate``)
corrupt     cycle        a flit is flipped; the receiver's checksum rejects it
delay       macro        a delivered message arrives ``delay`` cycles late
link        cycle        all mesh channels owned by ``node`` are down during
                         ``[start, stop)`` (a router failure)
stall       cycle        ``node`` executes nothing during ``[start,
                         start+duration)``
kill        cycle        ``node`` fail-stops at ``start``; arrivals blackhole
queue        cycle        ``words`` of queue space withheld on ``node`` during
                         ``[start, stop)`` (forced overflow/spill pressure)
poison      cycle        at ``start``, evict ``rate`` of ``node``'s hardware
                         AMT entries (forced xlate miss faults)
========== ============ =======================================================
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

from ..core.errors import ConfigurationError

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "backoff_delay"]

#: The closed fault vocabulary; a typo'd kind fails at plan-build time.
FAULT_KINDS = frozenset({
    "drop", "corrupt", "delay", "link", "stall", "kill", "queue", "poison",
})

#: Kinds that apply per message with a probability (``rate``).
RATE_KINDS = frozenset({"drop", "corrupt", "delay"})

#: Kinds that fire on a schedule (``start`` .. ``stop``/``duration``).
SCHEDULED_KINDS = frozenset({"link", "stall", "kill", "queue", "poison"})


@dataclass(frozen=True)
class FaultSpec:
    """One fault source: what to break, where, when, and how hard."""

    kind: str
    #: Per-opportunity probability for rate kinds; for ``poison`` the
    #: fraction of hardware AMT entries to evict.
    rate: float = 0.0
    #: Target node (None = applies to every node / every message).
    node: Optional[int] = None
    #: Active window in simulated cycles: [start, stop).  ``stop=None``
    #: means "until the end of the run".
    start: int = 0
    stop: Optional[int] = None
    #: Stall length in cycles (``stall`` only).
    duration: int = 0
    #: Queue words withheld (``queue`` only).
    words: int = 0
    #: Extra latency in cycles (``delay`` only).
    delay: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"fault rate {self.rate} outside [0, 1]")
        if self.start < 0 or (self.stop is not None and self.stop < self.start):
            raise ConfigurationError(
                f"bad fault window [{self.start}, {self.stop})"
            )
        if self.kind in RATE_KINDS and self.rate == 0.0:
            raise ConfigurationError(f"{self.kind!r} fault needs a rate > 0")
        if self.kind == "stall" and self.duration <= 0:
            raise ConfigurationError("'stall' fault needs a duration > 0")
        if self.kind == "queue" and self.words <= 0:
            raise ConfigurationError("'queue' fault needs words > 0")
        if self.kind == "delay" and self.delay <= 0:
            raise ConfigurationError("'delay' fault needs delay > 0")
        if self.kind in ("link", "stall", "kill", "queue", "poison") \
                and self.node is None:
            raise ConfigurationError(f"{self.kind!r} fault needs a node")

    def active(self, now: int) -> bool:
        """True while ``now`` falls inside this spec's window."""
        if now < self.start:
            return False
        return self.stop is None or now < self.stop


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus fault specs: everything a chaos run needs to replay."""

    seed: int = 0
    specs: tuple = ()
    name: str = "chaos"

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"FaultPlan specs must be FaultSpec, got {type(spec)}"
                )

    # -- stream derivation ---------------------------------------------------

    def rng(self, stream: str) -> random.Random:
        """A named deterministic RNG stream.

        Each injection layer draws from its own stream (``"fabric"``,
        ``"macro"``, ``"schedule"``, ...), so adding draws in one layer
        never perturbs the faults another layer injects.
        """
        return random.Random(f"{self.seed}:{stream}")

    def by_kind(self, *kinds: str) -> List[FaultSpec]:
        return [s for s in self.specs if s.kind in kinds]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        def compact(spec: FaultSpec) -> dict:
            # Keep the JSON readable: omit fields left at their defaults.
            out = {"kind": spec.kind}
            for key, value in asdict(spec).items():
                if key != "kind" and value != getattr(FaultSpec, key, None):
                    out[key] = value
            return out

        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [compact(spec) for spec in self.specs],
        }

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        specs = tuple(FaultSpec(**spec) for spec in data.get("specs", ()))
        return FaultPlan(seed=int(data.get("seed", 0)), specs=specs,
                         name=str(data.get("name", "chaos")))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as fh:
            return FaultPlan.from_dict(json.load(fh))

    # -- convenience constructors --------------------------------------------

    @staticmethod
    def message_loss(rate: float, seed: int = 0,
                     name: str = "message-loss") -> "FaultPlan":
        """The workhorse plan: uniform message-drop at ``rate``."""
        return FaultPlan(seed=seed, name=name,
                         specs=(FaultSpec(kind="drop", rate=rate),))


def backoff_delay(base: float, backoff: float, attempt: int,
                  jitter: float = 0.0, seed: int = 0, key=0) -> int:
    """Exponential backoff with seeded, deterministic jitter.

    Returns ``base * backoff**attempt`` scaled by a factor drawn
    uniformly from ``[1, 1 + jitter)``.  The draw is a pure function of
    ``(seed, key, attempt)`` — seeded through the string form, which
    hashes stably across processes — so concurrent timeouts with
    distinct keys de-synchronize while every replay of the same run
    produces the same schedule.  ``jitter=0`` skips the RNG entirely
    and reproduces the exact pre-jitter delays.
    """
    delay = base * (backoff ** attempt)
    if jitter:
        rng = random.Random(f"{seed}:{key!r}:{attempt}")
        delay *= 1.0 + jitter * rng.random()
    return int(delay)
