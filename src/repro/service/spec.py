"""Job specifications: canonical, content-addressed run descriptions.

A :class:`JobSpec` names everything that *determines* a simulation run:
the application, the machine size, the problem parameters, the seeded
fault plan, and the reliable-transport configuration.  Determinism is
the repo's core contract — the same spec always produces the same
telemetry event stream (sha256-fingerprinted since PR 4) — so a spec's
canonical form is a sound cache key: the service content-addresses
results by ``sha256(canonical JSON)`` and repeated sweeps are free.

Canonicalization rules (pinned by tests/service/test_spec.py):

* the identity dict is *fully defaulted* — omitted fields are filled
  in, so ``{"app": "lcs"}`` and ``{"app": "lcs", "plan": null}`` hash
  identically;
* keys are sorted, separators are minimal, NaN/Inf are rejected;
* numeric fields are coerced through the catalogue's per-app schema
  (:mod:`repro.apps.scenario`; ``1`` and ``1.0`` for a float field
  serialize identically);
* fault plans are normalized through
  :meth:`~repro.chaos.plan.FaultPlan.to_dict`, which drops
  defaulted-out fields, so equivalent plans hash equal;
* ``reliable: true`` and ``reliable: {}`` both mean "default transport"
  and normalize to ``{}``.

Execution *hints* — checkpoint cadence, sampling cadence — shape how a
run is supervised, never what it computes (checkpointing and sampling
are bit-identical-when-enabled, enforced in
test_fastpath_equivalence.py), so they are carried on the spec but
excluded from the digest: resubmitting a sweep with a different
checkpoint interval still hits the cache.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from ..apps.scenario import CATALOGUE, validate
from ..core.errors import ConfigurationError

__all__ = ["APPS", "SPEC_VERSION", "JobSpec"]

#: Applications the service knows how to execute: the catalogue's.
APPS = tuple(CATALOGUE)

#: Bumped when the meaning of a spec field changes; part of the digest,
#: so results cached under an older semantics can never be served.
SPEC_VERSION = 1

#: Execution hints: carried, defaulted, never hashed.
_HINT_SCHEMA: Dict[str, tuple] = {
    "checkpoint_every": (int, 500_000),
    "sample_every": (int, 25_000),
}


class JobSpec:
    """One simulation job: app + size + params + fault plan + transport.

    Construct from keyword arguments or :meth:`from_dict`; both paths
    validate eagerly so a malformed spec is rejected at submit time,
    not discovered by a worker.
    """

    __slots__ = ("app", "n_nodes", "params", "plan", "reliable",
                 "checkpoint_every", "sample_every", "_digest")

    def __init__(self, app: str, n_nodes: int = 8,
                 params: Optional[Dict[str, Any]] = None,
                 plan: Optional[Dict[str, Any]] = None,
                 reliable: Any = None,
                 checkpoint_every: Optional[int] = None,
                 sample_every: Optional[int] = None) -> None:
        self.params = validate(app, params, chaos=plan, reliable=reliable)
        if not isinstance(n_nodes, int) or n_nodes < 1:
            raise ConfigurationError(
                f"n_nodes must be a positive int, got {n_nodes!r}")
        self.app = app
        self.n_nodes = n_nodes
        if plan is not None:
            from ..chaos.plan import FaultPlan

            # Round-trip through FaultPlan: validates the specs and
            # normalizes away defaulted fields so equivalent plans
            # canonicalize (and therefore hash) identically.
            plan = FaultPlan.from_dict(dict(plan)).to_dict()
        self.plan = plan
        if reliable is None or reliable is False:
            self.reliable: Any = False
        elif reliable is True:
            self.reliable = {}
        elif isinstance(reliable, dict):
            self.reliable = {key: reliable[key] for key in sorted(reliable)}
        else:
            raise ConfigurationError(
                f"reliable must be a bool or a kwargs dict, "
                f"got {reliable!r}")
        hints = {"checkpoint_every": checkpoint_every,
                 "sample_every": sample_every}
        for name, (kind, default) in _HINT_SCHEMA.items():
            value = default if hints[name] is None else kind(hints[name])
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive")
            setattr(self, name, value)
        self._digest: Optional[str] = None

    # -- canonical form ------------------------------------------------------

    def identity(self) -> Dict[str, Any]:
        """The fully-defaulted dict the digest is computed over."""
        return {
            "version": SPEC_VERSION,
            "app": self.app,
            "n_nodes": self.n_nodes,
            "params": dict(self.params),
            "plan": self.plan,
            "reliable": self.reliable,
        }

    def canonical_json(self) -> str:
        """Sorted-key, minimal-separator, finite-number JSON identity."""
        return json.dumps(self.identity(), sort_keys=True,
                          separators=(",", ":"), allow_nan=False)

    @property
    def digest(self) -> str:
        """sha256 of :meth:`canonical_json` — the job/cache key."""
        if self._digest is None:
            self._digest = hashlib.sha256(
                self.canonical_json().encode("utf-8")).hexdigest()
        return self._digest

    # -- transport form ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Identity plus execution hints — what travels to a worker."""
        out = self.identity()
        out["checkpoint_every"] = self.checkpoint_every
        out["sample_every"] = self.sample_every
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "JobSpec":
        data = dict(data)
        version = data.pop("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ConfigurationError(
                f"job spec version {version} is not this build's "
                f"{SPEC_VERSION}")
        known = {"app", "n_nodes", "params", "plan", "reliable",
                 "checkpoint_every", "sample_every"}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown job spec fields {sorted(unknown)}")
        if "app" not in data:
            raise ConfigurationError("job spec needs an 'app'")
        return JobSpec(**data)

    def __repr__(self) -> str:
        return (f"JobSpec(app={self.app!r}, n_nodes={self.n_nodes}, "
                f"digest={self.digest[:12]})")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, JobSpec) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)
