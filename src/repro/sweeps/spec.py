"""Declarative sweep specifications.

A :class:`SweepSpec` describes a parameter sweep as data: a game family, a
revision protocol, a measurement kernel, and a grid of parameter axes whose
Cartesian product defines the sweep's :class:`SweepPoint`s.  Because the
expansion is purely deterministic (axes are expanded in declaration order)
and every point derives its randomness from ``(spec.seed, point.index)``
through :func:`repro.rng.spawn_seed_sequences`, the results of a sweep are
independent of how its points are sharded across worker processes — running
the same spec with 1 worker or 16 yields bit-identical rows.

Two content hashes anchor the on-disk result store
(:mod:`repro.sweeps.store`):

* :func:`point_key` — a stable digest of one point's parameters, used to
  mark individual points as completed so interrupted sweeps resume where
  they stopped;
* :meth:`SweepSpec.content_hash` — a digest of the whole spec plus
  :data:`CODE_VERSION`, used to key store directories so results computed
  by incompatible kernel versions are never silently reused.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import ReproError
from ..rng import spawn_seed_sequences

__all__ = ["CODE_VERSION", "SweepError", "SweepPoint", "SweepSpec",
           "canonical_json", "point_key"]

#: Bump whenever the measurement kernels change semantics: the store keys
#: results by ``hash(spec + CODE_VERSION)``, so a bump invalidates every
#: cached row computed by the old code instead of silently reusing it.
#: (2: large sparse games auto-switch to CSR incidence evaluation, whose
#: accumulation order differs from the dense BLAS path in the last bits —
#: rows computed by version 1 are no longer reproducible bit-for-bit.)
#: (3: specs carry an ``engine`` field and measures may execute on the
#: native backend, whose migration draws come from a different random
#: decomposition than the batch engine's — rows computed by version 2 keep
#: distinct store keys.)
#: (4: a gain that beats the migration threshold by no more than a few ulps
#: of ``l_P`` is a round-off tie, not an improvement, so protocols no longer
#: move players towards an equal strategy — trajectories that met such a
#: tie differ from version 3.)
CODE_VERSION = 4


class SweepError(ReproError):
    """Raised for invalid sweep specifications or scheduler misuse."""


def canonical_json(payload: Any) -> str:
    """Canonical (sorted-key, compact) JSON used for all content hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def point_key(params: Mapping[str, Any]) -> str:
    """Stable 16-hex-digit digest of one point's parameter dictionary."""
    return _digest(canonical_json(dict(params)))


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars/arrays into plain JSON-serialisable values."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class SweepPoint:
    """One fully-instantiated configuration of a sweep.

    Attributes
    ----------
    index:
        Position in the spec's deterministic expansion order; the point's
        seed sequence is ``spec.point_seed_sequences()[index]``.
    params:
        The merged parameter dictionary (``spec.base`` overridden by this
        point's axis values).
    key:
        :func:`point_key` digest of ``params`` — the resume/cache identity
        of the point within its spec.
    """

    index: int
    params: dict[str, Any]
    key: str


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid sweep over games, protocols and parameters.

    Parameters
    ----------
    name:
        Human-readable sweep identifier (also part of the store directory
        name, so keep it filesystem-friendly; it is slugified if not).
    game:
        Game-family identifier resolved by :mod:`repro.sweeps.kernels`
        (e.g. ``"linear-singleton"``).
    protocol:
        Protocol identifier (``"imitation"``, ``"exploration"``,
        ``"hybrid"``, ...).
    measure:
        Measurement-kernel identifier (e.g. ``"approx_equilibrium_time"``).
    axes:
        Mapping from parameter name to the list of values it sweeps over.
        The Cartesian product is expanded with the *last* axis varying
        fastest (like nested for-loops in declaration order).
    base:
        Fixed parameters merged into every point (axis values win on
        collision).
    replicas:
        Number of ensemble replicas (Monte-Carlo trials) per point.
    max_rounds:
        Per-replica round budget.
    seed:
        Master seed; every point derives its own independent seed sequence
        from it by index.
    engine:
        Round engine executing the measure (``"loop"``, ``"batch"`` or
        ``"native"``; see :mod:`repro.engines`).  Part of the spec — and
        thus of :meth:`content_hash` — because the native engine's random
        stream differs from the reference pair, so rows computed by
        different engines must never share a store key.
    """

    name: str
    game: str = "linear-singleton"
    protocol: str = "imitation"
    measure: str = "approx_equilibrium_time"
    axes: dict[str, list] = field(default_factory=dict)
    base: dict[str, Any] = field(default_factory=dict)
    replicas: int = 5
    max_rounds: int = 5_000
    seed: int = 2009
    engine: str = "batch"

    def __post_init__(self):
        axes = {str(name): [_jsonable(v) for v in values]
                for name, values in dict(self.axes).items()}
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "base", _jsonable(dict(self.base)))

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SweepError` on an unusable specification."""
        from .kernels import GAME_BUILDERS, MEASURES, PROTOCOL_BUILDERS

        if not self.name:
            raise SweepError("a sweep needs a non-empty name")
        if self.game not in GAME_BUILDERS:
            raise SweepError(f"unknown game {self.game!r}; "
                             f"known: {sorted(GAME_BUILDERS)}")
        if self.protocol not in PROTOCOL_BUILDERS:
            raise SweepError(f"unknown protocol {self.protocol!r}; "
                             f"known: {sorted(PROTOCOL_BUILDERS)}")
        if self.measure not in MEASURES:
            raise SweepError(f"unknown measure {self.measure!r}; "
                             f"known: {sorted(MEASURES)}")
        # "game"/"protocol" axis or base entries override the spec-level
        # defaults per point (see kernels.run_point) — validate them here so
        # a typo fails before any point executes.
        for field_name, registry in (("game", GAME_BUILDERS),
                                     ("protocol", PROTOCOL_BUILDERS)):
            overrides = list(self.axes.get(field_name, []))
            if field_name in self.base:
                overrides.append(self.base[field_name])
            for value in overrides:
                if value not in registry:
                    raise SweepError(
                        f"unknown {field_name} override {value!r}; "
                        f"known: {sorted(registry)}"
                    )
        if not self.axes:
            raise SweepError("a sweep needs at least one axis")
        for axis, values in self.axes.items():
            if not values:
                raise SweepError(f"axis {axis!r} has no values")
            # Duplicate values collapse to one point_key, which would make
            # a stored sweep lose rows on resume.
            if len({canonical_json(value) for value in values}) != len(values):
                raise SweepError(f"axis {axis!r} has duplicate values")
        if self.replicas <= 0:
            raise SweepError("replicas must be positive")
        if self.max_rounds <= 0:
            raise SweepError("max_rounds must be positive")
        from ..engines import validate_engine

        validate_engine(self.engine, context=f"sweep {self.name!r}")

    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Size of the expanded grid."""
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def expand(self) -> list[SweepPoint]:
        """The full grid in deterministic order (last axis fastest)."""
        names = list(self.axes)
        points: list[SweepPoint] = []
        for index, combo in enumerate(itertools.product(*self.axes.values())):
            params = dict(self.base)
            params.update(zip(names, combo))
            points.append(SweepPoint(index=index, params=params,
                                     key=point_key(params)))
        return points

    def point_seed_sequences(self) -> list[np.random.SeedSequence]:
        """One independent seed sequence per point, by expansion index.

        Derived from ``self.seed`` alone, so a point's randomness does not
        depend on which shard or worker process executes it.
        """
        return spawn_seed_sequences(self.seed, self.num_points)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serialisable, crosses process boundaries)."""
        return {
            "name": self.name,
            "game": self.game,
            "protocol": self.protocol,
            "measure": self.measure,
            "axes": {name: list(values) for name, values in self.axes.items()},
            "base": dict(self.base),
            "replicas": self.replicas,
            "max_rounds": self.max_rounds,
            "seed": self.seed,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        if not isinstance(payload, Mapping):
            raise SweepError("a sweep spec must be a JSON object / mapping, "
                             f"got {type(payload).__name__}")
        known = {"name", "game", "protocol", "measure", "axes", "base",
                 "replicas", "max_rounds", "seed", "engine"}
        unknown = set(payload) - known
        if unknown:
            raise SweepError(f"unknown SweepSpec field(s) {sorted(unknown)}; "
                             f"known: {sorted(known)}")
        if "name" not in payload:
            raise SweepError("a sweep spec needs a 'name'")
        try:
            return cls(**{key: payload[key] for key in payload})
        except (TypeError, ValueError) as error:
            raise SweepError(f"invalid sweep spec: {error}") from error

    def to_json(self) -> str:
        """JSON form — the wire format of the sweep service.

        ``SweepSpec.from_json(spec.to_json())`` reconstructs an equal spec
        with the same :meth:`content_hash` (the round-trip the service
        relies on when specs are submitted over HTTP).

        Deliberately *not* sorted-key canonical JSON: the declaration
        order of ``axes`` is semantic (it fixes the point-index → seed
        assignment, see :meth:`content_hash`), and ``json.loads`` preserves
        object order — so the wire format must too.  Two specs differing
        only in axis order serialize differently, exactly as they hash
        differently.
        """
        return json.dumps(self.to_dict(), separators=(",", ":"))  # lint: disable=HASH001 -- wire format preserves axis order; content_hash uses canonical_json

    @classmethod
    def from_json(cls, text: str | bytes) -> "SweepSpec":
        """Inverse of :meth:`to_json` (unknown fields rejected by name)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SweepError(f"sweep spec is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    def content_hash(self) -> str:
        """Digest of the spec plus :data:`CODE_VERSION` (the store key).

        The axis declaration order enters the digest explicitly (canonical
        JSON sorts keys): it determines the point-index → seed assignment,
        so reordering axes must not hit the old run's cache.
        """
        return _digest(canonical_json({"spec": self.to_dict(),
                                       "axis_order": list(self.axes),
                                       "code_version": CODE_VERSION}))

    def slug(self) -> str:
        """Filesystem-friendly name used for the store directory."""
        clean = re.sub(r"[^A-Za-z0-9._-]+", "-", self.name).strip("-") or "sweep"
        return f"{clean}-{self.content_hash()}"
