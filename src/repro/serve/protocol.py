"""Request/response dataclasses for ``repro serve``.

One schema end to end: the registry listing served by ``GET /experiments``
is exactly :func:`repro.experiments.registry.listing` (what ``repro list
--json`` prints), bundle responses are
:func:`repro.experiments.artifacts.bundle_payload` (digest-compatible with
``manifest.json``), and point requests resolve to the engine's own
:class:`~repro.yieldsim.scheduler.EnginePoint` — whose cache key is the
coalescing identity.

Validation happens here, eagerly, so the HTTP layer can turn any
:class:`~repro.errors.ServeError` into a clean 4xx response before a
single Monte-Carlo run is spent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional

from repro.errors import ReproError, ServeError
from repro.experiments import registry
from repro.yieldsim.stats import StopRule

__all__ = [
    "PROTOCOL_SCHEMA",
    "PointRequest",
    "BundleRequest",
    "experiment_listing",
    "error_payload",
]

#: Version of the serve wire format.  Bumped together with
#: :data:`repro.experiments.registry.REGISTRY_SCHEMA` when shapes change.
PROTOCOL_SCHEMA = 1

#: Fault regimes a point request may name.
_POINT_KINDS = ("survival", "fixed")


def _require(data: Mapping[str, object], key: str) -> object:
    if key not in data:
        raise ServeError(f"request is missing required field {key!r}")
    return data[key]


def _as_int(value: object, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"{name} must be an integer, got {value!r}")
    return value


def _as_number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_optional_str(value: object, name: str) -> Optional[str]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ServeError(f"{name} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class PointRequest:
    """``POST /points``: one sweep point, addressed by content.

    The chip is named either by catalog design (``design`` + ``n``
    primaries — the server builds and memoizes it) or by ``chip_digest``
    (a chip payload digest the server has already seen; responses always
    include it, so a client can switch to digest addressing after its
    first request).  ``kind``/``param`` pick the fault regime exactly as
    :class:`~repro.yieldsim.kernel.PointSpec` does; ``defect_model`` is
    the CLI's ``NAME[:k=v,...]`` family syntax, and ``criterion`` the
    CLI's success-criterion syntax (``routing:assay=glucose,deadline=200``
    — see :mod:`repro.functional`).  ``adaptive`` opts into the default
    registered stop rule, re-targeted by ``target_ci``; ``stream`` asks
    for NDJSON per-fold progress instead of a single JSON body.
    """

    kind: str
    param: float
    runs: int
    seed: int
    design: Optional[str] = None
    n: Optional[int] = None
    chip_digest: Optional[str] = None
    defect_model: Optional[str] = None
    criterion: Optional[str] = None
    adaptive: bool = False
    target_ci: Optional[float] = None
    stream: bool = False
    #: ask for a Chrome-trace of this request's computation; the dict
    #: rides the response under "trace" when this request led (null when
    #: it coalesced onto another leader).  Non-streaming only; results
    #: are bit-identical either way.
    trace: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PointRequest":
        if not isinstance(data, Mapping):
            raise ServeError("point request body must be a JSON object")
        known = {
            "kind", "param", "runs", "seed", "design", "n", "chip_digest",
            "defect_model", "criterion", "adaptive", "target_ci", "stream",
            "trace",
        }
        unknown = set(data) - known
        if unknown:
            raise ServeError(f"unknown point request fields: {sorted(unknown)}")
        kind = data.get("kind", "survival")
        if kind not in _POINT_KINDS:
            raise ServeError(
                f"kind must be one of {_POINT_KINDS}, got {kind!r}"
            )
        request = cls(
            kind=kind,
            param=_as_number(_require(data, "param"), "param"),
            runs=_as_int(_require(data, "runs"), "runs"),
            seed=_as_int(data.get("seed", registry.DEFAULT_SEED), "seed"),
            design=_as_optional_str(data.get("design"), "design"),
            n=None if data.get("n") is None else _as_int(data["n"], "n"),
            chip_digest=_as_optional_str(data.get("chip_digest"), "chip_digest"),
            defect_model=_as_optional_str(data.get("defect_model"), "defect_model"),
            criterion=_as_optional_str(data.get("criterion"), "criterion"),
            adaptive=bool(data.get("adaptive", False)),
            target_ci=(
                None if data.get("target_ci") is None
                else _as_number(data["target_ci"], "target_ci")
            ),
            stream=bool(data.get("stream", False)),
            trace=bool(data.get("trace", False)),
        )
        request.validate()
        return request

    def validate(self) -> None:
        if self.runs < 1:
            raise ServeError(f"runs must be >= 1, got {self.runs}")
        if self.seed < 0:
            raise ServeError(f"seed must be >= 0, got {self.seed}")
        if self.design is None and self.chip_digest is None:
            raise ServeError(
                "point request must name a chip: either design (+ n) "
                "or chip_digest"
            )
        if self.design is not None and self.n is None:
            raise ServeError("design requests need n (primary cell count)")
        if self.n is not None and self.n < 1:
            raise ServeError(f"n must be >= 1, got {self.n}")
        if self.target_ci is not None and not self.target_ci > 0:
            raise ServeError(f"target_ci must be > 0, got {self.target_ci}")
        if self.kind == "fixed" and self.defect_model is not None:
            raise ServeError(
                "defect_model applies to survival points only "
                "(fixed-count draws define their own distribution)"
            )

    def stop_rule(self) -> Optional[StopRule]:
        """The adaptive rule this request opts into, or None for flat."""
        if not (self.adaptive or self.target_ci is not None):
            return None
        rule = registry.DEFAULT_STOP_RULE
        if self.target_ci is not None:
            rule = replace(rule, target_half_width=float(self.target_ci))
        return rule


@dataclass(frozen=True)
class BundleRequest:
    """``POST /experiments/{name}``: one full experiment run.

    Mirrors the CLI knobs of ``repro <name>``: budget, seed, adaptive
    stop, defect-model family, success criterion.  The response is the
    bundle :func:`repro.experiments.artifacts.bundle_payload` builds —
    the same rows/report/digest ``repro <name> --out`` would write.
    """

    experiment: str
    runs: int
    seed: int
    adaptive: bool = False
    target_ci: Optional[float] = None
    defect_model: Optional[str] = None
    criterion: Optional[str] = None

    @classmethod
    def from_dict(
        cls, experiment: str, data: Mapping[str, object]
    ) -> "BundleRequest":
        if not isinstance(data, Mapping):
            raise ServeError("experiment request body must be a JSON object")
        known = {
            "runs", "seed", "adaptive", "target_ci", "defect_model",
            "criterion",
        }
        unknown = set(data) - known
        if unknown:
            raise ServeError(
                f"unknown experiment request fields: {sorted(unknown)}"
            )
        request = cls(
            experiment=experiment,
            runs=_as_int(data.get("runs", registry.DEFAULT_CLI_RUNS), "runs"),
            seed=_as_int(data.get("seed", registry.DEFAULT_SEED), "seed"),
            adaptive=bool(data.get("adaptive", False)),
            target_ci=(
                None if data.get("target_ci") is None
                else _as_number(data["target_ci"], "target_ci")
            ),
            defect_model=_as_optional_str(data.get("defect_model"), "defect_model"),
            criterion=_as_optional_str(data.get("criterion"), "criterion"),
        )
        if request.runs < 1:
            raise ServeError(f"runs must be >= 1, got {request.runs}")
        if request.seed < 0:
            raise ServeError(f"seed must be >= 0, got {request.seed}")
        if request.target_ci is not None and not request.target_ci > 0:
            raise ServeError(
                f"target_ci must be > 0, got {request.target_ci}"
            )
        return request

    def identity(self) -> Dict[str, object]:
        """The canonical fields coalescing keys are digested from."""
        identity: Dict[str, object] = {
            "experiment": self.experiment,
            "runs": self.runs,
            "seed": self.seed,
            "adaptive": self.adaptive,
            "target_ci": self.target_ci,
            "defect_model": self.defect_model,
        }
        if self.criterion is not None:
            # Conditional, like the engine's cache-key field: default
            # matching requests keep their historical coalescing keys.
            identity["criterion"] = self.criterion
        return identity


def experiment_listing() -> Dict[str, object]:
    """``GET /experiments``: the shared machine-readable registry."""
    return registry.listing()


def error_payload(exc: BaseException) -> Dict[str, object]:
    """The uniform error body: type + message, nothing leaked."""
    kind = type(exc).__name__ if isinstance(exc, ReproError) else "InternalError"
    return {"error": kind, "message": str(exc)}
