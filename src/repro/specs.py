"""One vocabulary for the engine's plug-ins: spec strings and identities.

A Monte-Carlo point asks two pluggable questions of each sampled chip:
how its cells fail (a defect model, :mod:`repro.yieldsim.defects`) and
whether the repaired chip still works (a success criterion,
:mod:`repro.functional.criteria`).  Both kinds are spelled
``NAME[:k=v,...]`` on the CLI and in serving requests, and both carry a
short content digest that enters cache keys and manifest provenance; the
grammar, the digest and the shared base class live here (stdlib only).
"""

from __future__ import annotations

import hashlib
import json
from typing import ClassVar, Dict, Mapping, Tuple, Type

__all__ = ["Plugin", "require_keys", "short_digest", "split_spec"]


def split_spec(
    spec: str, error: Type[Exception], what: str
) -> Tuple[str, Dict[str, str]]:
    """``(lower-cased name, {key: string value})`` of a ``NAME[:k=v,...]`` spec.

    A parameter without ``=`` or with an empty key raises ``error``;
    ``what`` names the plug-in kind in the message.
    """
    name, _, tail = spec.strip().partition(":")
    params: Dict[str, str] = {}
    if tail.strip():
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            if not eq or not key.strip():
                raise error(f"malformed {what} parameter {item!r} (expected k=v)")
            params[key.strip()] = value.strip()
    return name.strip().lower(), params


def require_keys(
    name: str,
    params: Mapping[str, object],
    allowed: Tuple[str, ...],
    error: Type[Exception],
    what: str,
) -> None:
    """Raise ``error`` if ``params`` holds a key outside ``allowed``."""
    unknown = set(params) - set(allowed)
    if unknown:
        raise error(
            f"unknown parameter(s) {sorted(unknown)} for {what} "
            f"{name!r} (accepts: {sorted(allowed) or 'none'})"
        )


def short_digest(ident: Mapping[str, object]) -> str:
    """First 16 hex characters of SHA-256 over canonical JSON of ``ident``.

    Short on purpose: engine cache keys re-hash the whole point identity,
    and manifests list one entry per plug-in, so 64 bits keeps them
    collision-safe *and* small.
    """
    blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


class Plugin:
    """Base of both plug-in kinds.

    :class:`~repro.yieldsim.defects.DefectModel` and
    :class:`~repro.functional.criteria.SuccessCriterion` set ``kind`` (the
    digest key, ``"model"`` or ``"criterion"``); each concrete plug-in
    sets ``name`` and returns its parameters from :meth:`params`.
    """

    kind: ClassVar[str] = "?"
    name: ClassVar[str] = "?"

    def params(self) -> Dict[str, object]:  # pragma: no cover - overridden
        raise NotImplementedError

    def digest(self) -> str:
        """Stable content digest of (kind, name, params) — the cache identity."""
        return short_digest({self.kind: self.name, "params": dict(self.params())})

    def validate(self, n_cells: int) -> None:
        """Most plug-ins fit any chip; subclasses tighten this."""
