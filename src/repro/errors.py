"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch one base class.  Sub-classes are grouped by subsystem: geometry, chip
construction, reconfiguration, fluidics and assay execution.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GeometryError",
    "ChipError",
    "DesignError",
    "FaultModelError",
    "CriterionError",
    "ReconfigurationError",
    "IrreparableChipError",
    "FluidicsError",
    "IllegalMoveError",
    "ConstraintViolationError",
    "RoutingError",
    "SchedulingError",
    "AssayError",
    "SimulationError",
    "StoreError",
    "UnitFailure",
    "ExperimentError",
    "ArtifactError",
    "ServeError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GeometryError(ReproError):
    """Invalid coordinate, region or lattice operation."""


class ChipError(ReproError):
    """Invalid biochip construction or query (unknown cell, bad role...)."""


class DesignError(ChipError):
    """A redundancy architecture was requested or verified incorrectly."""


class FaultModelError(ReproError):
    """Invalid fault specification or injection parameters."""


class CriterionError(ReproError):
    """Invalid functional success-criterion specification or placement."""


class ReconfigurationError(ReproError):
    """A reconfiguration plan could not be built or validated."""


class IrreparableChipError(ReconfigurationError):
    """The fault map cannot be tolerated by local reconfiguration.

    Raised by APIs that *require* a full repair; estimation APIs instead
    report failures as part of their statistics.
    """


class FluidicsError(ReproError):
    """Base class for droplet-level simulation errors."""


class IllegalMoveError(FluidicsError):
    """A droplet was asked to move to a non-adjacent or unusable cell."""


class ConstraintViolationError(FluidicsError):
    """A microfluidic (static/dynamic) spacing constraint was violated."""


class RoutingError(FluidicsError):
    """No route exists between the requested cells."""


class SchedulingError(FluidicsError):
    """An assay operation graph could not be scheduled."""


class AssayError(ReproError):
    """A bioassay could not be completed on the given chip."""


class SimulationError(ReproError):
    """Monte-Carlo or kinetics simulation was configured incorrectly."""


class UnitFailure(SimulationError):
    """A compute unit failed permanently despite the retry policy.

    Raised by :class:`~repro.yieldsim.resilience.UnitRunner` once a unit
    has exhausted its bounded attempts (or a broken process pool its
    rebuild budget); the original cause rides along as ``__cause__``.
    """


class StoreError(SimulationError):
    """A cache store was misconfigured or a transport call failed.

    Raised by :mod:`repro.yieldsim.cachestore` implementations; on the
    engine's read/write path the point cache absorbs it (a remote
    failure degrades to a cache miss plus a logged incident), so it only
    propagates for configuration errors or direct store use.
    """


class ExperimentError(ReproError):
    """An experiment was registered or dispatched incorrectly."""


class ArtifactError(ExperimentError):
    """An artifact run directory or manifest could not be written."""


class ServeError(ExperimentError):
    """A serving request was malformed or cannot be satisfied.

    Raised by :mod:`repro.serve` for protocol violations (bad JSON, an
    unknown design or experiment, an out-of-bounds budget); the HTTP
    layer maps it to a 4xx response instead of a traceback.
    """
