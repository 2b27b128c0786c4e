"""Pluggable spatial defect models for the Monte-Carlo yield engine.

The paper's yield claims rest on the assumption that cell failures are
independent ("valid for random and small spot defects").  The defect
literature it cites (Koren & Koren) is largely about when that assumption
*breaks*: real processes produce clustered spot defects, chip-to-chip rate
variation (Stapper's negative-binomial statistics) and systematic
center-to-edge gradients.  This module makes the failure-map distribution a
first-class, pluggable axis of every sweep:

* :class:`DefectModel` — the base: a named, parameterized, digestable
  model with one vectorized ``sample_batch(geometry, n_runs, rng)`` that
  returns a boolean ``(runs, cells)`` survival matrix.  The engine treats
  models as opaque: any subclass can ride every sweep, cache and manifest.
* :class:`IIDBernoulli` — the paper's assumption; draw-for-draw identical
  to the historical engine stream, so swapping it in changes nothing.
* :class:`FixedCount` — exactly-m-fault maps (the Figure 13 regime).
* :class:`SpotDefects` — compound-Poisson spot defects: centers land
  uniformly and kill every cell within a lattice radius.  With
  ``rate_cap`` set, sampling uses a thinned common Poisson process so
  fault sets are *nested* across rates at equal seed — the CRN
  construction behind monotone severity sweeps.
* :class:`NegativeBinomialClustered` — Stapper-style rate mixing: each
  run draws its own failure rate from a Gamma(alpha) mixture, so fault
  counts are negative-binomially distributed across chips.
* :class:`RadialGradient` — a deterministic center-to-edge survival ramp,
  modelling wafer-scale process gradients.

:class:`DefectGeometry` carries the spatial facts a model may need (cell
positions, lattice adjacency, radius-r kill balls), precomputed once per
chip and shared by every model.  :func:`family_from_spec` parses the CLI's
``--defect-model NAME[:k=v,...]`` syntax into a p-indexed model family for
the survival sweeps.

Sampling draws only from the ``numpy.random.Generator`` passed in, so the
kernel's batching/seed discipline (and therefore the engine's
serial == parallel == sharded bit-identity) applies to every model.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import (
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Tuple,
)

import numpy as np

from repro.chip.biochip import Biochip
from repro.errors import FaultModelError
from repro.geometry.hex import Hex, axial_to_pixel
from repro.geometry.square import Square
from repro.specs import Plugin, require_keys, split_spec

__all__ = [
    "DefectModel",
    "DefectGeometry",
    "IIDBernoulli",
    "FixedCount",
    "SpotDefects",
    "NegativeBinomialClustered",
    "RadialGradient",
    "fixed_fault_alive",
    "geometry_for",
    "ModelFamily",
    "family_from_spec",
    "available_families",
]


# -- geometry -----------------------------------------------------------------

class DefectGeometry:
    """Spatial facts of one chip, shared by every defect model.

    Holds the sorted cell order (identical to :attr:`Biochip.coords` and
    therefore to the survival-matrix column order everywhere else), the
    lattice adjacency restricted to the array, and Cartesian cell centers.
    Everything beyond the cell count is derived lazily and cached (kill
    balls per radius, adjacency, positions), so non-spatial models —
    which only read ``n_cells`` — pay nothing, and chips with coordinate
    types that have no Cartesian embedding still simulate fine under
    them.

    Build via :func:`geometry_for` (one cached instance per chip) or
    :meth:`from_chip`.
    """

    def __init__(self, chip: Biochip):
        # Only the coordinates, never the chip: :func:`geometry_for` keys
        # its weak map on the chip, and a strong reference from the value
        # would keep every chip alive.
        self._coords = chip.coords
        self.n_cells = len(self._coords)
        self._neighbor_lists: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._xy: Optional[np.ndarray] = None
        self._balls: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._radial_t: Optional[np.ndarray] = None

    @classmethod
    def from_chip(cls, chip: Biochip) -> "DefectGeometry":
        return cls(chip)

    @property
    def neighbor_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Adjacency as index lists, aligned with the sorted cell order."""
        if self._neighbor_lists is None:
            coords = self._coords
            index = {c: i for i, c in enumerate(coords)}
            self._neighbor_lists = tuple(
                tuple(index[n] for n in c.neighbors() if n in index) for c in coords
            )
        return self._neighbor_lists

    @property
    def xy(self) -> np.ndarray:
        """(n_cells, 2) Cartesian cell centers ("pointy-top" for hex)."""
        if self._xy is None:
            coords = self._coords
            xy = np.empty((self.n_cells, 2), dtype=np.float64)
            for i, coord in enumerate(coords):
                if isinstance(coord, Hex):
                    xy[i] = axial_to_pixel(coord)
                elif isinstance(coord, Square):
                    xy[i] = (float(coord.x), float(coord.y))
                else:
                    raise FaultModelError(
                        f"cannot derive a position for coordinate type "
                        f"{type(coord).__name__}"
                    )
            self._xy = xy
        return self._xy

    # -- kill balls -----------------------------------------------------------
    def ball(self, radius: int) -> Tuple[np.ndarray, np.ndarray]:
        """Padded ``(idx, mask)`` of the cells within ``radius`` of each cell.

        Row c lists the on-chip cells at lattice distance <= radius of cell
        c (BFS over array adjacency — exactly the footprint a
        :class:`SpotDefects` center kills), padded with zeros where
        ``mask`` is False.  Membership is symmetric, so a row is equally
        "the centers whose spot covers cell c".
        """
        if radius < 0:
            raise FaultModelError(f"spot radius must be >= 0, got {radius}")
        cached = self._balls.get(radius)
        if cached is not None:
            return cached
        balls: List[List[int]] = []
        for start in range(self.n_cells):
            frontier = [start]
            seen = {start}
            for _ in range(radius):
                if not frontier:  # the whole component is in: stop early
                    break
                nxt: List[int] = []
                for cell in frontier:
                    for nb in self.neighbor_lists[cell]:
                        if nb not in seen:
                            seen.add(nb)
                            nxt.append(nb)
                frontier = nxt
            balls.append(sorted(seen))
        width = max(len(b) for b in balls)
        idx = np.zeros((self.n_cells, width), dtype=np.int32)
        mask = np.zeros((self.n_cells, width), dtype=bool)
        for c, cells in enumerate(balls):
            idx[c, : len(cells)] = cells
            mask[c, : len(cells)] = True
        self._balls[radius] = (idx, mask)
        return idx, mask

    def ball_sizes(self, radius: int) -> np.ndarray:
        """Number of on-chip cells each radius-r spot kills, per center."""
        _, mask = self.ball(radius)
        return mask.sum(axis=1)

    # -- radial position ------------------------------------------------------
    @property
    def radial_t(self) -> np.ndarray:
        """Normalized distance from the chip centroid: 0 center, 1 edge."""
        if self._radial_t is None:
            delta = self.xy - self.xy.mean(axis=0)
            dist = np.hypot(delta[:, 0], delta[:, 1])
            peak = dist.max()
            self._radial_t = dist / peak if peak > 0 else dist
        return self._radial_t


#: One geometry per chip; weak keys so chips die normally.
_GEOMETRIES: "weakref.WeakKeyDictionary[Biochip, DefectGeometry]" = (
    weakref.WeakKeyDictionary()
)


def geometry_for(chip: Biochip) -> DefectGeometry:
    """The cached :class:`DefectGeometry` of ``chip`` (built on first use)."""
    geom = _GEOMETRIES.get(chip)
    if geom is None:
        geom = DefectGeometry(chip)
        _GEOMETRIES[chip] = geom
    return geom


# -- the base -----------------------------------------------------------------

class DefectModel(Plugin):
    """What the kernel/engine/sweeps require of a failure-map distribution.

    Implementations are small frozen dataclasses, so they are hashable,
    picklable (they travel to engine worker processes inside
    :class:`~repro.yieldsim.kernel.PointSpec`) and cheap to rebuild.
    ``validate`` raises :class:`FaultModelError` for a chip it cannot target.

    ``sample_batch`` must draw only from the Generator it is given and
    must consume a stream that depends on its parameters alone — never on
    prior batches — so the kernel's batch loop defines the stream and the
    engine's bit-identity contract extends to every model.

    Models whose sampling is monotone in their severity parameter at a
    common stream (``IIDBernoulli`` in p, ``FixedCount`` in m,
    ``NegativeBinomialClustered`` in p, ``RadialGradient`` in its levels,
    ``SpotDefects`` in rate *when rate_cap is set*) support common-random-
    number sweeps: sampled at the same seed, their fault sets are nested
    across the severity grid, which makes sweep curves monotone by
    construction (see :func:`repro.yieldsim.sweeps.defect_model_sweep`).
    """

    kind: ClassVar[str] = "model"

    def describe(self) -> str:
        """``name(k=v, ...)``, the label reports print."""
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{self.name}({inner})"

    @property
    def severity(self) -> float:  # pragma: no cover - overridden
        """Headline scalar for reports and point records."""
        raise NotImplementedError

    def sample_batch(
        self,
        geometry: DefectGeometry,
        n_runs: int,
        rng: np.random.Generator,
        dtype: type = np.float32,
    ) -> np.ndarray:  # pragma: no cover - overridden
        """Boolean ``(n_runs, n_cells)`` survival matrix (True = alive)."""
        raise NotImplementedError


# -- concrete models ----------------------------------------------------------

@dataclass(frozen=True)
class IIDBernoulli(DefectModel):
    """Independent per-cell survival with probability p — the paper's model.

    Draw-for-draw identical to the historical engine stream
    (``rng.random((runs, cells), dtype) < p``), so a sweep under this model
    at a fixed seed is bit-identical to the pre-model engine output.
    """

    p: float

    name: ClassVar[str] = "iid"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise FaultModelError(
                f"survival probability must be in [0, 1], got {self.p}"
            )

    @property
    def severity(self) -> float:
        return self.p

    def params(self) -> Dict[str, object]:
        return {"p": self.p}

    def sample_batch(
        self,
        geometry: DefectGeometry,
        n_runs: int,
        rng: np.random.Generator,
        dtype: type = np.float32,
    ) -> np.ndarray:
        return rng.random((n_runs, geometry.n_cells), dtype=dtype) < self.p


def fixed_fault_alive(
    rng: np.random.Generator, n_cells: int, m: int, size: int
) -> np.ndarray:
    """Boolean ``(size, n_cells)`` survival matrix with exactly m faults/run.

    Draws a uniform random m-subset per run by taking the m smallest of
    ``n_cells`` i.i.d. uniforms (argpartition) — one vectorized draw for
    the whole batch instead of ``size`` Python-level ``rng.choice`` calls.
    """
    alive = np.ones((size, n_cells), dtype=bool)
    if m == 0:
        return alive
    if m >= n_cells:
        alive[:] = False
        return alive
    u = rng.random((size, n_cells))
    faults = np.argpartition(u, m, axis=1)[:, :m]
    alive[np.arange(size)[:, None], faults] = False
    return alive


@dataclass(frozen=True)
class FixedCount(DefectModel):
    """Exactly ``m`` faulty cells, uniformly without replacement (Fig. 13).

    Sampled at a common seed, the fault sets are nested across m (the
    m smallest of one shared uniform ranking), which is what makes
    defect-count sweeps monotone by construction.
    """

    m: int

    name: ClassVar[str] = "fixed"

    def __post_init__(self) -> None:
        if self.m < 0:
            raise FaultModelError(f"fault count must be >= 0, got {self.m}")

    @property
    def severity(self) -> float:
        return float(self.m)

    def params(self) -> Dict[str, object]:
        return {"m": self.m}

    def validate(self, n_cells: int) -> None:
        if self.m > n_cells:
            raise FaultModelError(
                f"cannot place {self.m} faults on {n_cells} cells"
            )

    def sample_batch(
        self,
        geometry: DefectGeometry,
        n_runs: int,
        rng: np.random.Generator,
        dtype: type = np.float32,
    ) -> np.ndarray:
        self.validate(geometry.n_cells)
        return fixed_fault_alive(rng, geometry.n_cells, self.m, n_runs)


@dataclass(frozen=True)
class SpotDefects(DefectModel):
    """Compound-Poisson spot defects: centers kill everything in a radius.

    ``rate`` is the expected number of defect centers *per cell* (so a
    chip of C cells sees Poisson(rate * C) centers per run); each center
    lands on a uniformly random cell and kills every cell within lattice
    distance ``radius`` — the spatial model behind "larger particles" in
    the Koren & Koren taxonomy, and the regime where the paper's
    independence assumption is explicitly out of scope.

    ``rate_cap`` opts into the common-random-number construction: centers
    are drawn from one Poisson process at ``rate_cap`` and thinned to
    ``rate``, so two models sharing a cap and a seed produce *nested*
    fault sets (the lower rate's spots are a subset of the higher's).
    The marginal distribution is exactly the uncapped model's; only the
    stream layout changes.  Use :meth:`family` to build a capped,
    severity-ordered model list for a monotone sweep.
    """

    rate: float
    radius: int = 1
    rate_cap: Optional[float] = None

    name: ClassVar[str] = "spot"

    def __post_init__(self) -> None:
        if not 0 <= self.rate < math.inf:
            raise FaultModelError(
                f"defect rate must be finite and >= 0, got {self.rate}"
            )
        if self.radius < 0:
            raise FaultModelError(f"spot radius must be >= 0, got {self.radius}")
        if self.rate_cap is not None and self.rate_cap < self.rate:
            raise FaultModelError(
                f"rate_cap ({self.rate_cap}) must be >= rate ({self.rate})"
            )

    @property
    def severity(self) -> float:
        return self.rate

    def params(self) -> Dict[str, object]:
        return {"rate": self.rate, "radius": self.radius, "rate_cap": self.rate_cap}

    def sample_centers(
        self, geometry: DefectGeometry, n_runs: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(run_ids, centers)`` of the active defect centers of a batch.

        :meth:`sample_batch` scatters these into a survival matrix.  With
        ``rate_cap`` set, the stream depends only on (cap, chip), and a
        center is active iff its thinning mark falls below
        ``rate / rate_cap`` — nested across rates by construction.
        """
        base = self.rate if self.rate_cap is None else self.rate_cap
        counts = rng.poisson(base * geometry.n_cells, size=n_runs)
        total = int(counts.sum())
        run_ids = np.repeat(np.arange(n_runs, dtype=np.int64), counts)
        centers = rng.integers(0, geometry.n_cells, size=total, dtype=np.int64)
        if self.rate_cap is not None:
            marks = rng.random(total)
            keep = marks * self.rate_cap < self.rate
            run_ids, centers = run_ids[keep], centers[keep]
        return run_ids, centers

    def sample_batch(
        self,
        geometry: DefectGeometry,
        n_runs: int,
        rng: np.random.Generator,
        dtype: type = np.float32,
    ) -> np.ndarray:
        n = geometry.n_cells
        alive = np.ones((n_runs, n), dtype=bool)
        run_ids, centers = self.sample_centers(geometry, n_runs, rng)
        if run_ids.size:
            idx, mask = geometry.ball(self.radius)
            cells = idx[centers]
            flat = run_ids[:, None] * n + cells
            alive.reshape(-1)[flat[mask[centers]]] = False
        return alive

    # -- severity calibration -------------------------------------------------
    def cell_death_probabilities(self, geometry: DefectGeometry) -> np.ndarray:
        """Exact per-cell death probability: 1 - exp(-rate * |ball(c)|).

        Cell c dies iff at least one center lands within ``radius`` of it;
        ball membership is symmetric, so the number of such centers is
        Poisson with mean ``rate * |ball(c)|``.
        """
        return 1.0 - np.exp(-self.rate * geometry.ball_sizes(self.radius))

    def mean_kill_fraction(self, geometry: DefectGeometry) -> float:
        """Expected fraction of dead cells per run on this chip."""
        return float(self.cell_death_probabilities(geometry).mean())

    @classmethod
    def calibrate(
        cls,
        geometry: DefectGeometry,
        kill_fraction: float,
        radius: int = 1,
        rate_cap: Optional[float] = None,
    ) -> "SpotDefects":
        """The spot model whose mean kill fraction equals ``kill_fraction``.

        This is how clustered scenarios match an i.i.d. model's severity:
        ``calibrate(geom, 1 - p)`` kills the same expected number of cells
        as ``IIDBernoulli(p)``, concentrating them in spots.  Solved by
        bisection on the closed-form mean (deterministic, no sampling).
        """
        if not 0.0 <= kill_fraction < 1.0:
            raise FaultModelError(
                f"kill fraction must be in [0, 1), got {kill_fraction}"
            )
        if kill_fraction == 0.0:
            return cls(0.0, radius, rate_cap)
        sizes = geometry.ball_sizes(radius)

        def mean_kill(rate: float) -> float:
            return float((1.0 - np.exp(-rate * sizes)).mean())

        hi = 1.0 / float(sizes.mean())
        while mean_kill(hi) < kill_fraction:
            hi *= 2.0
        lo = 0.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if mean_kill(mid) < kill_fraction:
                lo = mid
            else:
                hi = mid
        return cls(hi, radius, rate_cap)

    @classmethod
    def family(
        cls,
        geometry: DefectGeometry,
        kill_fractions: Tuple[float, ...],
        radius: int = 1,
    ) -> List["SpotDefects"]:
        """Severity-calibrated models sharing one CRN ``rate_cap``.

        Sampled at a common seed (as ``defect_model_sweep`` does), the
        returned models' fault sets are nested across the grid, so the
        yield curve is monotone by construction.
        """
        plain = [cls.calibrate(geometry, k, radius) for k in kill_fractions]
        cap = max(model.rate for model in plain) if plain else 0.0
        return [cls(model.rate, radius, rate_cap=cap) for model in plain]


@dataclass(frozen=True)
class NegativeBinomialClustered(DefectModel):
    """Stapper-style rate mixing: each run draws its own failure rate.

    The per-run failure rate is ``Gamma(alpha, q/alpha)`` (mean ``q = 1-p``,
    clipped at 1), and cells then fail independently at that rate, so the
    per-chip fault count is (approximately, exactly for an infinite chip)
    negative-binomially distributed — the classic large-area clustering
    statistics.  ``alpha -> inf`` recovers :class:`IIDBernoulli`; small
    ``alpha`` concentrates the same expected faults on few unlucky chips.
    """

    p: float
    alpha: float = 2.0

    name: ClassVar[str] = "negbin"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise FaultModelError(
                f"survival probability must be in [0, 1], got {self.p}"
            )
        if not 0 < self.alpha < math.inf:
            raise FaultModelError(
                f"dispersion alpha must be finite and > 0, got {self.alpha}"
            )

    @property
    def severity(self) -> float:
        return self.p

    def params(self) -> Dict[str, object]:
        return {"p": self.p, "alpha": self.alpha}

    def sample_batch(
        self,
        geometry: DefectGeometry,
        n_runs: int,
        rng: np.random.Generator,
        dtype: type = np.float32,
    ) -> np.ndarray:
        # Gamma shape (and therefore stream consumption) depends only on
        # alpha, so models differing only in p share a stream at equal
        # seed and their fault sets are nested across p (CRN).
        mix = rng.standard_gamma(self.alpha, size=n_runs)
        q = np.minimum(mix * ((1.0 - self.p) / self.alpha), 1.0)
        u = rng.random((n_runs, geometry.n_cells), dtype=dtype)
        return u >= q[:, None]


@dataclass(frozen=True)
class RadialGradient(DefectModel):
    """Center-to-edge survival ramp: wafer-scale process gradients.

    Cell survival interpolates from ``p_center`` at the chip centroid to
    ``p_edge`` at the outermost cell along normalized radial distance
    raised to ``power``; cells then fail independently at their own rate.
    Spatially *systematic* rather than random: edge rings are reliably
    worse, which stresses boundary spares specifically.
    """

    p_center: float
    p_edge: float
    power: float = 1.0

    name: ClassVar[str] = "gradient"

    def __post_init__(self) -> None:
        for label, value in (("p_center", self.p_center), ("p_edge", self.p_edge)):
            if not 0.0 <= value <= 1.0:
                raise FaultModelError(
                    f"{label} must be in [0, 1], got {value}"
                )
        if not self.power > 0:
            raise FaultModelError(f"gradient power must be > 0, got {self.power}")

    @property
    def severity(self) -> float:
        return (self.p_center + self.p_edge) / 2.0

    def params(self) -> Dict[str, object]:
        return {
            "p_center": self.p_center,
            "p_edge": self.p_edge,
            "power": self.power,
        }

    def survival_vector(self, geometry: DefectGeometry) -> np.ndarray:
        """Per-cell survival probability along the ramp."""
        t = geometry.radial_t ** self.power
        return self.p_center + (self.p_edge - self.p_center) * t

    def mean_survival(self, geometry: DefectGeometry) -> float:
        return float(self.survival_vector(geometry).mean())

    def sample_batch(
        self,
        geometry: DefectGeometry,
        n_runs: int,
        rng: np.random.Generator,
        dtype: type = np.float32,
    ) -> np.ndarray:
        pvec = self.survival_vector(geometry).astype(np.float64)
        u = rng.random((n_runs, geometry.n_cells), dtype=dtype)
        return u < pvec[None, :]

    @classmethod
    def calibrate(
        cls,
        geometry: DefectGeometry,
        mean_p: float,
        spread: float,
        power: float = 1.0,
    ) -> "RadialGradient":
        """The ramp with mean cell survival exactly ``mean_p``.

        ``spread`` is the requested ``p_center - p_edge`` drop; it is
        clamped so both endpoints stay in [0, 1] (at ``mean_p == 1`` the
        ramp degenerates to i.i.d. — a perfect process has no gradient).
        """
        if not 0.0 <= mean_p <= 1.0:
            raise FaultModelError(
                f"mean survival must be in [0, 1], got {mean_p}"
            )
        if not 0 <= spread < math.inf:
            raise FaultModelError(
                f"gradient spread must be finite and >= 0, got {spread}"
            )
        t_mean = float((geometry.radial_t ** power).mean())
        # mean = p_center - spread * t_mean; clamp spread into the box.
        limit = spread
        if t_mean > 0:
            limit = min(limit, (1.0 - mean_p) / t_mean)
        if t_mean < 1:
            limit = min(limit, mean_p / (1.0 - t_mean))
        limit = max(0.0, limit)
        p_center = mean_p + limit * t_mean
        return cls(min(p_center, 1.0), max(p_center - limit, 0.0), power)


# -- CLI model families -------------------------------------------------------

@dataclass(frozen=True)
class ModelFamily:
    """A p-indexed family of defect models for survival-style sweeps.

    Calling the family with ``(chip, p)`` builds the model that plays the
    role of "i.i.d. survival at p" under this spatial regime — calibrated
    per chip where the model needs geometry.  This is what
    ``survival_sweep(model=...)`` and the CLI's ``--defect-model`` pass
    around.
    """

    name: str
    spec: str
    build: Callable[[Biochip, float], "DefectModel"]

    def __call__(self, chip: Biochip, p: float) -> "DefectModel":
        return self.build(chip, p)


def _build_iid(params: Dict[str, float]) -> Callable[[Biochip, float], DefectModel]:
    return lambda chip, p: IIDBernoulli(p)


def _build_spot(params: Dict[str, float]) -> Callable[[Biochip, float], DefectModel]:
    raw = params.get("radius", 1)
    if raw != int(raw):
        raise FaultModelError(
            f"spot radius must be a whole number of lattice steps, got {raw}"
        )
    radius = int(raw)

    def build(chip: Biochip, p: float) -> DefectModel:
        if not 0.0 < p <= 1.0:
            raise FaultModelError(
                f"spot calibration needs survival p in (0, 1], got {p}"
            )
        return SpotDefects.calibrate(geometry_for(chip), 1.0 - p, radius)

    return build


def _build_negbin(params: Dict[str, float]) -> Callable[[Biochip, float], DefectModel]:
    alpha = params.get("alpha", 2.0)
    return lambda chip, p: NegativeBinomialClustered(p, alpha)


def _build_gradient(
    params: Dict[str, float],
) -> Callable[[Biochip, float], DefectModel]:
    spread = params.get("spread", 0.05)
    power = params.get("power", 1.0)
    return lambda chip, p: RadialGradient.calibrate(
        geometry_for(chip), p, spread, power
    )


#: name -> (accepted parameter keys, builder)
_FAMILIES = {
    "iid": ((), _build_iid),
    "spot": (("radius",), _build_spot),
    "negbin": (("alpha",), _build_negbin),
    "gradient": (("spread", "power"), _build_gradient),
}


def available_families() -> Tuple[str, ...]:
    """The family names ``--defect-model`` accepts."""
    return tuple(sorted(_FAMILIES))


def _finite(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise FaultModelError(
            f"defect-model parameter {key!r} needs a finite numeric value, "
            f"got {value!r}"
        )
    return number


def family_from_spec(spec: str) -> ModelFamily:
    """Parse ``NAME[:k=v,...]`` (the CLI ``--defect-model`` syntax).

    Examples: ``iid``, ``spot``, ``spot:radius=2``, ``negbin:alpha=0.5``,
    ``gradient:spread=0.08,power=2``.  Every value must be a finite
    number.  The family maps each sweep survival probability p to a
    model of matched severity (spot models are calibrated per chip to
    kill ``1 - p`` of cells in expectation; gradients ramp around a mean
    of p).
    """
    name, raw = split_spec(spec, FaultModelError, "defect-model")
    entry = _FAMILIES.get(name)
    if entry is None:
        raise FaultModelError(
            f"unknown defect model {name!r} "
            f"(available: {', '.join(available_families())})"
        )
    allowed, builder = entry
    require_keys(name, raw, allowed, FaultModelError, "defect model")
    params = {key: _finite(key, value) for key, value in raw.items()}
    return ModelFamily(name=name, spec=spec.strip(), build=builder(params))
