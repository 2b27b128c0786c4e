"""repro: defect-tolerant digital microfluidic biochips.

A from-scratch reproduction of Su, Chakrabarty & Pamula, "Yield Enhancement
of Digital Microfluidics-Based Biochips Using Space Redundancy and Local
Reconfiguration" (DATE 2005).

The library models hexagonal- and square-electrode biochip arrays, the
DTMB(s, p) interstitial-redundancy architectures, fault injection, local
reconfiguration by maximum bipartite matching, analytical and Monte-Carlo
yield estimation, and — as executable substrates — droplet fluidics and
the Trinder-reaction diagnostics panel the paper evaluates on.

Quick start::

    from repro.designs import DTMB_2_6, build_with_primary_count
    from repro.yieldsim import YieldSimulator

    chip = build_with_primary_count(DTMB_2_6, 100).build()
    print(YieldSimulator(chip).run_survival(p=0.95, runs=10_000, seed=1))

See ``examples/`` for full walkthroughs and ``repro.experiments`` for the
drivers that regenerate every table and figure of the paper.

Stable programmatic surface (import from here, not from deep modules)::

    import repro

    repro.list_experiments()             # machine-readable registry
    result = repro.run_experiment("fig9", runs=2000, seed=1)
    engine = repro.get_engine(jobs=4, cache_dir=".cache")

Deep paths keep working — ``repro.SweepEngine`` and friends resolve
lazily — but the names exported in ``__all__`` are the compatibility
contract; everything else may move between modules (as the engine split
into scheduler/executors did).
"""

from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError

__version__ = "1.1.0"

__all__ = [
    "CacheStore",
    "ReproError",
    "SweepEngine",
    "__version__",
    "get_engine",
    "list_experiments",
    "run_experiment",
    "store_from_url",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.registry import ExperimentResult
    from repro.yieldsim.cachestore import CacheStore, store_from_url  # noqa: F401
    from repro.yieldsim.engine import SweepEngine


def get_engine(
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    shard_runs: Optional[int] = None,
    cache_url: Optional[str] = None,
) -> "SweepEngine":
    """A sweep engine with the standard execution knobs.

    The facade over the scheduler/executor split: results are
    bit-identical whatever ``jobs``/``shard_runs`` you pick,
    ``cache_dir`` makes repeated points free, and ``cache_url`` mounts
    a shared :class:`~repro.yieldsim.cachestore.CacheStore` (a path,
    ``file://``, ``http://`` or ``memory://`` URL) behind it.  With
    ``jobs > 1`` the engine keeps one worker pool across calls; release
    it with ``close()`` or use the engine as a context manager.
    """
    from repro.yieldsim.engine import SweepEngine

    store = None
    if cache_url is not None:
        from repro.yieldsim.cachestore import store_from_url

        store = store_from_url(cache_url)
    return SweepEngine(
        jobs=jobs, cache_dir=cache_dir, shard_runs=shard_runs,
        cache_store=store,
    )


def run_experiment(name: str, **kwargs: object) -> "ExperimentResult":
    """Run one registered experiment end to end.

    ``name`` is any name or alias ``repro list`` shows; keyword arguments
    are passed to :func:`repro.experiments.registry.execute` (``runs``,
    ``seed``, ``engine``, ``options``, ``knobs``, ``stop``).
    """
    from repro.experiments import registry

    return registry.execute(name, **kwargs)


def list_experiments() -> dict:
    """The machine-readable experiment registry.

    The same payload ``repro list --json`` prints and ``repro serve``
    answers ``GET /experiments`` with.
    """
    from repro.experiments import registry

    return registry.listing()


#: Deep names resolved lazily so ``import repro`` stays light (no numpy
#: import at startup) while ``repro.SweepEngine`` keeps working.
_LAZY = {
    "SweepEngine": ("repro.yieldsim.engine", "SweepEngine"),
    "CacheStore": ("repro.yieldsim.cachestore", "CacheStore"),
    "store_from_url": ("repro.yieldsim.cachestore", "store_from_url"),
}


def __getattr__(name: str) -> object:
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value
    return value
