"""Seeded manufacturing-fault draws for one chip instance.

:mod:`repro.faults.injection` holds the Bernoulli draw (the paper's
assumption) and the fixed-count draw (Figure 13); each returns the faulty
coordinates, which :meth:`~repro.chip.biochip.Biochip.apply_fault_map`
marks on the chip.
"""

from repro.faults.injection import (
    RngLike,
    bernoulli_faults,
    fixed_count_faults,
    make_rng,
)

__all__ = [
    "RngLike",
    "bernoulli_faults",
    "fixed_count_faults",
    "make_rng",
]
