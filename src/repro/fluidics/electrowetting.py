"""Electrowetting actuation physics (Section 3 of the paper).

"The velocity of the droplet can be controlled by adjusting the control
voltage (0 ~ 90 V), and droplets have been observed with velocities up to
20 cm/s."  The electrowetting force on the contact line scales with the
square of the applied voltage (Lippmann-Young), and transport requires the
voltage to exceed a threshold that overcomes contact-angle hysteresis.

:class:`ElectrowettingModel` captures exactly that: a threshold voltage, a
quadratic force law normalized so the maximum rated voltage produces the
maximum observed velocity, and helpers converting velocity to per-cell
transport time for the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FluidicsError

__all__ = ["ElectrowettingModel", "DEFAULT_MODEL"]


@dataclass(frozen=True)
class ElectrowettingModel:
    """Voltage → droplet velocity law for one chip technology.

    Parameters
    ----------
    max_voltage:
        Maximum rated actuation voltage (V); 90 V per the paper.
    threshold_voltage:
        Minimum voltage producing any motion (V) — below it, contact-angle
        hysteresis pins the droplet.
    max_velocity:
        Velocity at ``max_voltage`` (m/s); 0.20 m/s = 20 cm/s per the paper.
    pitch:
        Center-to-center electrode spacing (m); one droplet move covers
        one pitch.
    """

    max_voltage: float = 90.0
    threshold_voltage: float = 15.0
    max_velocity: float = 0.20
    pitch: float = 1.5e-3

    def __post_init__(self) -> None:
        if self.max_voltage <= 0:
            raise FluidicsError("max_voltage must be positive")
        if not 0 <= self.threshold_voltage < self.max_voltage:
            raise FluidicsError(
                "threshold voltage must satisfy 0 <= Vt < Vmax, got "
                f"Vt={self.threshold_voltage}, Vmax={self.max_voltage}"
            )
        if self.max_velocity <= 0:
            raise FluidicsError("max_velocity must be positive")
        if self.pitch <= 0:
            raise FluidicsError("pitch must be positive")

    def velocity(self, voltage: float) -> float:
        """Droplet velocity (m/s) at the given actuation voltage.

        Quadratic in voltage above threshold (electrowetting force ~ V**2),
        zero below threshold, and clamped at the rated maximum.  Voltages
        outside [0, max_voltage] are rejected rather than extrapolated —
        overdriving risks dielectric breakdown (a catastrophic fault).
        """
        if not 0.0 <= voltage <= self.max_voltage:
            raise FluidicsError(
                f"voltage {voltage} V outside the rated range "
                f"[0, {self.max_voltage}] V"
            )
        vt2 = self.threshold_voltage**2
        if voltage**2 <= vt2:
            return 0.0
        span = self.max_voltage**2 - vt2
        return self.max_velocity * (voltage**2 - vt2) / span

    def step_time(self, voltage: float) -> float:
        """Seconds for one single-cell move at ``voltage``."""
        v = self.velocity(voltage)
        if v <= 0.0:
            raise FluidicsError(
                f"voltage {voltage} V is at or below the {self.threshold_voltage} V "
                "actuation threshold; the droplet will not move"
            )
        return self.pitch / v


#: The paper's operating point: 90 V, 20 cm/s, 1.5 mm electrodes.
DEFAULT_MODEL = ElectrowettingModel()
