"""Engineered-reservoir parameter helpers.

Driving the qubit's excited level to a fast-decaying auxiliary level at
classical strength Omega creates an incoherent pump at gamma_plus =
4 Omega^2 / Gamma once the auxiliary level is adiabatically eliminated
(valid for Omega << Gamma). Together with the natural decay gamma_minus this
mimics a thermal reservoir of occupation n = gamma_plus / (gamma_minus -
gamma_plus); the balanced point gamma_plus = gamma_minus is the
infinite-temperature limit.
"""

import warnings
from dataclasses import dataclass

# "much smaller" threshold for the adiabatic elimination
ADIABATIC_RATIO = 10.0


class AdiabaticityWarning(UserWarning):
    """Omega is not small enough against Gamma for the eliminated-level formula."""


@dataclass(frozen=True)
class DriveParams:
    omega: float
    big_gamma: float
    gamma_minus: float = 0.0

    def __post_init__(self):
        if self.omega < 0 or self.big_gamma < 0 or self.gamma_minus < 0:
            raise ValueError("drive parameters must be >= 0")

    def adiabatic_ok(self) -> bool:
        return self.omega <= self.big_gamma / ADIABATIC_RATIO


def engineered_pump_rate(params: DriveParams) -> float:
    """Pump rate 4 Omega^2 / Gamma; warns (not fails) outside the adiabatic regime."""
    if params.big_gamma <= 0:
        raise ValueError("big_gamma must be > 0")
    if not params.adiabatic_ok():
        warnings.warn(
            f"Omega = {params.omega:g} exceeds Gamma/{ADIABATIC_RATIO:g} = "
            f"{params.big_gamma / ADIABATIC_RATIO:g}: adiabatic elimination is marginal",
            AdiabaticityWarning,
            stacklevel=2,
        )
    return 4.0 * params.omega**2 / params.big_gamma


def thermal_occupation(gamma_minus: float, gamma_plus: float) -> float:
    """Average photon number gamma_plus / (gamma_minus - gamma_plus)."""
    if gamma_minus < 0 or gamma_plus < 0:
        raise ValueError("rates must be >= 0")
    if gamma_plus >= gamma_minus:
        raise ValueError(
            "thermal occupation diverges for gamma_plus >= gamma_minus "
            "(the balanced case is the infinite-temperature limit)"
        )
    return gamma_plus / (gamma_minus - gamma_plus)


def balancing_drive(gamma_minus: float, big_gamma: float) -> float:
    """Omega with 4 Omega^2 / Gamma = gamma_minus (infinite-temperature point)."""
    if gamma_minus < 0 or big_gamma <= 0:
        raise ValueError("need gamma_minus >= 0 and big_gamma > 0")
    return 0.5 * (gamma_minus * big_gamma) ** 0.5
