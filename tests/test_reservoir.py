"""Engineered-reservoir rate formulas."""

import pytest

from qtraj.reservoir import (
    AdiabaticityWarning,
    DriveParams,
    balancing_drive,
    engineered_pump_rate,
    thermal_occupation,
)


class TestPumpRate:
    def test_zero_drive(self):
        assert engineered_pump_rate(DriveParams(0.0, 50.0)) == 0.0

    def test_direct_substitution(self):
        # 4 * 1^2 / 100
        assert abs(engineered_pump_rate(DriveParams(1.0, 100.0)) - 0.04) < 1e-15

    def test_balance_condition(self):
        gm, big = 0.7, 120.0
        omega = balancing_drive(gm, big)
        assert abs(engineered_pump_rate(DriveParams(omega, big)) - gm) < 1e-12

    def test_monotone_in_omega_and_gamma(self, rng):
        for _ in range(50):
            omega = rng.uniform(0.01, 1.0)
            big = rng.uniform(20.0, 200.0)
            base = engineered_pump_rate(DriveParams(omega, big))
            assert engineered_pump_rate(DriveParams(omega * 1.1, big)) > base
            assert engineered_pump_rate(DriveParams(omega, big * 1.1)) < base

    def test_warns_outside_adiabatic_regime(self):
        with pytest.warns(AdiabaticityWarning):
            rate = engineered_pump_rate(DriveParams(30.0, 100.0))
        assert rate == 36.0  # the value is still returned, it is not an error

    def test_zero_big_gamma_is_error(self):
        with pytest.raises(ValueError):
            engineered_pump_rate(DriveParams(1.0, 0.0))

    def test_zero_big_gamma_entry_names_its_field(self):
        # printed by qtraj params as "config error: big_gamma must be > 0", without the field
        # form; DriveParams now rejects it, with its other fields
        with pytest.raises(ValueError, match=r"^big_gamma: must be finite and > 0, got 0.0$"):
            engineered_pump_rate(DriveParams(1.0, 0.0))

    @pytest.mark.parametrize(
        "args, fields",
        [
            (("1", 1.0), ["omega"]),
            ((1.0, float("inf"), 0.05), ["big_gamma"]),
            ((float("nan"), 100.0, 0.05), ["omega"]),
            ((-1.0, None, 1j), ["omega", "big_gamma", "gamma_minus"]),
        ],
    )
    def test_values_must_be_finite_numbers(self, args, fields):
        # a string once raised a TypeError; an infinite Gamma once gave gamma_plus = 0
        with pytest.raises(ValueError) as exc:
            DriveParams(*args)
        assert [entry.split(":")[0] for entry in str(exc.value).split("; ")] == fields

    def test_validity_flag(self):
        assert DriveParams(1.0, 100.0).adiabatic_ok()
        assert not DriveParams(20.0, 100.0).adiabatic_ok()


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(1.0, 0.0) == 0.0

    def test_direct_substitution(self):
        assert thermal_occupation(2.0, 1.0) == 1.0

    def test_divergence_signaled(self):
        with pytest.raises(ValueError, match="diverges"):
            thermal_occupation(1.0, 1.0)

    def test_consistent_with_engineered_rate(self, rng):
        for _ in range(30):
            gm = rng.uniform(0.5, 2.0)
            big = rng.uniform(50.0, 500.0)
            omega = rng.uniform(0.0, 0.9) * balancing_drive(gm, big)
            gp = engineered_pump_rate(DriveParams(omega, big))
            expected = gp / (gm - gp)
            assert abs(thermal_occupation(gm, gp) - expected) < 1e-12

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            thermal_occupation(-1.0, 0.0)
