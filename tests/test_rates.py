"""Rate-calculator tests: published scenario values and scaling properties."""
import numpy as np
import pytest

from tpcsim.rates import RateModelError, RatesConfig, chain_rate, rate_table


class TestChainRate:
    def test_three_photon_scenario(self):
        rate = chain_rate(RatesConfig(0.4, 10e-6), 3)
        assert rate == pytest.approx(6400.0, abs=1e-9)

    def test_ten_photon_scenario(self):
        rate = chain_rate(RatesConfig(0.4, 10e-6), 10)
        assert abs(rate - 10.48576) < 0.01

    def test_unit_efficiency_single_photon(self):
        assert chain_rate(RatesConfig(1.0, 10e-6), 1) == pytest.approx(1e5)

    def test_monotone_in_efficiency_duration_and_length(self):
        etas = np.linspace(0.1, 0.9, 9)
        rates = [chain_rate(RatesConfig(float(e), 1e-5), 4) for e in etas]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        durations = np.linspace(1e-6, 1e-4, 8)
        rates = [chain_rate(RatesConfig(0.4, float(t)), 4) for t in durations]
        assert all(b < a for a, b in zip(rates, rates[1:]))
        ns = range(1, 12)
        rates = [chain_rate(RatesConfig(0.4, 1e-5), n) for n in ns]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_log_rate_linear_in_length(self):
        eta, t = 0.37, 2e-5
        logs = [np.log(chain_rate(RatesConfig(eta, t), n)) for n in range(1, 9)]
        slopes = np.diff(logs)
        assert np.allclose(slopes, np.log(eta), atol=1e-12)

    def test_single_shot_readout_changes_duration(self):
        base = RatesConfig(0.4, 1e-4)
        fast = RatesConfig(0.4, 1e-4, single_shot_readout_s=1e-5)
        assert chain_rate(fast, 3) == pytest.approx(10 * chain_rate(base, 3))

    def test_validation(self):
        with pytest.raises(RateModelError):
            chain_rate(RatesConfig(0.0, 1e-5), 3)
        with pytest.raises(RateModelError):
            chain_rate(RatesConfig(0.4, 0.0), 3)
        with pytest.raises(RateModelError):
            chain_rate(RatesConfig(0.4, 1e-5), 0)


class TestRateTable:
    def test_rows_cover_requested_lengths(self):
        rows = rate_table(RatesConfig(0.4, 1e-5, photon_numbers=(1, 3, 10)))
        assert [n for n, _ in rows] == [1, 3, 10]
        assert rows[1][1] == pytest.approx(6400.0)
        assert abs(rows[2][1] - 10.48576) < 0.01
