"""Decay-rate fits on synthetic series."""

from dataclasses import asdict

import numpy as np
import pytest

from modwave import DecayFit, fit_decay


def test_pure_power_law_recovered():
    # late times, and times at or below 1/e, where 1 + log t is not positive
    for t in (np.geomspace(10.0, 1000.0, 20), np.array([0.025, 0.05, 0.1])):
        v = 3.0 * t**-1.25
        fit = fit_decay(t, v)
        assert fit.slope == pytest.approx(-1.25, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == t.size


def test_log_correction_divided_out():
    t = np.geomspace(10.0, 1e5, 30)
    v = 0.7 * t**-1.0 * (1.0 + np.log(t)) ** 3
    plain = fit_decay(t, v)
    corrected = fit_decay(t, v, log_correction_power=3)
    assert corrected.slope == pytest.approx(-1.0, abs=1e-12)
    assert corrected.log_correction_power == 3
    assert plain.slope > corrected.slope  # the log growth biases the plain fit


def test_noisy_fit_r_squared():
    rng = np.random.default_rng(0)
    t = np.geomspace(10.0, 1000.0, 50)
    v = t**-1.0 * np.exp(0.05 * rng.standard_normal(50))
    fit = fit_decay(t, v)
    assert fit.slope == pytest.approx(-1.0, abs=0.05)
    assert 0.99 <= fit.r_squared <= 1.0
    # a flat series leaves no variance to explain: r_squared is 1, not 0/0
    flat = fit_decay(t, np.ones(50))
    assert (flat.slope, flat.r_squared) == (0.0, 1.0)


def test_rejects_short_series():
    with pytest.raises(ValueError, match="3 samples"):
        fit_decay([1.0, 2.0], [1.0, 0.5])


def test_rejects_bad_times():
    with pytest.raises(ValueError, match="increasing"):
        fit_decay([1.0, 3.0, 2.0], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="positive"):
        fit_decay([-1.0, 2.0, 3.0], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="above 1/e"):
        fit_decay([np.exp(-1.0), 2.0, 3.0], [1.0, 0.5, 0.25], log_correction_power=1)


def test_rejects_nonpositive_values():
    with pytest.raises(ValueError, match="positive"):
        fit_decay([1.0, 2.0, 3.0], [1.0, 0.0, 0.25])


def test_rejects_non_finite_samples():
    # refused up front, not as the fit's nan r_squared
    for times, values in (([1.0, 2.0, 3.0], [1.0, np.nan, 0.25]),
                          ([1.0, 2.0, 3.0], [1.0, np.inf, 0.25]),
                          ([1.0, 2.0, np.inf], [1.0, 0.5, 0.25])):
        with pytest.raises(ValueError, match="must be finite"):
            fit_decay(times, values)


def test_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="equal length"):
        fit_decay([1.0, 2.0, 3.0], [1.0, 0.5])


def test_rejects_negative_log_power():
    with pytest.raises(ValueError, match="log correction"):
        fit_decay([1.0, 2.0, 3.0], [1.0, 0.5, 0.25], log_correction_power=-1)


def test_decayfit_validation():
    with pytest.raises(ValueError, match="r_squared"):
        DecayFit(slope=-1.0, intercept=0.0, r_squared=1.5, n_points=5)
    with pytest.raises(ValueError, match="3 points"):
        DecayFit(slope=-1.0, intercept=0.0, r_squared=0.9, n_points=2)


def test_fit_serializes_with_asdict():
    # the fits of results.json carry exactly these keys
    fit = fit_decay(np.geomspace(2, 20, 5), np.geomspace(2, 20, 5) ** -2.0)
    d = asdict(fit)
    assert set(d) == {"slope", "intercept", "r_squared", "n_points", "log_correction_power"}
    assert d["slope"] == pytest.approx(-2.0, abs=1e-12)
