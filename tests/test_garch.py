import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketcast.errors import DataError, ModelFitError
from marketcast.garch import (
    GarchParams,
    fit_garch11,
    garch_recursion,
    garch_state,
    log_likelihood,
    simulate_garch11,
)


def recursion_oracle(alpha0, alpha1, beta1, residuals, sigma2_0):
    out = []
    prev = sigma2_0
    for eps in residuals:
        prev = alpha0 + alpha1 * eps**2 + beta1 * prev
        out.append(prev)
    return out


# ---------------------------------------------------------------- params


def test_params_validation():
    p = GarchParams(0.1, 0.1, 0.8)
    assert p.persistence == pytest.approx(0.9)
    assert p.long_run_variance == pytest.approx(0.1 / (1 - 0.9))
    with pytest.raises((ValueError, DataError)):
        GarchParams(0.0, 0.1, 0.8)
    with pytest.raises((ValueError, DataError)):
        GarchParams(0.1, -0.1, 0.8)
    with pytest.raises((ValueError, DataError)):
        GarchParams(0.1, 0.5, 0.5)


# ---------------------------------------------------------------- recursion


def test_recursion_hand_example():
    # alpha0 0.2, alpha1 0.3, beta1 0.4 with eps = 1, sigma2_0 = 1:
    # 0.2 + 0.3 * 1 + 0.4 * 1 = 0.9
    out = garch_recursion(GarchParams(0.2, 0.3, 0.4), np.array([1.0]), 1.0)
    assert out.shape == (1,)
    assert out[0] == 0.9


@given(
    st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=50),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_recursion_matches_oracle(residuals, sigma2_0):
    params = GarchParams(0.05, 0.12, 0.8)
    got = garch_recursion(params, np.array(residuals), sigma2_0)
    want = recursion_oracle(0.05, 0.12, 0.8, residuals, sigma2_0)
    assert len(got) == len(residuals)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_recursion_rejects_bad_inputs():
    p = GarchParams(0.1, 0.1, 0.8)
    with pytest.raises(DataError):
        garch_recursion(p, np.array([1.0, math.nan]), 1.0)
    with pytest.raises(DataError):
        garch_recursion(p, np.array([1.0]), 0.0)


def test_recursion_positive_and_mean_reverting():
    p = GarchParams(0.1, 0.1, 0.8)
    out = garch_recursion(p, np.zeros(500), 25.0)
    assert (out > 0).all()
    # with zero shocks the path decays geometrically toward alpha0/(1-beta1)
    assert abs(out[-1] - 0.1 / (1 - 0.8)) < 1e-9


# ---------------------------------------------------------------- state & likelihood


def test_state_pairs_variance_with_residual(rng):
    eps = rng.standard_normal(40)
    p = GarchParams(0.1, 0.15, 0.7)
    sigma2 = garch_state(p, eps)
    v0 = float(np.var(eps))
    want = [v0] + recursion_oracle(0.1, 0.15, 0.7, eps[:-1], v0)
    np.testing.assert_allclose(sigma2, want, rtol=1e-12)
    assert sigma2.shape == eps.shape


def test_log_likelihood_matches_scalar(rng):
    eps = rng.standard_normal(30)
    p = GarchParams(0.2, 0.1, 0.6)
    v0 = float(np.var(eps))
    sig = [v0] + recursion_oracle(0.2, 0.1, 0.6, eps[:-1], v0)
    want = -0.5 * sum(math.log(s) + e**2 / s for s, e in zip(sig, eps))
    assert log_likelihood(eps, p) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------- fitting


def test_fit_recovers_simulated_parameters():
    true = GarchParams(0.1, 0.1, 0.8)
    eps = simulate_garch11(true, 10_000, np.random.default_rng(42))
    fit = fit_garch11(eps)
    assert abs(fit.alpha0 - 0.1) <= 0.1
    assert abs(fit.alpha1 - 0.1) <= 0.1
    assert abs(fit.beta1 - 0.8) <= 0.1


def test_fit_is_local_maximum_of_reported_likelihood():
    # the fit maximizes the same likelihood that fit-garch reports: no +-1%
    # nudge of any one parameter raises log_likelihood
    eps = simulate_garch11(GarchParams(0.1, 0.1, 0.8), 10_000, np.random.default_rng(42))
    fit = fit_garch11(eps)
    best = log_likelihood(eps, fit)
    for name in ("alpha0", "alpha1", "beta1"):
        for factor in (0.99, 1.01):
            nudged = dataclasses.replace(fit, **{name: getattr(fit, name) * factor})
            assert log_likelihood(eps, nudged) <= best, (name, factor)


def test_fit_golden_bits():
    # float.hex of (alpha0, alpha1, beta1): any change in the order of the
    # optimizer's or the likelihood's floating-point operations shows up here
    eps = simulate_garch11(GarchParams(0.05, 0.1, 0.85), 2000, np.random.default_rng(2024))
    fit = fit_garch11(eps)
    assert (fit.alpha0.hex(), fit.alpha1.hex(), fit.beta1.hex()) == (
        "0x1.6472068d1f434p-5",
        "0x1.1d6b63e316f08p-4",
        "0x1.c58abd91a5a2ep-1",
    )


def test_fit_homoskedastic_noise_low_persistence():
    # on iid noise the volatility recursion has nothing to explain; the
    # fitted persistence should collapse in nearly all seeds
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(20):
            noise = np.random.default_rng(1000 + seed).standard_normal(1000)
            fit = fit_garch11(noise)
            hits += (fit.alpha1 + fit.beta1) < 0.3
    assert hits >= 16


def test_fit_boundary_persistence_warns():
    rng = np.random.default_rng(7)
    eps = rng.standard_normal(1500) * np.exp(np.linspace(0.0, 3.0, 1500))
    with pytest.warns(UserWarning, match="persistence"):
        fit = fit_garch11(eps)
    assert fit.alpha1 + fit.beta1 >= 0.999


def test_fit_input_gates():
    with pytest.raises(DataError):
        fit_garch11(np.random.default_rng(0).standard_normal(199))
    with pytest.raises(ModelFitError):
        fit_garch11(np.zeros(500))
    bad = np.random.default_rng(0).standard_normal(300)
    bad[10] = math.inf
    with pytest.raises(DataError):
        fit_garch11(bad)


# ---------------------------------------------------------------- simulation


def test_simulate_deterministic_and_sane():
    p = GarchParams(0.1, 0.1, 0.8)
    a = simulate_garch11(p, 5000, np.random.default_rng(5))
    b = simulate_garch11(p, 5000, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (5000,)
    # unconditional variance should be near alpha0 / (1 - persistence)
    assert np.var(a) == pytest.approx(p.long_run_variance, rel=0.25)
