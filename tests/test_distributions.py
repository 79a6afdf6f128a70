import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeshead import (
    RngStream,
    SpikeSlabPrior,
    VariationalParams,
    inv_softplus,
    mc_kl,
    sample_from_epsilon,
)
from bayeshead.core import sigmoid
from bayeshead.distributions import (
    _log_pdf_and_score,
    _mixture_log_terms,
    gaussian_log_pdf,
    kl_sample_estimate,
    mean_sample,
    sample_weights,
    spike_slab_log_pdf,
    spike_slab_score,
)


class TestGaussianLogPdf:
    def test_standard_normal_at_zero(self):
        assert float(gaussian_log_pdf(0.0, 0.0, 1.0)) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-15
        )

    def test_symmetry(self):
        assert float(gaussian_log_pdf(1.7, 0.0, 1.0)) == float(gaussian_log_pdf(-1.7, 0.0, 1.0))

    def test_peak_value(self):
        assert float(gaussian_log_pdf(3.0, 3.0, 5.0)) == pytest.approx(
            -math.log(5) - 0.5 * math.log(2 * math.pi), abs=1e-15
        )

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_log_pdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_log_pdf(0.0, 0.0, -1.0)


class TestSpikeSlabPrior:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpikeSlabPrior(mix_weight=1.5)
        with pytest.raises(ValueError):
            SpikeSlabPrior(slab_sigma=0.0)
        with pytest.raises(ValueError):
            SpikeSlabPrior(spike_sigma=2.0, slab_sigma=1.0)
        for name, value in [("slab_sigma", math.nan), ("slab_sigma", math.inf), ("spike_sigma", math.nan)]:
            with pytest.raises(ValueError, match=name):
                SpikeSlabPrior(**{name: value})

    def test_mixture_collapse_limit(self):
        prior = SpikeSlabPrior(mix_weight=1.0 - 1e-15)
        for x in (-2.0, 0.0, 0.3, 5.0):
            assert float(spike_slab_log_pdf(x, prior)) == pytest.approx(
                float(gaussian_log_pdf(x, 0.0, prior.slab_sigma)), abs=1e-9
            )

    def test_identical_components(self):
        for pi in (0.1, 0.5, 0.9):
            prior = SpikeSlabPrior(mix_weight=pi, slab_sigma=1.0, spike_sigma=1.0)
            for x in (-1.0, 0.0, 2.5):
                assert float(spike_slab_log_pdf(x, prior)) == pytest.approx(
                    float(gaussian_log_pdf(x, 0.0, 1.0)), abs=1e-12
                )

    def test_mode_value_against_mixture_formula(self):
        # oracle: log(pi*N(0;0,1) + (1-pi)*N(0;0,0.1)) evaluated directly
        prior = SpikeSlabPrior(0.5, 1.0, 0.1)
        expected = math.log(
            0.5 * math.exp(float(gaussian_log_pdf(0.0, 0.0, 1.0)))
            + 0.5 * math.exp(float(gaussian_log_pdf(0.0, 0.0, 0.1)))
        )
        assert float(spike_slab_log_pdf(0.0, prior)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.78581, abs=1e-4)

    @given(st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    def test_even_function(self, x):
        prior = SpikeSlabPrior()
        assert abs(
            float(spike_slab_log_pdf(x, prior)) - float(spike_slab_log_pdf(-x, prior))
        ) < 1e-12

    def test_density_integrates_to_one(self):
        prior = SpikeSlabPrior(0.5, 1.0, 0.1)
        grid = np.linspace(-50.0 * prior.slab_sigma, 50.0 * prior.slab_sigma, 100_001)
        density = np.exp(spike_slab_log_pdf(grid, prior))
        assert float(np.trapezoid(density, grid)) == pytest.approx(1.0, abs=1e-3)


_EDGE_X = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 0.3, -0.3, 1e3, -1e3, 1e200, -1e200])


def _per_component_terms(x, prior):
    """The slab and spike terms one component at a time, each in ``gaussian_log_pdf``'s order."""
    with np.errstate(divide="ignore"):
        log_ws = (np.log(prior.mix_weight), np.log1p(-prior.mix_weight))
    terms = []
    for sigma, log_w in zip((prior.slab_sigma, prior.spike_sigma), log_ws):
        z = x / sigma
        terms.append(((-np.log(sigma) - 0.5 * float(np.log(2.0 * np.pi))) - z * 0.5 * z) + log_w)
    return terms


class TestStackedMixture:
    @pytest.mark.parametrize("mix_weight", [0.0, 0.5, 1.0])  # at 0 and 1 one log weight is -inf
    def test_the_stack_has_the_bits_of_one_component_at_a_time(self, mix_weight):
        prior = SpikeSlabPrior(mix_weight, 1.0, 0.1)
        with np.errstate(over="ignore"):  # z * z overflows at 1e200
            got = _mixture_log_terms(_EDGE_X, prior)
            want = _per_component_terms(_EDGE_X, prior)
        assert got.shape == (2, len(_EDGE_X))
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("mix_weight", [0.0, 0.5, 1.0])
    def test_the_score_has_the_bits_of_one_component_at_a_time(self, mix_weight):
        # r * (-x / slab^2) + (1 - r) * (-x / spike^2), r the slab's responsibility
        prior = SpikeSlabPrior(mix_weight, 1.0, 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            log_p, score = _log_pdf_and_score(_EDGE_X, prior)
            slab, spike = _per_component_terms(_EDGE_X, prior)
            want_log_p = np.logaddexp(slab, spike)
            r = np.exp(slab - want_log_p)
            want = (-_EDGE_X / prior.slab_sigma**2) * r + (-_EDGE_X / prior.spike_sigma**2) * (1.0 - r)
        assert log_p.tobytes() == want_log_p.tobytes() and score.tobytes() == want.tobytes()

    def test_a_scalar_gives_scalars(self):
        prior = SpikeSlabPrior()
        assert _mixture_log_terms(0.3, prior).shape == (2,)
        assert np.ndim(spike_slab_log_pdf(0.3, prior)) == np.ndim(spike_slab_score(0.3, prior)) == 0


class TestSampling:
    def test_zero_epsilon_returns_mu(self):
        params = VariationalParams(np.array([1.5, -2.0]), np.array([0.3, -1.0]))
        sample = sample_from_epsilon(params, np.zeros(2))
        assert np.array_equal(sample.theta, params.mu)
        assert np.array_equal(mean_sample(params).theta, params.mu)

    def test_unit_epsilon_at_origin(self):
        params = VariationalParams(np.zeros(1), np.zeros(1))
        sample = sample_from_epsilon(params, np.ones(1))
        assert float(sample.theta[0]) == pytest.approx(math.log(2), abs=1e-15)

    def test_vanishing_scale(self):
        params = VariationalParams(np.array([5.0]), np.array([-100.0]))
        sample = sample_from_epsilon(params, np.array([3.0]))
        assert abs(float(sample.theta[0]) - 5.0) < 1e-30

    def test_deterministic_given_stream_state(self):
        params = VariationalParams(np.zeros(4), np.full(4, -1.0))
        a = sample_weights(params, RngStream(8, 2))
        b = sample_weights(params, RngStream(8, 2))
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.epsilon, b.epsilon)

    def test_reparameterization_gradients(self):
        # dtheta/dmu = 1 and dtheta/drho = eps * sigmoid(rho), by central differences
        params = VariationalParams(np.array([0.4, -0.7, 1.2]), np.array([-1.0, 0.2, 2.0]))
        eps = np.array([0.9, -1.3, 0.5])
        h = 1e-6
        for i in range(3):
            mu_up = params.mu.copy()
            mu_dn = params.mu.copy()
            mu_up[i] += h
            mu_dn[i] -= h
            fd_mu = (
                sample_from_epsilon(VariationalParams(mu_up, params.rho), eps).theta[i]
                - sample_from_epsilon(VariationalParams(mu_dn, params.rho), eps).theta[i]
            ) / (2 * h)
            assert fd_mu == pytest.approx(1.0, abs=1e-6)

            rho_up = params.rho.copy()
            rho_dn = params.rho.copy()
            rho_up[i] += h
            rho_dn[i] -= h
            fd_rho = (
                sample_from_epsilon(VariationalParams(params.mu, rho_up), eps).theta[i]
                - sample_from_epsilon(VariationalParams(params.mu, rho_dn), eps).theta[i]
            ) / (2 * h)
            expected = eps[i] * float(sigmoid(params.rho[i]))
            assert fd_rho == pytest.approx(expected, abs=1e-6)


def _gaussian_params(mu: float, sigma: float, k: int = 1) -> VariationalParams:
    return VariationalParams(np.full(k, mu), np.full(k, float(inv_softplus(sigma))))


class TestMcKl:
    def test_kl_of_identical_distributions(self):
        params = _gaussian_params(0.0, 1.0)
        prior = SpikeSlabPrior(0.5, 1.0, 1.0)  # collapsed standard normal
        kl = mc_kl(params, prior, 20_000, RngStream(3))
        assert abs(kl) < 0.05

    def test_closed_form_gaussian_kl(self):
        # KL(N(1, 0.5^2) || N(0, 1)) = ln(s2/s1) + (s1^2 + mu^2)/(2 s2^2) - 1/2
        params = _gaussian_params(1.0, 0.5)
        prior = SpikeSlabPrior(0.5, 1.0, 1.0)
        expected = math.log(1.0 / 0.5) + (0.25 + 1.0) / 2.0 - 0.5
        kl = mc_kl(params, prior, 20_000, RngStream(6))
        assert kl == pytest.approx(expected, abs=0.05)

    def test_nonnegative_up_to_estimator_noise(self):
        params = _gaussian_params(0.0, 0.5, k=3)
        prior = SpikeSlabPrior()
        values = [mc_kl(params, prior, 200, RngStream(1).derive(t)) for t in range(100)]
        stderr = float(np.std(values, ddof=1))
        assert min(values) >= -3.0 * stderr

    def test_error_scaling_with_sample_count(self):
        params = _gaussian_params(0.2, 0.7, k=2)
        prior = SpikeSlabPrior()
        small = [mc_kl(params, prior, 250, RngStream(9).derive(t)) for t in range(50)]
        large = [mc_kl(params, prior, 500, RngStream(10).derive(t)) for t in range(50)]
        ratio = np.std(small, ddof=1) / np.std(large, ddof=1)
        assert 1.15 < ratio < 1.75  # ~sqrt(2) shrink when doubling n

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            mc_kl(_gaussian_params(0, 1), SpikeSlabPrior(), 0, RngStream(0))


@st.composite
def priors(draw):
    slab = draw(st.floats(1e-2, 10.0))
    spike = draw(st.floats(1e-3, 1.0).filter(lambda s: s <= slab))
    return SpikeSlabPrior(draw(st.floats(0.0, 1.0)), slab, spike)


@st.composite
def posterior_draws(draw):
    """(params, sample): a (K,) draw or a (B, K) stack of draws."""
    k = draw(st.integers(1, 6))
    shape = (k,) if draw(st.booleans()) else (draw(st.integers(1, 4)), k)

    def floats(lo, hi, n):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    params = VariationalParams(floats(-3.0, 3.0, k), floats(-6.0, 2.0, k))
    return params, sample_from_epsilon(params, floats(-4.0, 4.0, math.prod(shape)).reshape(shape))


class TestKlSampleEstimate:
    @settings(deadline=None)
    @given(priors(), posterior_draws())
    def test_one_pass_equals_the_separate_calls(self, prior, case):
        # a training step's one prior pass, and the KL formed later from its log p, against the
        # separate calls, bit for bit: one estimate per draw
        params, sample = case
        log_p, score = _log_pdf_and_score(sample.theta, prior)
        assert score.shape == log_p.shape == sample.theta.shape
        assert score.tobytes() == spike_slab_score(sample.theta, prior).tobytes()
        assert log_p.tobytes() == spike_slab_log_pdf(sample.theta, prior).tobytes()
        z = (sample.theta - params.mu) / sample.sigma
        log_q = np.sum(-np.log(sample.sigma) - 0.5 * np.log(2.0 * np.pi) - 0.5 * z * z, axis=-1)
        expected = np.asarray(log_q - np.sum(spike_slab_log_pdf(sample.theta, prior), axis=-1))
        for kl in (kl_sample_estimate(sample.theta, params.mu, sample.sigma, prior, log_p),
                   kl_sample_estimate(sample.theta, params.mu, sample.sigma, prior)):
            assert np.shape(kl) == sample.theta.shape[:-1]
            assert np.asarray(kl).tobytes() == expected.tobytes()

    @settings(deadline=None)
    @given(priors(), st.lists(posterior_draws(), min_size=1, max_size=4))
    def test_draws_that_carry_their_own_mean_and_scale_equal_a_call_per_draw(self, prior, cases):
        # the training run's block pass: each row has its own mu and sigma, as each step has
        k = len(cases[0][0])
        rows = [(s.theta.reshape(-1, len(p))[0], p.mu, s.sigma) for p, s in cases if len(p) == k]
        theta, mu, sigma = (np.stack(column) for column in zip(*rows))
        got = kl_sample_estimate(theta, mu, sigma, prior, _log_pdf_and_score(theta, prior)[0])
        want = [kl_sample_estimate(*row, prior) for row in rows]
        assert got.shape == (len(rows),)
        assert got.tobytes() == np.array(want).tobytes()

    def test_mean_over_draws_matches_the_closed_form_gaussian_kl(self):
        # equal components make the prior the one Gaussian N(0, s^2), so KL(q || p) has a closed form
        s, k, draws = 0.8, 4, 500
        prior = SpikeSlabPrior(0.3, s, s)
        params = VariationalParams(np.array([-0.7, 0.0, 0.4, 1.5]), inv_softplus(np.array([0.2, 0.5, 1.0, 1.3])))
        sigma = params.sigma
        exact = float(np.sum(np.log(s / sigma) + (sigma**2 + params.mu**2) / (2 * s**2) - 0.5))
        # the standard error comes from the spread of independent batch means
        samples = [sample_from_epsilon(params, RngStream(13).derive(b).normal(draws * k).reshape(draws, k))
                   for b in range(40)]
        batches = np.array([np.mean(kl_sample_estimate(s.theta, params.mu, s.sigma, prior)) for s in samples])
        stderr = float(np.std(batches, ddof=1)) / math.sqrt(len(batches))
        assert abs(float(np.mean(batches)) - exact) < 4.5 * stderr
        assert stderr < 0.01 * exact  # so the check resolves any bias above 4.5% of the KL
