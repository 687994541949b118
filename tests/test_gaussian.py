"""Diagonal-Gaussian KL, sampling, and log-density."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dgzsl import autodiff as ad
from dgzsl.errors import ShapeError
from dgzsl.gaussian import (
    LOG_2PI,
    DiagGaussian,
    gauss_loglik_rows,
    kl_matrix,
    sample_reparam,
)

import oracles as op
from oracles import gauss_loglik, kl_diag, matmul, transpose

mean_st = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
logvar_st = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


def gaussian_pairs(dim):
    return st.tuples(
        st.lists(mean_st, min_size=dim, max_size=dim),
        st.lists(logvar_st, min_size=dim, max_size=dim),
        st.lists(mean_st, min_size=dim, max_size=dim),
        st.lists(logvar_st, min_size=dim, max_size=dim),
    )


def test_dimension_mismatch_rejected():
    with pytest.raises(ShapeError):
        DiagGaussian(np.zeros(3), np.zeros(2))
    with pytest.raises(ShapeError):
        kl_diag(DiagGaussian(np.zeros(3), np.zeros(3)), DiagGaussian(np.zeros(2), np.zeros(2)))


def test_non_finite_entries_rejected():
    with pytest.raises(ShapeError):
        DiagGaussian(np.array([np.inf]), np.array([0.0]))


def test_kl_of_identical_gaussians_is_zero():
    g = DiagGaussian(np.array([0.3, -1.2]), np.array([0.5, -0.5]))
    assert kl_diag(g, g) == 0.0


def test_kl_unit_variance_mean_shift():
    q = DiagGaussian(np.zeros(1), np.zeros(1))
    p = DiagGaussian(np.ones(1), np.zeros(1))
    assert kl_diag(q, p) == pytest.approx(0.5)


def test_kl_matches_monte_carlo_on_8dim_pair():
    rng = np.random.default_rng(9)
    q = DiagGaussian(rng.normal(size=8), rng.uniform(-1, 1, 8))
    p = DiagGaussian(rng.normal(size=8), rng.uniform(-1, 1, 8))
    z = q.mean + np.exp(q.logvar / 2) * rng.normal(size=(100_000, 8))

    def logpdf(g):
        return -0.5 * (
            (z - g.mean) ** 2 * np.exp(-g.logvar) + g.logvar + LOG_2PI
        ).sum(axis=1)

    mc = float(np.mean(logpdf(q) - logpdf(p)))
    assert kl_diag(q, p) == pytest.approx(mc, rel=0.02)


@given(st.integers(1, 6).flatmap(gaussian_pairs))
def test_kl_nonnegative(pair):
    qm, qlv, pm, plv = (np.array(v) for v in pair)
    q, p = DiagGaussian(qm, qlv), DiagGaussian(pm, plv)
    assert kl_diag(q, p) >= -1e-12


@given(st.integers(1, 6).flatmap(gaussian_pairs))
def test_kl_zero_only_for_identical(pair):
    qm, qlv, pm, plv = (np.array(v) for v in pair)
    kl = kl_diag(DiagGaussian(qm, qlv), DiagGaussian(pm, plv))
    if kl <= 1e-12:
        # tiny divergence pins both parameter vectors together
        assert np.abs(qm - pm).max() < 1e-5
        assert np.abs(qlv - plv).max() < 1e-5


@given(st.integers(2, 8).flatmap(gaussian_pairs))
def test_kl_additive_across_dimensions(pair):
    qm, qlv, pm, plv = (np.array(v) for v in pair)
    whole = kl_diag(DiagGaussian(qm, qlv), DiagGaussian(pm, plv))
    parts = sum(
        kl_diag(
            DiagGaussian(qm[i : i + 1], qlv[i : i + 1]),
            DiagGaussian(pm[i : i + 1], plv[i : i + 1]),
        )
        for i in range(qm.size)
    )
    assert whole == pytest.approx(parts, abs=1e-12, rel=1e-12)


def test_reparam_zero_noise_returns_mean():
    g = DiagGaussian(np.array([1.0, -2.0]), np.array([0.7, -0.3]))
    assert np.array_equal(sample_reparam(g, np.zeros(2)), g.mean)


def test_reparam_standard_normal_identity():
    g = DiagGaussian(np.zeros(3), np.zeros(3))
    eps = np.array([0.1, -0.5, 2.0])
    assert np.array_equal(sample_reparam(g, eps), eps)


def test_reparam_noise_length_checked():
    g = DiagGaussian(np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        sample_reparam(g, np.zeros(4))


def test_reparam_sample_mean_within_three_standard_errors():
    rng = np.random.default_rng(12)
    g = DiagGaussian(np.array([2.0, -1.0]), np.array([0.0, 1.0]))
    n = 100_000
    draws = np.stack([sample_reparam(g, rng.normal(size=2)) for _ in range(0, 4)], 0)
    # vectorized draw: one big noise matrix through the same formula
    noise = rng.normal(size=(n, 2))
    z = g.mean + np.exp(g.logvar / 2) * noise
    se = np.exp(g.logvar / 2) / np.sqrt(n)
    assert np.all(np.abs(z.mean(axis=0) - g.mean) < 3 * se)
    assert draws.shape == (4, 2)


def test_reparam_gradients_on_tape():
    tape = ad.Tape()
    mean = tape.leaf(np.array([0.5, -0.5]))
    logvar = tape.leaf(np.array([0.2, -0.8]))
    noise = np.array([1.5, -2.5])
    z = sample_reparam(DiagGaussian(mean, logvar), noise)
    tape.backward(op.sum(z))
    assert np.array_equal(mean.grad, [1.0, 1.0])
    assert np.allclose(logvar.grad, 0.5 * np.exp(logvar.value / 2) * noise)


def test_loglik_zero_residual():
    assert gauss_loglik(np.zeros(1), np.zeros(1)) == pytest.approx(-0.5 * LOG_2PI)


def test_loglik_unit_residual():
    assert gauss_loglik(np.array([1.0]), np.zeros(1)) == pytest.approx(
        -0.5 - 0.5 * LOG_2PI
    )


def test_loglik_matches_direct_formula():
    rng = np.random.default_rng(21)
    x, m = rng.normal(size=5), rng.normal(size=5)
    direct = np.sum(-0.5 * (x - m) ** 2 - 0.5 * LOG_2PI)
    assert gauss_loglik(x, m) == pytest.approx(direct, abs=1e-12)


def test_loglik_rows_matches_scalar_version():
    rng = np.random.default_rng(22)
    x, m = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    col = gauss_loglik_rows(x, m)
    assert col.shape == (4, 1)
    for i in range(4):
        assert col[i, 0] == pytest.approx(gauss_loglik(x[i], m[i]), abs=1e-12)


def test_kl_matrix_matches_per_pair_evaluation():
    rng = np.random.default_rng(24)
    q = DiagGaussian(rng.normal(size=(7, 6)), rng.uniform(-1, 1, (7, 6)))
    priors = DiagGaussian(rng.normal(size=(5, 6)), rng.uniform(-1, 1, (5, 6)))
    mat = kl_matrix(q, priors)
    assert mat.shape == (7, 5)
    for b in range(7):
        for c in range(5):
            pair = kl_diag(
                DiagGaussian(q.mean[b], q.logvar[b]),
                DiagGaussian(priors.mean[c], priors.logvar[c]),
            )
            assert mat[b, c] == pytest.approx(pair, abs=1e-10, rel=1e-10)


def test_kl_matrix_shape_validation():
    q = DiagGaussian(np.zeros((2, 3)), np.zeros((2, 3)))
    p = DiagGaussian(np.zeros((4, 5)), np.zeros((4, 5)))
    with pytest.raises(ShapeError):
        kl_matrix(q, p)


def test_kl_matrix_differentiates_on_tape():
    rng = np.random.default_rng(25)
    params = {
        "qm": rng.normal(size=(3, 4)),
        "qlv": rng.uniform(-1, 1, (3, 4)),
        "pm": rng.normal(size=(2, 4)),
        "plv": rng.uniform(-1, 1, (2, 4)),
    }

    def fn(p):
        mat = kl_matrix(
            DiagGaussian(p["qm"], p["qlv"]), DiagGaussian(p["pm"], p["plv"])
        )
        return op.sum(op.exp(op.mul(-1.0, mat)))

    assert ad.grad_check(fn, params) < 1e-6


def unfused_kl_matrix(q, priors):
    # the elementwise tape composition kl_matrix replaces, kept as its oracle
    qm, qlv, pm, plv = q.mean, q.logvar, priors.mean, priors.logvar
    inv_var = op.exp(op.mul(plv, -1.0))
    trace = matmul(op.exp(qlv), transpose(inv_var))
    prior_sq = op.sum(op.mul(op.mul(pm, pm), inv_var), axis=1, keepdims=True)
    cross = matmul(qm, transpose(op.mul(pm, inv_var)))
    post_sq = matmul(op.mul(qm, qm), transpose(inv_var))
    quad = op.add(op.sub(transpose(prior_sq), op.mul(2.0, cross)), post_sq)
    logdet = op.sub(transpose(op.sum(plv, axis=1, keepdims=True)), op.sum(qlv, axis=1, keepdims=True))
    return op.mul(op.sub(op.add(op.add(trace, quad), logdet), float(ad._value(qm).shape[1])), 0.5)


def kl_inputs(seed, b=7, c=5, dim=6):
    rng = np.random.default_rng(seed)
    return {
        "qm": rng.normal(size=(b, dim)),
        "qlv": rng.uniform(-2, 2, (b, dim)),
        "pm": rng.normal(size=(c, dim)),
        "plv": rng.uniform(-2, 2, (c, dim)),
    }


def kl_of(p):
    return kl_matrix(DiagGaussian(p["qm"], p["qlv"]), DiagGaussian(p["pm"], p["plv"]))


@pytest.mark.parametrize("on_tape", [("qm", "qlv", "pm", "plv"), ("qm", "qlv"), ("pm", "plv"), ("qlv", "pm")])
@pytest.mark.parametrize("shape", [(7, 5, 6), (1, 3, 4), (4, 1, 2), (100, 20, 16)])
def test_kl_matrix_node_matches_the_unfused_composition(on_tape, shape):
    params = kl_inputs(26, *shape)
    weights = np.random.default_rng(27).normal(size=shape[:2])
    results = []
    for kl in (kl_matrix, unfused_kl_matrix):
        tape = ad.Tape()
        bound = {k: tape.leaf(v, name=k) if k in on_tape else v for k, v in params.items()}
        mat = kl(DiagGaussian(bound["qm"], bound["qlv"]), DiagGaussian(bound["pm"], bound["plv"]))
        grads = ad.backward_grad(tape, op.sum(op.mul(mat, weights)))
        results.append((mat.value, grads))
    (fused, fused_grads), (composed, composed_grads) = results
    assert fused.tobytes() == composed.tobytes()
    assert fused.tobytes() == kl_of(params).tobytes()
    assert sorted(fused_grads) == sorted(on_tape)
    for name in on_tape:
        assert fused_grads[name].tobytes() == composed_grads[name].tobytes(), name


def test_kl_matrix_records_one_node():
    tape = ad.Tape()
    bound = {k: tape.leaf(v) for k, v in kl_inputs(28).items()}
    kl_of(bound)
    assert [n.op for n in tape.nodes][4:] == ["kl_matrix"]


def test_kl_matrix_prior_side_gradcheck():
    params = kl_inputs(29, 4, 3, 5)
    posterior = {k: params.pop(k) for k in ("qm", "qlv")}
    weights = np.random.default_rng(30).normal(size=(4, 3))

    def fn(p):
        return op.sum(op.mul(kl_of({**posterior, **p}), weights))

    assert ad.grad_check(fn, params) < 1e-6
