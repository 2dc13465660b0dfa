import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_factor

from kernelep import regress
from kernelep.cli import load_model, save_model
from kernelep.errors import DomainError
from kernelep.kernels import TwoStageSpec, draw_rff
from kernelep.operator import MessageOperator
from kernelep.regress import (
    CvReport,
    cross_validate,
    default_grid,
    fit,
    fit_dual,
    predict,
    predictive_variance,
    update_online,
)


def linear_kernel(a, b):
    return a.T @ b


def random_problem(D=12, N=40, D_y=2, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    Phi = rng.normal(size=(D, N))
    W_true = rng.normal(size=(D_y, D))
    Y = W_true @ Phi + noise * rng.normal(size=(D_y, N))
    return Phi, Y, W_true


def test_fit_identity_data():
    eye = np.eye(6)
    model = fit(eye, eye, 1e-10)
    np.testing.assert_allclose(model.W, eye, atol=1e-8)
    np.testing.assert_allclose(predict(model, eye[:, 2]), eye[:, 2], atol=1e-6)


def test_fit_recovers_noiseless_weights():
    Phi, Y, W_true = random_problem(D=10, N=60, seed=1)
    model = fit(Phi, Y, 1e-10)
    np.testing.assert_allclose(model.W, W_true, rtol=1e-6)


def test_fit_shrinkage_limit():
    Phi, Y, _ = random_problem(seed=2)
    model = fit(Phi, Y, 1e8)
    bound = 1e-6 * np.linalg.norm(Y) * np.linalg.norm(Phi)
    assert np.linalg.norm(model.W) <= bound


def test_fit_validates():
    with pytest.raises(DomainError):
        fit(np.full((3, 4), np.nan), np.zeros((1, 4)), 1.0)
    with pytest.raises(DomainError):
        fit(np.eye(3), np.zeros((1, 3)), 0.0)
    with pytest.raises(DomainError):
        fit(np.eye(3), np.zeros((1, 4)), 1.0)


def test_fit_is_loss_minimizer():
    """Ridge objective at the fit is below 100 random perturbations."""
    Phi, Y, _ = random_problem(D=8, N=30, seed=3, noise=0.3)
    lam = 0.1
    model = fit(Phi, Y, lam)

    def loss(W):
        return np.sum((Y - W @ Phi) ** 2) + lam * np.sum(W**2)

    base = loss(model.W)
    rng = np.random.default_rng(4)
    for _ in range(100):
        delta = rng.normal(size=model.W.shape)
        assert loss(model.W + 1e-3 * delta) >= base


def test_predict_linearity_and_zero():
    Phi, Y, _ = random_problem(seed=5)
    model = fit(Phi, Y, 0.5)
    np.testing.assert_array_equal(predict(model, np.zeros(12)), np.zeros(2))
    rng = np.random.default_rng(6)
    p1, p2 = rng.normal(size=12), rng.normal(size=12)
    np.testing.assert_allclose(
        predict(model, p1 + p2), predict(model, p1) + predict(model, p2), atol=1e-12
    )
    with pytest.raises(DomainError):
        predict(model, np.zeros(13))


def test_predict_batch_matches_single():
    Phi, Y, _ = random_problem(seed=7)
    model = fit(Phi, Y, 0.5)
    batch = predict(model, Phi[:, :5])
    for i in range(5):
        np.testing.assert_allclose(batch[:, i], predict(model, Phi[:, i]))


def test_dual_equals_primal_for_linear_kernel():
    Phi, Y, _ = random_problem(D=10, N=50, seed=8, noise=0.2)
    lam = 0.3
    primal = fit(Phi, Y, lam)
    dual = fit_dual(Phi, linear_kernel, Y, lam)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.normal(size=10)
        a, b = predict(primal, x), dual.predict(x)
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)


def test_dual_single_point_closed_form():
    X = np.array([[2.0]])
    Y = np.array([[3.0]])
    lam = 0.5
    dual = fit_dual(X, linear_kernel, Y, lam)
    k11 = 4.0
    assert dual.predict(np.array([2.0]))[0] == pytest.approx(3.0 * k11 / (k11 + lam))


def test_dual_shrinkage_limit():
    Phi, Y, _ = random_problem(seed=10)
    dual = fit_dual(Phi, linear_kernel, Y, 1e12)
    assert np.max(np.abs(dual.predict(Phi[:, :4]))) < 1e-9


def test_predictive_variance_basics():
    Phi, Y, _ = random_problem(seed=11, noise=0.5)
    model = fit(Phi, Y, 0.2)
    assert predictive_variance(model, np.zeros(12)) == 0.0
    phi = np.random.default_rng(12).normal(size=12)
    v = predictive_variance(model, phi)
    assert v > 0
    # linear in noise_scale by definition
    doubled = type(model)(model.W, model.lam, model.A_inv, 2 * model.noise_scale, model.n_train)
    assert predictive_variance(doubled, phi) == pytest.approx(2 * v, rel=1e-12)


def test_variance_strictly_decreases_at_update_point():
    Phi, Y, _ = random_problem(seed=13, noise=0.5)
    model = fit(Phi, Y, 0.2)
    rng = np.random.default_rng(14)
    phi = rng.normal(size=12)
    before = predictive_variance(model, phi)
    updated = update_online(model, phi, np.zeros(2))
    after = predictive_variance(updated, phi)
    assert after < before


def test_variance_monotone_at_any_probe():
    Phi, Y, _ = random_problem(seed=15, noise=0.5)
    model = fit(Phi, Y, 0.2)
    rng = np.random.default_rng(16)
    probes = rng.normal(size=(6, 12))
    for _ in range(10):
        updated = update_online(model, rng.normal(size=12), rng.normal(size=2))
        for p in probes:
            assert predictive_variance(updated, p) <= predictive_variance(model, p) + 1e-15
        model = updated


def test_online_updates_match_batch_refit():
    Phi, Y, _ = random_problem(D=9, N=25, seed=17, noise=0.4)
    lam = 0.05
    model = fit(Phi, Y, lam)
    rng = np.random.default_rng(18)
    new_phis = rng.normal(size=(9, 20))
    new_ys = rng.normal(size=(2, 20))
    for i in range(20):
        model = update_online(model, new_phis[:, i], new_ys[:, i])
    batch = fit(np.hstack([Phi, new_phis]), np.hstack([Y, new_ys]), lam)
    np.testing.assert_allclose(model.W, batch.W, rtol=1e-8, atol=1e-12)
    assert model.n_train == batch.n_train
    # inverse identity stays tight after the update sequence
    grown = np.hstack([Phi, new_phis])
    ident = model.A_inv @ (grown @ grown.T + lam * np.eye(9))
    assert np.max(np.abs(ident - np.eye(9))) <= 1e-6


def _reference_update(model, phi, y):
    """Reference rank-1 update: out-of-place, with an explicit re-symmetrization."""
    u = model.A_inv @ phi
    denom = 1.0 + float(phi @ u)
    A_inv = model.A_inv - np.outer(u, u) / denom
    A_inv = (A_inv + A_inv.T) / 2.0
    W = model.W + np.outer((y - model.W @ phi) / denom, u)
    return A_inv, W


def _round_trip(model, path):
    rng = np.random.default_rng(71)
    inner = draw_rff(2, 8, 1.0, rng)
    outer = draw_rff(3, model.num_features, 1.0, rng)
    spec = TwoStageSpec(inner, np.zeros(8), np.eye(8)[:, :3], outer)
    save_model(path, MessageOperator(spec, model), seed=0, tau=0.1)
    return load_model(path).op.model


def test_online_update_bit_identical_and_exactly_symmetric(tmp_path):
    Phi, Y, _ = random_problem(D=40, N=60, seed=72, noise=0.3)
    model = fit(Phi, Y, 1e-3)
    assert np.array_equal(model.A_inv, model.A_inv.T)
    loaded = _round_trip(model, tmp_path / "model.json")
    assert np.array_equal(loaded.A_inv, model.A_inv)
    assert np.array_equal(loaded.A_inv, loaded.A_inv.T)
    rng = np.random.default_rng(73)
    fitted_A_inv = model.A_inv.copy()
    for start in (model, loaded):
        current = start
        for _ in range(24):
            phi, y = rng.normal(size=40), rng.normal(size=2)
            ref_A_inv, ref_W = _reference_update(current, phi, y)
            current = update_online(current, phi, y)
            assert np.array_equal(current.A_inv, ref_A_inv)
            assert np.array_equal(current.W, ref_W)
            assert np.array_equal(current.A_inv, current.A_inv.T)
        assert current.n_train == start.n_train + 24
    # the in-place arithmetic never writes into the model it started from
    assert np.array_equal(model.A_inv, fitted_A_inv)


def test_online_update_with_duplicate_point():
    Phi, Y, _ = random_problem(D=6, N=10, seed=19)
    lam = 0.1
    model = fit(Phi, Y, lam)
    phi, y = Phi[:, 3], Y[:, 3]
    twice = update_online(update_online(model, phi, y), phi, y)
    batch = fit(
        np.hstack([Phi, phi[:, None], phi[:, None]]),
        np.hstack([Y, y[:, None], y[:, None]]),
        lam,
    )
    np.testing.assert_allclose(twice.W, batch.W, rtol=1e-8, atol=1e-12)


def test_online_update_null_feature_is_inert():
    Phi, Y, _ = random_problem(seed=20)
    model = fit(Phi, Y, 0.3)
    updated = update_online(model, np.zeros(12), np.ones(2))
    np.testing.assert_array_equal(updated.W, model.W)
    np.testing.assert_array_equal(updated.A_inv, model.A_inv)
    assert updated.noise_scale == model.noise_scale


def test_cross_validate_singleton_grid():
    Phi, Y, _ = random_problem(seed=21, noise=0.2)
    report = cross_validate({1.0: Phi}, Y, grid=[(1.0, 0.01)], rng=np.random.default_rng(0))
    assert isinstance(report, CvReport)
    assert report.chosen == 0
    assert report.chosen_params == (1.0, 0.01)


def test_cross_validate_noiseless_prefers_smallest_lambda():
    Phi, Y, _ = random_problem(D=8, N=80, seed=22, noise=0.0)
    grid = [(1.0, lam) for lam in (1e-8, 1e-2, 1.0, 100.0)]
    report = cross_validate({1.0: Phi}, Y, grid=grid, rng=np.random.default_rng(1))
    assert report.chosen_params == (1.0, 1e-8)
    assert np.all(report.fold_errors >= 0)
    assert np.all(np.isfinite(report.fold_errors))


def test_cross_validate_deterministic_and_validates():
    Phi, Y, _ = random_problem(seed=23, noise=0.3)
    grid = default_grid()[:4]
    feats = {m: Phi for m, _ in grid}
    a = cross_validate(feats, Y, grid=grid, rng=np.random.default_rng(5))
    b = cross_validate(feats, Y, grid=grid, rng=np.random.default_rng(5))
    assert a.chosen == b.chosen
    np.testing.assert_array_equal(a.fold_errors, b.fold_errors)
    with pytest.raises(DomainError):
        cross_validate(feats, Y, grid=[], rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        cross_validate({}, Y, grid=grid, rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        cross_validate(feats, Y[:, :3], grid=grid, rng=np.random.default_rng(0))


def test_cross_validate_tie_breaks_toward_larger_lambda():
    # all-zero targets make every grid entry score exactly zero error
    Phi = np.zeros((4, 20))
    Y = np.zeros((1, 20))
    grid = [(0.5, 1e-6), (0.5, 1e-2), (2.0, 1e-2), (2.0, 1e-6)]
    feats = {0.5: Phi, 2.0: Phi}
    report = cross_validate(feats, Y, grid=grid, rng=np.random.default_rng(2))
    assert report.chosen_params == (2.0, 1e-2)


# ---------------------------------------------------------------------------
# cross_validate against per-fold refits


def fold_assignment(N, folds, seed):
    """cross_validate's documented fold assignment for rng default_rng(seed)."""
    order = np.random.default_rng(seed).permutation(N)
    fold_of = np.empty(N, dtype=int)
    fold_of[order] = np.arange(N) % folds
    return fold_of


def refit_fold_errors(features, Y, grid, folds, seed, predict_held_out):
    """Fold errors by refitting on each fold's complement (the definition)."""
    fold_of = fold_assignment(Y.shape[1], folds, seed)
    errors = np.empty((len(grid), folds))
    for i, (mult, lam) in enumerate(grid):
        Phi = features[mult]
        for k in range(folds):
            out = fold_of == k
            pred = predict_held_out(Phi[:, ~out], Y[:, ~out], lam, Phi[:, out])
            errors[i, k] = np.mean((pred - Y[:, out]) ** 2)
    return errors


def fit_and_predict(Phi_in, Y_in, lam, Phi_out):
    return predict(fit(Phi_in, Y_in, lam), Phi_out)


def svd_ridge_predict(Phi_in, Y_in, lam, Phi_out):
    """Ridge prediction through the SVD of Phi_in: no normal equations, so it
    stays accurate where Phi Phi^T + lambda I is singular to working precision."""
    U, s, Vt = np.linalg.svd(Phi_in, full_matrices=False)
    W = ((Y_in @ Vt.T) * (s / (s**2 + lam))) @ U.T
    return W @ Phi_out


@pytest.mark.parametrize(
    "D, N, folds",
    [
        (12, 40, 5),  # N > D, N divisible by folds
        (12, 43, 5),  # N > D, uneven folds
        (30, 20, 4),  # N < D, N divisible by folds
        (30, 23, 4),  # N < D, uneven folds
        (12, 9, 9),  # leave-one-out: folds == N
    ],
)
def test_cross_validate_matches_per_fold_refit(D, N, folds):
    rng = np.random.default_rng(D * 1000 + N)
    features = {0.5: rng.normal(size=(D, N)), 2.0: rng.normal(size=(D, N))}
    Y = rng.normal(size=(2, D)) @ features[0.5] + 0.3 * rng.normal(size=(2, N))
    grid = [(m, lam) for m in (0.5, 2.0) for lam in (1e-3, 1e-1, 10.0)]
    report = cross_validate(features, Y, grid=grid, folds=folds, rng=np.random.default_rng(3))
    expected = refit_fold_errors(features, Y, grid, folds, 3, fit_and_predict)
    np.testing.assert_allclose(report.fold_errors, expected, rtol=1e-9, atol=0)
    assert report.chosen == int(np.argmin(expected.mean(axis=1)))


def test_cross_validate_rank_deficient_takes_jitter_path(monkeypatch):
    # rank-3 features in 12 dimensions: Phi Phi^T + 1e-14 I is singular to
    # working precision, so the factorization escalates to jitter 1e-10 and
    # the fold errors are those of ridge at lambda + 1e-10.  fit's explicit
    # inverse is inaccurate here, so the reference refits through the SVD.
    rng = np.random.default_rng(100)
    Phi = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 30))
    Y = rng.normal(size=(2, 12)) @ Phi + 0.3 * rng.normal(size=(2, 30))
    lam, jitter = 1e-14, 1e-10

    outcomes = []

    def recording_cho_factor(mat, **kwargs):
        try:
            factor = cho_factor(mat, **kwargs)
        except LinAlgError:
            outcomes.append("failed")
            raise
        outcomes.append("factored")
        return factor

    monkeypatch.setattr(regress, "cho_factor", recording_cho_factor)
    grid = [(1.0, lam)]
    report = cross_validate({1.0: Phi}, Y, grid=grid, folds=5, rng=np.random.default_rng(7))
    assert outcomes == ["failed", "factored"]
    expected = refit_fold_errors({1.0: Phi}, Y, [(1.0, lam + jitter)], 5, 7, svd_ridge_predict)
    np.testing.assert_allclose(report.fold_errors, expected, rtol=1e-9, atol=0)
