import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.lapack import dpotrf, dtrtri

from helpers import Mappings, dense_factor, fit_dual, inverse_gram, mapping_of, packed_factor
from kernelep import regress
from kernelep.cli import load_model, save_model
from kernelep.errors import DomainError
from kernelep.kernels import PointFeatures, TwoStageSpec, draw_rff
from kernelep.operator import MessageOperator, default_tau
from kernelep.regress import (
    DEFAULT_LAMBDAS,
    CvReport,
    RidgeModel,
    cross_validate,
    fit,
    folded_factor,
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
    for lam in (0.0, math.inf, math.nan, True):
        with pytest.raises(DomainError, match="lambda"):
            fit(np.eye(3), np.zeros((1, 3)), lam)
    with pytest.raises(DomainError):
        fit(np.eye(3), np.zeros((1, 4)), 1.0)


def test_fit_escalates_jitter_then_refuses():
    # identical rows: the second Cholesky pivot of Phi Phi^T + 1e-300 I is
    # exactly 0, so only the first jitter, 1e-10, lets the factorization pass
    Phi = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    Y = np.array([[1.0, 0.0, 0.0]])
    model = fit(Phi, Y, 1e-300)
    np.testing.assert_allclose(
        inverse_gram(model), np.linalg.inv(Phi @ Phi.T + 1e-10 * np.eye(2)), rtol=1e-4
    )
    # the model records the lambda it solved with
    assert model.lam == 1e-300 + 1e-10
    # and a fit that needs no jitter keeps its own, bit for bit
    lam = np.nextafter(0.3, 1.0)
    assert fit(np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), Y, lam).lam.hex() == lam.hex()
    # at this scale every jitter rounds away
    with pytest.raises(DomainError, match="singular"):
        fit(1e6 * Phi, Y, 1e-300)


def test_ridge_model_refuses_inconsistent_shapes():
    W, M = np.zeros((2, 4)), packed_factor(np.eye(4))
    assert RidgeModel(W, 1.0, M, 1.0, 1).num_features == 4
    with pytest.raises(DomainError, match="2-D"):
        RidgeModel(np.zeros(4), 1.0, M, 1.0, 1)
    for bad in (
        dict(M=np.eye(4)),
        dict(M=np.eye(5)),
        dict(M=np.zeros(15)),
        dict(M=np.zeros((4, 5))),
        dict(M=np.float64(1.0)),
        dict(C=np.zeros((3, 5))),
        dict(C=np.zeros(4)),
    ):
        args = dict(W=W, lam=1.0, M=M, noise_scale=1.0, n_train=1) | bad
        with pytest.raises(DomainError, match="do not match"):
            RidgeModel(**args)


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
    doubled = type(model)(model.W, model.lam, model.M, 2 * model.noise_scale, model.n_train)
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
    ident = inverse_gram(model) @ (grown @ grown.T + lam * np.eye(9))
    assert np.max(np.abs(ident - np.eye(9))) <= 1e-6


def _reference_update(model, phi, y):
    """Reference rank-1 update on the explicit inverse Gram, re-symmetrized."""
    A_inv = inverse_gram(model)
    u = A_inv @ phi
    denom = 1.0 + float(phi @ u)
    A_inv = A_inv - np.outer(u, u) / denom
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


def _max_rel(got, ref):
    """Largest absolute deviation, relative to the reference's largest entry."""
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# update_online applies A_inv as M^T (I - C^T C) M through the triangle and
# the carry, the reference as one materialized matrix: the same arithmetic
# up to summation order
CARRY_RTOL = 1e-9


def _strictly_lower_zero(model):
    return not np.any(np.triu(dense_factor(model.M, model.num_features), 1))


def _holds_blocks(model):
    return model.M.shape == (regress.factor_size(model.num_features),)


def test_online_update_matches_reference_and_stays_triangular(tmp_path):
    Phi, Y, _ = random_problem(D=40, N=60, seed=72, noise=0.3)
    model = fit(Phi, Y, 1e-3)
    assert _holds_blocks(model) and _strictly_lower_zero(model)
    loaded = _round_trip(model, tmp_path / "model.json")
    assert np.array_equal(loaded.M, model.M)
    assert _holds_blocks(loaded)
    rng = np.random.default_rng(73)
    fitted_M = model.M.copy()
    for start in (model, loaded):
        current = start
        for _ in range(24):
            phi, y = rng.normal(size=40), rng.normal(size=2)
            ref_A_inv, ref_W = _reference_update(current, phi, y)
            current = update_online(current, phi, y)
            assert _max_rel(inverse_gram(current), ref_A_inv) <= CARRY_RTOL
            assert _max_rel(current.W, ref_W) <= CARRY_RTOL
            # a fold at 20 rows gives a new triangle, exactly lower
            assert _strictly_lower_zero(current)
        assert current.n_train == start.n_train + 24
        assert len(current.C) == 4
    # the in-place arithmetic never writes into the model it started from
    assert np.array_equal(model.M, fitted_M)


def test_low_rank_carry_folds_into_triangular_base():
    Phi, Y, _ = random_problem(D=40, N=60, seed=74, noise=0.3)
    lam = 1e-3
    model = fit(Phi, Y, lam)
    rng = np.random.default_rng(75)
    new_phis, new_ys = rng.normal(size=(40, 50)), rng.normal(size=(2, 50))
    bases = [model.M]
    for i in range(50):
        ref_A_inv, ref_W = _reference_update(model, new_phis[:, i], new_ys[:, i])
        model = update_online(model, new_phis[:, i], new_ys[:, i])
        # the carry folds when it reaches D // 2 = 20 rows
        assert model.C.shape == ((i + 1) % 20, 40)
        assert _max_rel(inverse_gram(model), ref_A_inv) <= CARRY_RTOL
        assert _max_rel(model.W, ref_W) <= CARRY_RTOL
        if not len(model.C):
            assert model.M is not bases[-1]
            assert _holds_blocks(model) and _strictly_lower_zero(model)
            bases.append(model.M)
        else:
            assert model.M is bases[-1]
    assert len(bases) == 3
    batch = fit(np.hstack([Phi, new_phis]), np.hstack([Y, new_ys]), lam)
    np.testing.assert_allclose(model.W, batch.W, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(inverse_gram(model), inverse_gram(batch), rtol=1e-8, atol=1e-12)


def test_updates_allocate_below_one_square_and_fold_only_at_half_width_or_save(
    tmp_path, monkeypatch
):
    # tracemalloc sees numpy's buffers: below the fold point an update
    # allocates less than one D x D array.  At D = 400 a carry stays under
    # 1 MiB, so no update below the fold maps an array; the fold maps two,
    # its I - C^T C square and the new factor
    D = 400
    square = 8 * D * D
    rng = np.random.default_rng(93)
    model = fit(rng.normal(size=(D, 500)), rng.normal(size=(2, 500)), 1e-3)
    folds = []
    real_fold = regress._fold
    mapped = Mappings(monkeypatch, regress)

    def counting_fold(M, C):
        folds.append(len(C))
        return real_fold(M, C)

    monkeypatch.setattr(regress, "_fold", counting_fold)

    def peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batch = rng.normal(size=(D, 6))
    for i in range(1, D // 2 + 2):
        phi, y = rng.normal(size=D), rng.normal(size=2)
        predictive_variance(model, phi)
        predictive_variance(model, batch)
        model, used = peak(update_online, model, phi, y)
        if i == D // 2:
            assert folds == [D // 2] and len(model.C) == 0
            assert mapped.sizes == [square, 8 * regress.factor_size(D)]
        else:
            assert len(folds) == (i > D // 2)
            assert used < square and len(mapped.sizes) == 2 * (i > D // 2)
    assert len(model.C) == 1
    loaded = _round_trip(model, tmp_path / "model.json")
    assert folds == [D // 2, 1]
    # a model that carries nothing is saved as it is
    _round_trip(loaded, tmp_path / "again.json")
    assert folds == [D // 2, 1]


def test_variance_does_not_depend_on_summation_order():
    # rank-3 features in 20 dimensions at lambda = 1e-6: an explicit inverse
    # Gram makes phi^T A_inv phi a sum that cancels, the factor a sum of squares
    rng = np.random.default_rng(94)
    Phi = rng.normal(size=(20, 3)) @ rng.normal(size=(3, 50))
    lam = 1e-6
    model = fit(Phi, rng.normal(size=(2, 20)) @ Phi + 0.3 * rng.normal(size=(2, 50)), lam)
    probes = np.hstack([Phi[:, :12], rng.normal(size=(20, 12))])
    batch = predictive_variance(model, probes)
    alone = np.array([predictive_variance(model, p) for p in probes.T])
    np.testing.assert_allclose(batch, alone, rtol=1e-12, atol=0.0)
    L = cholesky(Phi @ Phi.T + lam * np.eye(20), lower=True)
    reference = model.noise_scale * np.sum(solve_triangular(L, probes, lower=True) ** 2, axis=0)
    np.testing.assert_allclose(alone, reference, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(batch, reference, rtol=1e-12, atol=0.0)


def test_update_branches_into_independent_models():
    Phi, Y, _ = random_problem(D=40, N=60, seed=76, noise=0.3)
    model = fit(Phi, Y, 1e-3)
    rng = np.random.default_rng(77)
    first = update_online(model, rng.normal(size=40), rng.normal(size=2))
    first_C, first_W = first.C.copy(), first.W.copy()
    phi, y = rng.normal(size=40), rng.normal(size=2)
    ref_A_inv, ref_W = _reference_update(first, phi, y)
    a = update_online(first, phi, y)
    b = update_online(first, rng.normal(size=40), rng.normal(size=2))
    # siblings share the read-only triangle, never their carried rows
    assert a.M is b.M is model.M
    assert not np.shares_memory(a.C, b.C)
    assert not np.shares_memory(a.C, first.C) and not np.shares_memory(b.C, first.C)
    assert not np.array_equal(a.C[1], b.C[1])
    np.testing.assert_array_equal(a.C[0], b.C[0])
    np.testing.assert_array_equal(first.C, first_C)
    np.testing.assert_array_equal(first.W, first_W)
    assert _max_rel(inverse_gram(a), ref_A_inv) <= CARRY_RTOL
    assert _max_rel(a.W, ref_W) <= CARRY_RTOL


def test_update_never_writes_the_base():
    # D = 8, so the carry folds at 4 rows
    Phi, Y, _ = random_problem(D=8, N=30, seed=78, noise=0.3)
    model = fit(Phi, Y, 1e-3)
    base, base_bytes = model.M, model.M.copy()
    rng = np.random.default_rng(79)
    current = model
    for _ in range(9):
        current = update_online(current, rng.normal(size=8), rng.normal(size=2))
        for arr in (current.M, current.C, current.W):
            assert not arr.flags.writeable
    assert current.M is not base  # folded twice
    assert len(current.C) == 1
    np.testing.assert_array_equal(base, base_bytes)
    assert model.M is base


def _memo_less(model):
    """The same arrays in a model whose memo is empty."""
    return RidgeModel(model.W, model.lam, model.M, model.noise_scale, model.n_train, model.C)


def _assert_same_bytes(a, b):
    for name in ("W", "M", "C"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def test_update_reuses_the_variance_product_only_for_the_same_features(monkeypatch):
    Phi, Y, _ = random_problem(D=40, N=60, seed=91, noise=0.3)
    rng = np.random.default_rng(92)
    # one absorbed pair, so the product also runs through the carry
    model = update_online(fit(Phi, Y, 1e-3), rng.normal(size=40), rng.normal(size=2))
    assert len(model.C) == 1
    passes = []
    real_apply = regress._apply_factor

    def counting_apply(m, phi):
        passes.append(m)
        return real_apply(m, phi)

    monkeypatch.setattr(regress, "_apply_factor", counting_apply)
    phi, y = rng.normal(size=40), rng.normal(size=2)
    predictive_variance(model, phi)
    assert passes == [model]
    # features with the same bytes in another array: the variance's z is reused
    hit = update_online(model, phi.copy(), y)
    assert passes == [model]
    _assert_same_bytes(hit, update_online(_memo_less(model), phi, y))
    # stale memos recompute: other features, another model, features changed in place
    other = _memo_less(model)
    changed = phi.copy()
    predictive_variance(model, changed)
    changed[3] += 1.0
    for m, features in ((model, rng.normal(size=40)), (other, phi), (model, changed)):
        del passes[:]
        got = update_online(m, features, y)
        assert passes == [m]
        _assert_same_bytes(got, update_online(_memo_less(m), features, y))


def test_updated_model_round_trips_through_save(tmp_path):
    Phi, Y, _ = random_problem(D=40, N=60, seed=80, noise=0.3)
    model = fit(Phi, Y, 1e-3)
    rng = np.random.default_rng(81)
    for _ in range(7):
        model = update_online(model, rng.normal(size=40), rng.normal(size=2))
    loaded = _round_trip(model, tmp_path / "model.json")
    assert loaded.C.shape == (0, 40)
    assert np.array_equal(loaded.M, folded_factor(model))
    np.testing.assert_array_equal(loaded.W, model.W)
    assert loaded.n_train == model.n_train
    for probe in rng.normal(size=(10, 40)):
        in_memory = predictive_variance(model, probe)
        assert abs(predictive_variance(loaded, probe) - in_memory) <= CARRY_RTOL * in_memory


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_update_and_variance_reject_non_finite_inputs(bad):
    Phi, Y, _ = random_problem(seed=82, noise=0.3)
    model = fit(Phi, Y, 0.2)
    phi = np.random.default_rng(83).normal(size=12)
    bad_phi = phi.copy()
    bad_phi[5] = bad
    with pytest.raises(DomainError, match="non-finite"):
        update_online(model, phi, [bad, 0.0])
    with pytest.raises(DomainError, match="non-finite"):
        update_online(model, bad_phi, [0.0, 0.0])
    with pytest.raises(DomainError, match="non-finite"):
        predictive_variance(model, bad_phi)


@pytest.mark.parametrize("updates", [0, 5])
def test_batched_variance_equals_columns_scored_alone(updates):
    # updates > 0 carries a C of that many rows (below the fold at D // 2 = 15)
    Phi, Y, _ = random_problem(D=30, N=50, seed=84, noise=0.3)
    model = fit(Phi, Y, 1e-2)
    rng = np.random.default_rng(85)
    for _ in range(updates):
        model = update_online(model, rng.normal(size=30), rng.normal(size=2))
    assert len(model.C) == updates
    batch = rng.normal(size=(30, 9))
    got = predictive_variance(model, batch)
    assert got.shape == (9,)
    alone = [predictive_variance(model, batch[:, j]) for j in range(9)]
    np.testing.assert_allclose(got, alone, rtol=1e-9, atol=0.0)
    assert predictive_variance(model, batch[:, :1])[0] == pytest.approx(alone[0], rel=1e-9)


def test_batched_variance_clips_at_zero():
    Phi, Y, _ = random_problem(D=8, N=20, seed=86, noise=0.3)
    model = fit(Phi, Y, 0.1)
    # a carry of 2 I gives ||M phi||^2 - ||2 M phi||^2 < 0 for every nonzero phi
    flipped = type(model)(
        model.W, model.lam, model.M, model.noise_scale, model.n_train, 2.0 * np.eye(8)
    )
    batch = np.random.default_rng(87).normal(size=(8, 4))
    batch[:, 2] = 0.0
    np.testing.assert_array_equal(predictive_variance(flipped, batch), np.zeros(4))
    assert predictive_variance(model, batch)[2] == 0.0


def test_batched_variance_validates():
    Phi, Y, _ = random_problem(seed=88, noise=0.3)
    model = fit(Phi, Y, 0.2)
    batch = np.random.default_rng(89).normal(size=(12, 3))
    batch[4, 1] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        predictive_variance(model, batch)
    with pytest.raises(DomainError, match="length 11"):
        predictive_variance(model, np.ones((11, 3)))
    with pytest.raises(DomainError, match="nonempty"):
        predictive_variance(model, np.empty((12, 0)))


@pytest.mark.parametrize(
    "call, shape",
    [
        (predict, ()),
        (predict, (12, 0)),
        (predict, (12, 3, 2)),
        (predictive_variance, ()),
        (predictive_variance, (12, 3, 2)),
        (lambda model, phi: update_online(model, phi, np.zeros(2)), ()),
        (lambda model, phi: update_online(model, phi, np.zeros(2)), (12, 3)),
    ],
    ids=[
        "predict-0d",
        "predict-empty",
        "predict-3d",
        "variance-0d",
        "variance-3d",
        "update-0d",
        "update-batch",
    ],
)
def test_feature_shapes_outside_the_rule_raise_domain_error(call, shape):
    # a (D,) vector everywhere, a nonempty (D, M) batch where batches are allowed
    Phi, Y, _ = random_problem(seed=90, noise=0.3)
    model = fit(Phi, Y, 0.2)
    with pytest.raises(DomainError, match="must be"):
        call(model, np.ones(shape))


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
    np.testing.assert_array_equal(inverse_gram(updated), inverse_gram(model))
    assert updated.noise_scale == model.noise_scale


def test_cross_validate_singleton_grid():
    Phi, Y, _ = random_problem(seed=21, noise=0.2)
    report = cross_validate({1.0: Phi}.__getitem__, Y, [1.0], [0.01], rng=np.random.default_rng(0))
    assert isinstance(report, CvReport)
    assert report.chosen == 0
    assert report.chosen_params == (1.0, 0.01)


def test_cross_validate_noiseless_prefers_smallest_lambda():
    Phi, Y, _ = random_problem(D=8, N=80, seed=22, noise=0.0)
    lams = (1e-8, 1e-2, 1.0, 100.0)
    report = cross_validate({1.0: Phi}.__getitem__, Y, [1.0], lams, rng=np.random.default_rng(1))
    assert report.chosen_params == (1.0, 1e-8)
    assert np.all(report.fold_errors >= 0)
    assert np.all(np.isfinite(report.fold_errors))


def test_cross_validate_deterministic_and_validates():
    Phi, Y, _ = random_problem(seed=23, noise=0.3)
    mults, lams = [0.25], DEFAULT_LAMBDAS[:4]
    feats = {0.25: Phi}.__getitem__
    a = cross_validate(feats, Y, mults, lams, rng=np.random.default_rng(5))
    b = cross_validate(feats, Y, mults, lams, rng=np.random.default_rng(5))
    assert a.chosen == b.chosen
    np.testing.assert_array_equal(a.fold_errors, b.fold_errors)
    for bad_mults, bad_lams in (([], lams), (mults, []), (mults, [1.0, 0.0])):
        with pytest.raises(DomainError):
            cross_validate(feats, Y, bad_mults, bad_lams, rng=np.random.default_rng(0))
    with pytest.raises(DomainError):
        cross_validate(feats, Y[:, :3], mults, lams, rng=np.random.default_rng(0))
    # 2.5 would run 3 folds and 1 would hold out every case at once
    for folds in (2.5, 1, True):
        with pytest.raises(DomainError, match="folds"):
            cross_validate(feats, Y, mults, lams, folds=folds, rng=np.random.default_rng(0))
    with pytest.raises(DomainError, match="lambdas"):
        cross_validate(feats, Y, mults, [1.0, math.inf], rng=np.random.default_rng(0))


def test_cross_validate_tie_breaks_toward_larger_lambda():
    # all-zero targets make every grid entry score exactly zero error
    Phi = np.zeros((4, 20))
    Y = np.zeros((1, 20))
    feats = {0.5: Phi, 2.0: Phi}.__getitem__
    for mults in ([0.5, 2.0], [2.0, 0.5]):
        report = cross_validate(feats, Y, mults, [1e-2, 1e-6], rng=np.random.default_rng(2))
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
        (20, 20, 4),  # N = D, N divisible by folds
        (23, 23, 5),  # N = D, uneven folds
        (12, 9, 9),  # leave-one-out: folds == N
    ],
)
def test_cross_validate_matches_per_fold_refit(D, N, folds):
    rng = np.random.default_rng(D * 1000 + N)
    features = {0.5: rng.normal(size=(D, N)), 2.0: rng.normal(size=(D, N))}
    Y = rng.normal(size=(2, D)) @ features[0.5] + 0.3 * rng.normal(size=(2, N))
    report = cross_validate(
        features.__getitem__, Y, (0.5, 2.0), (1e-3, 1e-1, 10.0), folds, np.random.default_rng(3)
    )
    expected = refit_fold_errors(features, Y, report.grid, folds, 3, fit_and_predict)
    np.testing.assert_allclose(report.fold_errors, expected, rtol=1e-9, atol=0)
    assert report.chosen == int(np.argmin(expected.mean(axis=1)))


def test_cross_validate_rank_deficient_matches_svd_refit():
    # rank-3 features in 12 dimensions: Phi Phi^T + 1e-14 I is singular to
    # working precision, yet the fold errors are those of ridge at lambda
    # itself, with no jitter (a jitter of 1e-10 moves them by ~1e-11, which
    # rtol 1e-12 sees).  fit's explicit inverse is inaccurate here, so the
    # reference refits through the SVD.
    rng = np.random.default_rng(100)
    Phi = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 30))
    Y = rng.normal(size=(2, 12)) @ Phi + 0.3 * rng.normal(size=(2, 30))
    report = cross_validate({1.0: Phi}.__getitem__, Y, [1.0], [1e-14], 5, np.random.default_rng(7))
    expected = refit_fold_errors({1.0: Phi}, Y, [(1.0, 1e-14)], 5, 7, svd_ridge_predict)
    np.testing.assert_allclose(report.fold_errors, expected, rtol=1e-12, atol=0)


def test_cross_validate_square_features_match_svd_refit():
    # D = N at lambda = 1e-8, with singular values 1e-4 to 3e-4 so that
    # lambda shrinks every direction.  Far below the smallest squared
    # singular value the hat matrix nears I, and I - H_gg loses digits to
    # cancellation on any route; here it is well conditioned.
    rng = np.random.default_rng(101)
    U, _ = np.linalg.qr(rng.normal(size=(25, 25)))
    V, _ = np.linalg.qr(rng.normal(size=(25, 25)))
    Phi = 1e-4 * (U * np.linspace(1.0, 3.0, 25)) @ V.T
    Y = 1e4 * rng.normal(size=(2, 25)) @ Phi + 0.3 * rng.normal(size=(2, 25))
    report = cross_validate({1.0: Phi}.__getitem__, Y, [1.0], [1e-8], 5, np.random.default_rng(8))
    expected = refit_fold_errors({1.0: Phi}, Y, [(1.0, 1e-8)], 5, 8, svd_ridge_predict)
    np.testing.assert_allclose(report.fold_errors, expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize("seed", range(5))
def test_cross_validate_keeps_its_digits_at_square_features(seed):
    # D = N with squared singular values 0.05 to 146 at lambda = 1e-8: the
    # hat matrix is within 2e-7 of I, so I - H_gg cancels to about 1e-6
    # relative (the eigen route read 1.7e-6 to 4.3e-6 here), while the dual
    # route's A_gg carries no cancellation
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(25, 25)))
    V, _ = np.linalg.qr(rng.normal(size=(25, 25)))
    Phi = (U * np.sqrt(np.geomspace(0.05, 146.0, 25))) @ V.T
    Y = rng.normal(size=(2, 25)) @ Phi + 0.3 * rng.normal(size=(2, 25))
    report = cross_validate({1.0: Phi}.__getitem__, Y, [1.0], [1e-8], 5, np.random.default_rng(seed))
    expected = refit_fold_errors({1.0: Phi}, Y, [(1.0, 1e-8)], 5, seed, svd_ridge_predict)
    np.testing.assert_allclose(report.fold_errors, expected, rtol=1e-9, atol=0)


def _rank_three_features():
    rng = np.random.default_rng(100)
    Phi = rng.normal(size=(30, 3)) @ rng.normal(size=(3, 20))
    Y = rng.normal(size=(2, 30)) @ Phi + 0.3 * rng.normal(size=(2, 20))
    return Phi, Y


def test_cross_validate_falls_back_where_the_dual_gram_does_not_factor():
    # rank-3 features with N = 20 < D = 30: K + 1e-14 I is not positive
    # definite to working precision, so that lambda's row comes from the
    # eigen route on the same features, built once, while lambda = 1e-2
    # keeps the dual route and its bits
    Phi, Y = _rank_three_features()
    K = Phi.T @ Phi
    assert dpotrf(K + 1e-14 * np.eye(20), lower=1)[1] > 0
    calls = []

    def build(mult):
        calls.append(mult)
        return Phi.copy()

    report = cross_validate(build, Y, [1.0], [1e-14, 1e-2], 5, np.random.default_rng(7))
    assert calls == [1.0]
    # the dual row carries about 0.13 eps trace(K) / lambda = 4e-12 (see
    # regress._DUAL_FLOOR); the eigen row stays within 1e-13
    expected = refit_fold_errors({1.0: Phi}, Y, report.grid, 5, 7, svd_ridge_predict)
    np.testing.assert_allclose(report.fold_errors[0], expected[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(report.fold_errors[1], expected[1], rtol=1e-9, atol=0)
    calls.clear()
    alone = cross_validate(build, Y, [1.0], [1e-2], 5, np.random.default_rng(7))
    assert calls == [1.0]
    np.testing.assert_array_equal(alone.fold_errors[0], report.fold_errors[1])


@pytest.mark.parametrize("lam", [1e-13, 1e-12, 1e-10])
def test_cross_validate_leaves_lambdas_below_the_dual_floor_to_the_eigen_route(lam):
    # K + lambda I factors at these lambdas, but Cholesky's backward error
    # (about eps trace(K) = 3e-13 here) is a large share of lambda in the
    # directions K annihilates: the dual route read 0.4, 3e-2 and 5e-4
    # relative off the SVD refits, the eigen route stays within 1e-13
    Phi, Y = _rank_three_features()
    K = Phi.T @ Phi
    assert dpotrf(K + lam * np.eye(20), lower=1)[1] == 0
    assert lam < regress._DUAL_FLOOR * np.trace(K)
    report = cross_validate({1.0: Phi}.__getitem__, Y, [1.0], [lam], 5, np.random.default_rng(7))
    expected = refit_fold_errors({1.0: Phi}, Y, [(1.0, lam)], 5, 7, svd_ridge_predict)
    np.testing.assert_allclose(report.fold_errors, expected, rtol=1e-12, atol=0)


def test_cross_validate_memory_at_square_features():
    # one multiplier over the default lambda axis at D = N = 600: the dual
    # route holds the sorted features and K, then K and one work array, so
    # its peak stays near two N x N arrays; the eigen route held the
    # features, G and dsyevd's 2 D^2 workspace (4.03 N^2 measured)
    N = 600
    rng = np.random.default_rng(105)
    Phi = rng.normal(size=(N, N)) / np.sqrt(N)
    Y = rng.normal(size=(2, N))
    tracemalloc.start()
    try:
        report = cross_validate({1.0: Phi}.__getitem__, Y, [1.0], DEFAULT_LAMBDAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.fold_errors.shape == (len(DEFAULT_LAMBDAS), 5)
    assert peak < 2.5 * 8 * N * N


def lazy_features(D, N, seed):
    """A lazy D x N PointFeatures matrix over N points in 16 dimensions, and
    targets that depend smoothly on the points."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(N, 16))
    Y = np.stack([np.sin(points[:, 0]), points[:, 1] * points[:, 2]])
    Y += 0.1 * rng.normal(size=(2, N))
    return PointFeatures(draw_rff(16, D, 4.0, rng), points), Y


def test_cross_validate_holds_one_square_and_one_block():
    # D = N = 600 over the default lambda axis, every row on the dual
    # route: K is the one N x N array, and a block of 256 features with its
    # cases in fold order is the largest array beside it.  The margin of a
    # quarter square covers the block's finite check, the mirror's
    # transposed panel and the folds' copies; a second square, or the
    # 600 x 600 feature matrix, would not fit under it
    N = 600
    lazy, Y = lazy_features(N, N, seed=106)
    calls = []

    def build(mult):
        calls.append(mult)
        return lazy

    tracemalloc.start()
    try:
        report = cross_validate(build, Y, [1.0], DEFAULT_LAMBDAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [1.0]
    assert np.all(np.isfinite(report.fold_errors))
    # K comes from NumPy's allocator, which tracemalloc sees: a mapped
    # square would leave the bound below unchecked
    assert 8 * N * N <= peak < 8 * N * N + 8 * 256 * N + 2 * N * N


def test_cross_validate_eigen_route_reads_its_features_fold_by_fold():
    # D = 300 < N = 1200 over the default lambda axis, every row on the
    # eigen route, which builds its features once: G (which eigh overwrites
    # with P), dsyevd's 2 D^2 workspace and one fold's Phi_g and C_g bound
    # the peak.  The 300 x 1200 feature matrix beside G would not fit
    D, N = 300, 1200
    lazy, Y = lazy_features(D, N, seed=109)
    calls = []

    def build(mult):
        calls.append(mult)
        return lazy

    tracemalloc.start()
    try:
        report = cross_validate(build, Y, [1.0], DEFAULT_LAMBDAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [1.0]
    assert np.all(np.isfinite(report.fold_errors))
    fold = N // 5
    assert peak < 8 * (D * D + 2 * D * D + 2 * D * fold)


def test_fit_and_tau_hold_one_square_and_one_block():
    # D = N = 600: the Gram is the one D x D array, and a block of 256 cases
    # (the refit) or 128 (tau) is the largest array beside it; a quarter
    # square covers the rest, but not the 600 x 600 feature matrix
    D = 600
    lazy, Y = lazy_features(D, D, seed=107)
    tracemalloc.start()
    try:
        model = fit(lazy, Y, 1e-3)
        tau = default_tau(model, lazy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau > 0.0
    # the Gram comes from NumPy's allocator, which tracemalloc sees
    assert 8 * D * D <= peak < 8 * D * D + 8 * D * 256 + 2 * D * D


@pytest.mark.parametrize("D, N", [(600, 600), (512, 1000)])
def test_lazy_features_give_their_arrays_bits(D, N):
    # the dual route (N <= D) and the eigen route (N > D), the refit and tau
    # read a lazy matrix's blocks as they read its materialized array's
    lazy, Y = lazy_features(D, N, seed=D + N)
    array = np.asarray(lazy)
    lams = (1e-6, 1e-3, 1.0)
    got = cross_validate({1.0: lazy}.__getitem__, Y, [1.0], lams, 5, np.random.default_rng(4))
    want = cross_validate({1.0: array}.__getitem__, Y, [1.0], lams, 5, np.random.default_rng(4))
    assert got.fold_errors.tobytes() == want.fold_errors.tobytes()
    assert got.chosen == want.chosen
    from_lazy, from_array = fit(lazy, Y, 1e-3), fit(array, Y, 1e-3)
    _assert_same_bytes(from_lazy, from_array)
    assert from_lazy.noise_scale == from_array.noise_scale
    assert default_tau(from_lazy, lazy) == default_tau(from_array, array)


def test_cross_validate_refuses_non_finite_inputs():
    # a nan target, a nan feature on the dual route (N <= D) and an inf
    # feature on the eigen route (N > D) each raise DomainError
    rng = np.random.default_rng(108)
    wide, tall = rng.normal(size=(30, 20)), rng.normal(size=(10, 40))
    Y_wide, Y_tall = rng.normal(size=(2, 20)), rng.normal(size=(2, 40))
    Y_nan = Y_wide.copy()
    Y_nan[1, 7] = np.nan
    wide[4, 11] = np.nan
    tall[3, 25] = np.inf
    for Phi, Y in ((rng.normal(size=(30, 20)), Y_nan), (wide, Y_wide), (tall, Y_tall)):
        with pytest.raises(DomainError, match="non-finite"):
            cross_validate({1.0: Phi}.__getitem__, Y, [1.0], [1e-3], 5, np.random.default_rng(0))


def test_cross_validate_reports_in_grid_order():
    # one decomposition per multiplier serves all the lambdas, whatever the
    # order of either axis; the report is their product in the order given,
    # and each row equals that point's grid alone
    rng = np.random.default_rng(102)
    features = {0.5: rng.normal(size=(10, 35)), 2.0: rng.normal(size=(10, 35))}
    Y = rng.normal(size=(2, 10)) @ features[2.0] + 0.3 * rng.normal(size=(2, 35))
    mults = [2.0, 0.5]
    lams = list(rng.permutation(np.logspace(-8, 3, 12)))
    report = cross_validate(features.__getitem__, Y, mults, lams, 5, np.random.default_rng(9))
    assert report.grid == tuple((m, lam) for m in mults for lam in lams)
    for (m, lam), row in zip(report.grid, report.fold_errors):
        alone = cross_validate(features.__getitem__, Y, [m], [lam], 5, np.random.default_rng(9))
        np.testing.assert_array_equal(row, alone.fold_errors[0])


def test_cross_validate_builds_each_multipliers_features_once_in_order():
    # fresh copies give the report of the stored matrices, each built once
    # per multiplier, in the order given, when the search reaches it
    rng = np.random.default_rng(103)
    features = {m: rng.normal(size=(8, 30)) for m in (0.5, 1.0, 2.0)}
    Y = rng.normal(size=(2, 30))
    mults, lams = (2.0, 0.5, 1.0), (1e-3, 1.0)
    calls = []

    def build(mult):
        calls.append(mult)
        return features[mult].copy()

    built = cross_validate(build, Y, mults, lams, 5, np.random.default_rng(10))
    mapped = cross_validate(features.__getitem__, Y, mults, lams, 5, np.random.default_rng(10))
    assert calls == [2.0, 0.5, 1.0]
    np.testing.assert_array_equal(built.fold_errors, mapped.fold_errors)
    assert built.chosen == mapped.chosen
    with pytest.raises(DomainError, match="expected 30 cases"):
        cross_validate(lambda m: features[m][:, :20], Y, mults, lams, rng=np.random.default_rng(0))


def _blocked_model(D, rows, seed):
    """A model over a random well-conditioned lower-triangular factor, as a
    dense square and as the model's column blocks, carrying `rows` small
    rows so that I - C^T C stays positive definite."""
    rng = np.random.default_rng(seed)
    dense = np.tril(rng.normal(size=(D, D))) / np.sqrt(D) + np.eye(D)
    C = 0.3 * rng.normal(size=(rows, D)) / np.sqrt(D)
    model = RidgeModel(rng.normal(size=(2, D)), 1e-3, packed_factor(dense), 0.7, 5, C)
    return model, dense, rng


def _assert_close(got, want, rtol=1e-12):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * np.max(np.abs(want)))


@pytest.mark.parametrize("D", [1, 511, 512, 513, 1100])
def test_block_products_match_a_dense_factor(D):
    model, dense, rng = _blocked_model(D, 3, seed=D)
    assert model.M.shape == (regress.factor_size(D),)
    np.testing.assert_array_equal(dense_factor(model.M, D), dense)
    columns = regress.factor_columns(model.M, D)
    assert len(columns) == D
    for j in (0, D // 2, D - 1):
        np.testing.assert_array_equal(columns[j], dense[j:, j])
    phi, w = rng.normal(size=D), rng.normal(size=D)
    z_one = regress._lower_rows(model._blocks, phi[None, :])[0]
    _assert_close(z_one, dense @ phi)
    _assert_close(regress._lower_transposed_product(model._blocks, w), dense.T @ w)

    # each product has the bits of the same BLAS calls on the column blocks
    # of a square M, so a trained tau and model file do not depend on the
    # layout
    B = regress._BLOCK
    square = np.asfortranarray(dense)
    z, u = np.zeros(D), np.empty(D)
    for j in range(0, D, B):
        z[j:] += square[j:, j : j + B] @ phi[j : j + B]
        u[j : j + B] = square[j:, j : j + B].T @ w[j:]
    assert z_one.tobytes() == z.tobytes()
    assert regress._lower_transposed_product(model._blocks, w).tobytes() == u.tobytes()

    # a batch is scored as (M X)^T = X^T M^T through the transpose of a
    # column slice, a view of the batch
    batch = rng.normal(size=(D, 20))[:, 3:10]
    ZT = regress._lower_rows(model._blocks, batch.T)
    assert ZT.shape == (7, D) and ZT.flags.c_contiguous
    _assert_close(ZT, (dense @ batch).T)
    for i in range(7):
        _assert_close(ZT[i], regress._lower_rows(model._blocks, batch[:, i][None, :])[0])

    def dense_variance(x):
        z = dense @ x
        Cz = model.C @ z
        return model.noise_scale * (np.sum(z * z, axis=0) - np.sum(Cz * Cz, axis=0))

    _assert_close(predictive_variance(model, phi), dense_variance(phi))
    scored = predictive_variance(model, batch)
    _assert_close(scored, dense_variance(batch))
    alone = [predictive_variance(model, batch[:, i]) for i in range(7)]
    np.testing.assert_allclose(scored, alone, rtol=1e-12, atol=0.0)
    # an update moves W by A_inv phi, the transposed product through the carry
    y = rng.normal(size=2)
    A_inv = dense.T @ (np.eye(D) - model.C.T @ model.C) @ dense
    u = A_inv @ phi
    W = model.W + np.outer((y - model.W @ phi) / (1.0 + phi @ u), u)
    _assert_close(update_online(model, phi, y).W, W, rtol=1e-11)


def test_wide_batch_is_scored_in_column_chunks(monkeypatch):
    # D = 1100 is three column blocks of M and n = 3000 24 chunks of the
    # batch; a batch that formed M phi for every column at once would hold
    # a D x n array of its own.  A chunk's (M X)^T (1.1 MB) is mapped, where
    # tracemalloc does not see it, so every mapping is held to one chunk's
    # size and the two counts together to the whole batch's
    D, n = 1100, 3000
    model, _, rng = _blocked_model(D, 4, seed=104)
    batch = rng.normal(size=(D, n))
    mapped = Mappings(monkeypatch, regress)
    tracemalloc.start()
    try:
        got = predictive_variance(model, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every full chunk's (M X)^T is mapped, the last 56 columns' is not
    assert mapped.sizes == [8 * D * regress._CHUNK] * (n // regress._CHUNK)
    assert mapped.live == 0
    assert peak + mapped.peak < 8 * D * n
    alone = [predictive_variance(model, batch[:, j]) for j in range(n)]
    np.testing.assert_allclose(got, alone, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("D", [513, 1100])
def test_fold_matches_a_dense_fold_and_holds_no_square(D, monkeypatch):
    # the fold's I - C^T C square and the new factor are mapped, where
    # tracemalloc does not see them: the square is gone when the fold
    # returns, and the factor's mapping is the only one left
    model, dense, _ = _blocked_model(D, 6, seed=D + 1)
    mapped = Mappings(monkeypatch, regress)
    tracemalloc.start()
    try:
        folded = regress._fold(model._blocks, model.C)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert folded.shape == (regress.factor_size(D),) and not folded.flags.writeable
    factor = 8 * regress.factor_size(D)
    assert mapped.sizes == [8 * D * D, factor] and mapped.live == factor
    assert mapping_of(folded) is not None
    assert held < 8 * D * D
    # T lower-triangular with T^T T = I - C^T C, from the Cholesky factor of
    # the matrix with coordinates reversed
    J = np.eye(D)[::-1]
    U = np.linalg.cholesky(J @ (np.eye(D) - model.C.T @ model.C) @ J).T
    want = J @ U @ J @ dense
    got = dense_factor(folded, D)
    assert not np.any(np.triu(got, 1))
    assert _max_rel(got, want) <= 1e-13


def test_fit_runs_under_a_tracer():
    # a tracer (sys.settrace, cProfile) holds a second reference to fit's
    # locals, so the Gram's buffer cannot shrink in place; the fit still
    # gives the untraced bits
    Phi, Y, _ = random_problem(D=600, N=50, seed=105, noise=0.3)
    plain = fit(Phi, Y, 1e-3)

    def tracer(frame, event, arg):
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        traced = fit(Phi, Y, 1e-3)
    finally:
        sys.settrace(previous)
    assert traced.M.shape == (regress.factor_size(600),)
    _assert_same_bytes(traced, plain)
    assert (traced.lam, traced.noise_scale) == (plain.lam, plain.noise_scale)


def test_fit_holds_no_square():
    # at D = 1100 the column blocks hold 870,032 doubles against 1,210,000
    # for the square, so a fit that kept its D x D array would hold more
    D = 1100
    rng = np.random.default_rng(95)
    Phi, Y = rng.normal(size=(D, 30)), rng.normal(size=(2, 30))
    tracemalloc.start()
    try:
        model = fit(Phi, Y, 1e-3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 8 * regress.factor_size(D) <= held < 8 * D * D
    assert all(a.size < D * D for a in (model.W, model.M, model.C))


@pytest.mark.parametrize("D", [1, 511, 513, 1100])
def test_fit_packs_its_inverse_factor_in_the_grams_buffer(D):
    # M has the bits of L^{-1} from the same LAPACK calls, packed into
    # column blocks; the packing reuses the Gram's buffer, so fit's peak is
    # that one square plus arrays of D x N and D x D_y (the parent, which
    # copied the square into fresh blocks, peaked at 1.72 squares at
    # D = 1100)
    N, lam = 30, 1e-3
    rng = np.random.default_rng(D)
    Phi, Y = rng.normal(size=(D, N)), rng.normal(size=(2, N))
    tracemalloc.start()
    try:
        model = fit(Phi, Y, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gram = Phi @ Phi.T
    gram[np.diag_indices(D)] += lam
    L, info = dpotrf(gram, lower=1, clean=1)
    assert info == 0
    np.testing.assert_array_equal(model.M, packed_factor(dtrtri(L, lower=1)[0]))
    assert model.M.base is None and model.M.shape == (regress.factor_size(D),)
    if D > 1:
        assert peak < 8 * D * (D + 4 * N)


def test_chain_equals_memo_less_rebuilds():
    # D = 80, so the carry folds at 40 rows; each step of the chain reuses
    # the variance's memo, each rebuilt step starts from a model without one
    Phi, Y, _ = random_problem(D=80, N=100, seed=96, noise=0.3)
    rng = np.random.default_rng(97)
    chain, copied = [fit(Phi, Y, 1e-3)], [fit(Phi, Y, 1e-3)]
    for _ in range(45):
        phi, y = rng.normal(size=80), rng.normal(size=2)
        predictive_variance(chain[-1], phi)
        chain.append(update_online(chain[-1], phi, y))
        copied.append(update_online(_memo_less(copied[-1]), phi, y))
        assert chain[-1].C.flags.c_contiguous
    assert len(chain[-1].C) == 5
    for model, other in zip(chain, copied):
        _assert_same_bytes(model, other)


def test_update_chain_bits_are_pinned():
    # the sha256 of W, M and C after 45 seeded updates at D = 80, every
    # second one gated by a variance first; the carry folds at 40 rows and
    # then holds 5.  Taken with numpy 2.4.6's OpenBLAS on x86-64 (AVX-512);
    # another BLAS build may round differently
    Phi, Y, _ = random_problem(D=80, N=100, seed=100, noise=0.3)
    model = fit(Phi, Y, 1e-3)
    rng = np.random.default_rng(101)
    for i in range(45):
        phi, y = rng.normal(size=80), rng.normal(size=2)
        if i % 2:
            predictive_variance(model, phi)
        model = update_online(model, phi, y)
    assert len(model.C) == 5 and model.n_train == 145
    digest = hashlib.sha256(b"".join(getattr(model, n).tobytes() for n in ("W", "M", "C")))
    assert digest.hexdigest() == (
        "95e976c9d97ed695a7c49e3818e7adbe8e8d7c19a5a7eaf0038ffae5d8108a45"
    )


def test_mapped_update_chain_bits_are_pinned(monkeypatch):
    # at D = 1100 a carry is mapped from 120 rows (1 MiB), a batch's full
    # chunks of 128 columns are, and the fold at 550 rows maps the
    # I - C^T C square and C's reversed copy.  560 seeded updates, every
    # second one gated by a variance first, and a 200-column batch scored
    # every 50th: the sha256 of W, M, C and the scored variances is the one
    # that NumPy-allocated carries (np.concatenate) and products
    # (np.matmul) gave, with numpy 2.4.6's OpenBLAS on x86-64 (AVX-512)
    D = 1100
    Phi, Y, _ = random_problem(D=D, N=100, seed=110, noise=0.3)
    model = fit(Phi, Y, 1e-3)
    rng = np.random.default_rng(111)
    batch = rng.normal(size=(D, 200))
    mapped = Mappings(monkeypatch, regress)
    scored = []
    for i in range(560):
        phi, y = rng.normal(size=D), rng.normal(size=2)
        if i % 2:
            predictive_variance(model, phi)
        updated = update_online(model, phi, y)
        if len(updated.C):
            # the old rows copied in, the new one after them
            stacked = np.concatenate([model.C, updated.C[-1:]])
            assert updated.C.tobytes() == stacked.tobytes()
            assert (mapping_of(updated.C) is not None) == (len(updated.C) >= 120)
        model = updated
        if i % 50 == 49:
            scored.append(predictive_variance(model, batch))
    assert len(model.C) == 10 and model.n_train == 660
    assert 8 * D * D in mapped.sizes and 8 * 550 * D in mapped.sizes
    assert 8 * D * regress._CHUNK in mapped.sizes
    XT = batch[:, : regress._CHUNK].T
    want = XT[:, : regress._BLOCK] @ model._blocks[0].T
    for j, panel in zip(range(regress._BLOCK, D, regress._BLOCK), model._blocks[1:]):
        want[:, j:] += XT[:, j : j + regress._BLOCK] @ panel.T
    got = regress._lower_rows(model._blocks, XT)
    assert mapping_of(got) is not None and got.tobytes() == want.tobytes()
    digest = hashlib.sha256(b"".join(getattr(model, n).tobytes() for n in ("W", "M", "C")))
    digest.update(np.concatenate(scored).tobytes())
    assert digest.hexdigest() == (
        "ca676896dafd94cf8d2184aaa1f4ee17ff3cfa75b3de42ae2f6edb807be8f766"
    )


# Drives a stream of online updates in a fresh process: argv[2] absorbs at
# width argv[1], each gated by a single variance first as ActiveSource's
# decide does, and an argv[4]-column batch scored every argv[3] absorbs.  A
# freed D x D square first raises glibc's mmap threshold to its 32 MiB
# ceiling, as dropping a loaded model's factor does, and its product
# touches the BLAS buffers that the fold's products use.  After each batch
# the process reports its VmRSS less the model's live W, M and C.
_STREAM_PROBE = """
import json, sys
import numpy as np
from kernelep.regress import fit, predictive_variance, update_online

def rss():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024

D, absorbs, every, width = (int(a) for a in sys.argv[1:])
rng = np.random.default_rng(120)
model = fit(rng.normal(size=(D, 64)), rng.normal(size=(2, 64)), 1e-3)
square = np.ones((D, D))
square = square @ square
del square
batch = rng.normal(size=(D, width))
excess = []
for i in range(1, absorbs + 1):
    phi = rng.normal(size=D)
    predictive_variance(model, phi)
    model = update_online(model, phi, rng.normal(size=2))
    if i % every == 0:
        predictive_variance(model, batch)
        live = sum(a.nbytes for a in (model.W, model.M, model.C))
        excess.append((i, len(model.C), rss() - live))
print(json.dumps(excess))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_a_long_stream_holds_only_its_live_model():
    # 2,300 absorbs at D = 2000 with an 80-column batch every 20 fold
    # twice, at 1,000 rows each.  From absorb 300 on, resident memory
    # beyond the live model may grow by 8 MiB at most (2.7 MB measured).
    # Carries, batch products and the fold's arrays freed into a heap whose
    # mmap threshold is raised stay resident: NumPy-allocated ones grew it
    # by 89 MB over a one-fold window, the fold's square and reversed carry
    # alone by 48 MB, and a NumPy-allocated factor, freed by the second
    # fold, by 19 MB
    D, absorbs, every, width = 2000, 2300, 20, 80
    env = dict(os.environ, PYTHONPATH=str(Path(regress.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", _STREAM_PROBE, *map(str, (D, absorbs, every, width))],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    samples = [row for row in json.loads(result.stdout) if row[0] >= 300]
    carried = [k for _, k, _ in samples]
    folds = sum(after < before for before, after in zip(carried, carried[1:]))
    assert samples[0][0] == 300 and folds == 2
    start = samples[0][2]
    growth = max(extra for _, _, extra in samples) - start
    assert growth <= 8 * 2**20, samples


def test_concurrent_updates_of_one_model_take_distinct_rows():
    # threads updating one model at once each get a model of their own, with
    # the bits of a serial update and carried rows that share no memory
    Phi, Y, _ = random_problem(D=40, N=60, seed=98, noise=0.3)
    rng = np.random.default_rng(99)
    model = update_online(fit(Phi, Y, 1e-3), rng.normal(size=40), rng.normal(size=2))
    pairs = [(rng.normal(size=40), rng.normal(size=2)) for _ in range(64)]
    expected = [update_online(_memo_less(model), phi, y) for phi, y in pairs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(update_online, model, phi, y) for phi, y in pairs]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(got, expected):
        _assert_same_bytes(a, b)
    owners = [g.C for g in got if np.shares_memory(g.C, model.C)]
    assert len(owners) <= 1
