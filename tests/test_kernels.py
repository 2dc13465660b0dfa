import math

import numpy as np
import pytest

import helpers
from kernelep import kernels, operator
from kernelep.errors import DomainError, QuadratureError
from kernelep.expfam import BetaDist, Gaussian1D
from kernelep.factors import IncomingPrior, IncomingTuple, sample_incoming
from kernelep.kernels import (
    RffSpec,
    TwoStageSpec,
    beta_cf,
    draw_rff,
    exact_beta_kernel,
    exact_gauss_kernel,
    exact_kernel,
    expected_feature_beta,
    expected_feature_gaussian,
    gaussian_cf,
    joint_features,
    joint_features_batch,
    median_distance,
    median_heuristic,
    principal_projection,
    product_features,
    rescale,
    rff_point,
)
from kernelep.regress import fit


def random_tuples(n, seed):
    rng = np.random.default_rng(seed)
    return [sample_incoming(IncomingPrior(), rng) for _ in range(n)]


def test_draw_rff_deterministic():
    a = draw_rff(2, 64, (1.0, 0.5), np.random.default_rng(5))
    b = draw_rff(2, 64, (1.0, 0.5), np.random.default_rng(5))
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    np.testing.assert_array_equal(a.phases, b.phases)


def test_draw_rff_validates_bandwidth():
    with pytest.raises(DomainError):
        draw_rff(1, 10, 0.0, np.random.default_rng(0))
    with pytest.raises(DomainError):
        draw_rff(1, 0, 1.0, np.random.default_rng(0))


def test_draw_rff_frequency_scale():
    spec = draw_rff(1, 20_000, 1.0, np.random.default_rng(7))
    std = spec.frequencies[:, 0].std()
    assert 0.95 <= std <= 1.05


def test_huge_bandwidth_gives_constant_features():
    spec = draw_rff(1, 128, 1e12, np.random.default_rng(1))
    feats = rff_point(spec, np.array([2.7]))
    np.testing.assert_allclose(
        feats, math.sqrt(2.0 / 128) * np.cos(spec.phases), atol=1e-9
    )


def test_phases_in_range():
    spec = draw_rff(1, 10_000, 1.0, np.random.default_rng(2))
    assert spec.phases.min() >= 0.0
    assert spec.phases.max() < 2.0 * math.pi


def test_rff_point_kernel_fidelity():
    spec = draw_rff(1, 2000, 1.0, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3, 3, size=(100, 2))
    worst = 0.0
    for x, y in pts:
        approx = rff_point(spec, [x]) @ rff_point(spec, [y])
        exact = math.exp(-((x - y) ** 2) / 2.0)
        worst = max(worst, abs(approx - exact))
    assert worst <= 0.05


def test_rff_point_self_similarity_near_one():
    spec = draw_rff(1, 2000, 1.0, np.random.default_rng(8))
    for x in (-2.0, 0.0, 1.7):
        assert abs(rff_point(spec, [x]) @ rff_point(spec, [x]) - 1.0) <= 0.05


def test_rff_point_shift_quasi_invariance():
    spec = draw_rff(1, 2000, 1.0, np.random.default_rng(9))
    for x, y, c in [(-1.0, 0.5, 2.0), (0.3, 1.1, -3.0)]:
        k1 = rff_point(spec, [x]) @ rff_point(spec, [y])
        k2 = rff_point(spec, [x + c]) @ rff_point(spec, [y + c])
        assert abs(k1 - k2) <= 0.05


def test_rff_point_shape_and_mismatch():
    spec = draw_rff(2, 32, 1.0, np.random.default_rng(0))
    batch = rff_point(spec, np.zeros((5, 2)))
    assert batch.shape == (5, 32)
    np.testing.assert_allclose(batch[3], rff_point(spec, np.zeros(2)))
    with pytest.raises(DomainError):
        rff_point(spec, np.zeros(3))


def test_rescale_matches_fresh_draw():
    a = rescale(draw_rff(1, 256, 1.0, np.random.default_rng(6)), 2.0)
    b = draw_rff(1, 256, 2.0, np.random.default_rng(6))
    np.testing.assert_allclose(a.frequencies, b.frequencies, rtol=1e-15)
    np.testing.assert_array_equal(a.phases, b.phases)
    np.testing.assert_allclose(a.bandwidth, b.bandwidth)


def test_expected_gaussian_point_mass_degenerates_to_point_features():
    spec = draw_rff(1, 512, 1.0, np.random.default_rng(10))
    g = Gaussian1D(0.8, 1e-12)
    np.testing.assert_allclose(
        expected_feature_gaussian(spec, g), rff_point(spec, [0.8]), atol=1e-6
    )


def test_expected_gaussian_vanishes_for_huge_variance():
    spec = draw_rff(1, 64, 1.0, np.random.default_rng(11))
    feats = expected_feature_gaussian(spec, Gaussian1D(0.0, 1e12))
    assert np.max(np.abs(feats)) < 1e-12


def test_expected_gaussian_matches_monte_carlo():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        spec = draw_rff(1, 8, float(rng.uniform(0.5, 3.0)), rng)
        g = Gaussian1D(float(rng.uniform(-3, 3)), float(rng.uniform(0.2, 4.0)))
        draws = rng.normal(g.mean, math.sqrt(g.variance), size=100_000)
        samples = rff_point(spec, draws[:, None])
        mc = samples.mean(axis=0)
        se = samples.std(axis=0) / math.sqrt(len(draws))
        diff = np.abs(expected_feature_gaussian(spec, g) - mc)
        assert np.all(diff <= 3.0 * se + 1e-12), f"seed {seed}"


def test_expected_beta_flat_case_analytic():
    # Beta(1,1): E[cos(w z + b)] = (sin(w + b) - sin(b)) / w
    spec = draw_rff(1, 256, 1.0, np.random.default_rng(12))
    w, b = spec.frequencies[:, 0], spec.phases
    analytic = math.sqrt(2.0 / 256) * (np.sin(w + b) - np.sin(b)) / w
    np.testing.assert_allclose(
        expected_feature_beta(spec, BetaDist(1.0, 1.0)), analytic, atol=1e-8
    )


def test_expected_beta_matches_monte_carlo():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        spec = draw_rff(1, 8, float(rng.uniform(0.1, 1.0)), rng)
        dist = BetaDist(float(rng.uniform(1, 8)), float(rng.uniform(1, 8)))
        draws = rng.beta(dist.alpha, dist.beta, size=100_000)
        samples = rff_point(spec, draws[:, None])
        mc = samples.mean(axis=0)
        se = samples.std(axis=0) / math.sqrt(len(draws))
        diff = np.abs(expected_feature_beta(spec, dist) - mc)
        assert np.all(diff <= 3.0 * se + 1e-12), f"seed {seed}"


def test_expected_beta_concentrated_matches_point():
    spec = draw_rff(1, 512, 1.0, np.random.default_rng(13))
    feats = expected_feature_beta(spec, BetaDist(500.0, 500.0))
    np.testing.assert_allclose(feats, rff_point(spec, [0.5]), atol=1e-2)


def test_product_features_kronecker_identity():
    rng = np.random.default_rng(14)
    a, b, c, e = (rng.normal(size=6) for _ in range(4))
    lhs = product_features(a, b) @ product_features(c, e)
    rhs = (a @ c) * (b @ e)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_product_kernel_fidelity_gaussian_side():
    # with a flat Beta on both tuples the product kernel is the Gaussian side
    spec_x = draw_rff(1, 2000, 1.0, np.random.default_rng(15))
    spec_z = draw_rff(1, 40, 0.25, np.random.default_rng(16))
    cases = [
        (Gaussian1D(0.0, 1.0), Gaussian1D(1.0, 0.5)),
        (Gaussian1D(-2.0, 2.0), Gaussian1D(-2.0, 2.0)),
    ]
    flat = BetaDist(1.0, 1.0)
    fz = expected_feature_beta(spec_z, flat)
    for g1, g2 in cases:
        f1 = product_features(expected_feature_gaussian(spec_x, g1), fz)
        f2 = product_features(expected_feature_gaussian(spec_x, g2), fz)
        exact = exact_gauss_kernel(g1, g2, 1.0) * exact_beta_kernel(flat, flat, 0.25)
        assert abs(f1 @ f2 - exact) <= 0.05


def test_product_kernel_self_similarity():
    spec_x = draw_rff(1, 2000, 1.0, np.random.default_rng(17))
    spec_z = draw_rff(1, 40, 0.25, np.random.default_rng(18))
    t = IncomingTuple(Gaussian1D(0.3, 1.2), BetaDist(3.0, 5.0))
    f = product_features(
        expected_feature_gaussian(spec_x, t.m_x), expected_feature_beta(spec_z, t.m_z)
    )
    exact = exact_kernel("product", t, t, (1.0, 0.25))
    assert abs(f @ f - exact) <= 0.05


def test_joint_features_beta_point_mass_collapse():
    spec = draw_rff(2, 600, (1.0, 0.3), np.random.default_rng(19))
    inc = IncomingTuple(Gaussian1D(0.4, 1.5), BetaDist(500.0, 500.0))
    got = joint_features(spec, inc)
    # collapse z to 0.5: 1-dim Gaussian expectation with shifted phases
    shifted = RffSpec(
        spec.frequencies[:, :1].copy(),
        spec.phases + spec.frequencies[:, 1] * 0.5,
        spec.bandwidth[:1].copy(),
    )
    want = math.sqrt(2.0 / 600) * np.cos(
        shifted.frequencies[:, 0] * inc.m_x.mean + shifted.phases
    ) * np.exp(-0.5 * shifted.frequencies[:, 0] ** 2 * inc.m_x.variance)
    np.testing.assert_allclose(got, want, atol=1e-2)


def test_joint_features_match_monte_carlo():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        spec = draw_rff(2, 8, (1.0, 0.25), rng)
        inc = IncomingTuple(
            Gaussian1D(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3.0))),
            BetaDist(float(rng.uniform(1, 8)), float(rng.uniform(1, 8))),
        )
        x = rng.normal(inc.m_x.mean, math.sqrt(inc.m_x.variance), size=100_000)
        z = rng.beta(inc.m_z.alpha, inc.m_z.beta, size=100_000)
        samples = rff_point(spec, np.column_stack([x, z]))
        mc = samples.mean(axis=0)
        se = samples.std(axis=0) / math.sqrt(len(x))
        diff = np.abs(joint_features(spec, inc) - mc)
        assert np.all(diff <= 3.0 * se + 1e-12), f"seed {seed}"


def test_joint_self_kernel_matches_quadrature_oracle():
    spec = draw_rff(2, 2000, (1.0, 0.25), np.random.default_rng(20))
    t = IncomingTuple(Gaussian1D(-0.5, 0.8), BetaDist(4.0, 2.0))
    f = joint_features(spec, t)
    assert abs(f @ f - exact_kernel("joint", t, t, (1.0, 0.25))) <= 0.05


def test_joint_batch_matches_single():
    spec = draw_rff(2, 64, (1.0, 0.3), np.random.default_rng(21))
    tuples = random_tuples(7, seed=22)
    batch = joint_features_batch(spec, tuples)
    for i, t in enumerate(tuples):
        np.testing.assert_allclose(batch[i], joint_features(spec, t), atol=1e-12)


def test_exact_kernel_symmetry_and_diagonal():
    a, b = random_tuples(2, seed=23)
    gamma = (1.0, 0.25)
    kab = exact_kernel("joint", a, b, gamma)
    kba = exact_kernel("joint", b, a, gamma)
    assert kab == pytest.approx(kba, abs=1e-12)
    assert exact_kernel("product", a, a, gamma) > 0
    with pytest.raises(DomainError):
        exact_kernel("rbf", a, b, gamma)


def test_exact_gauss_kernel_matches_double_quadrature():
    g1, g2 = Gaussian1D(0.5, 1.2), Gaussian1D(-0.7, 0.6)
    gamma = 0.9
    x, wx = helpers.composite_gl(-10.0, 10.0, 2000)
    p1 = wx * np.exp(g1.log_pdf(x))
    p2 = wx * np.exp(g2.log_pdf(x))
    kmat = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * gamma**2))
    brute = p1 @ kmat @ p2
    assert exact_gauss_kernel(g1, g2, gamma) == pytest.approx(brute, abs=1e-8)


def test_gram_matrix_is_psd():
    spec = draw_rff(2, 200, (1.0, 0.25), np.random.default_rng(24))
    phi = joint_features_batch(spec, random_tuples(50, seed=25))
    gram = phi @ phi.T
    gram = (gram + gram.T) / 2.0
    assert np.linalg.eigvalsh(gram).min() >= -1e-8


def test_expected_features_bit_deterministic():
    spec = draw_rff(1, 128, 1.0, np.random.default_rng(26))
    b = BetaDist(2.5, 4.0)
    np.testing.assert_array_equal(
        expected_feature_beta(spec, b), expected_feature_beta(spec, b)
    )
    g = Gaussian1D(0.2, 0.7)
    np.testing.assert_array_equal(
        expected_feature_gaussian(spec, g), expected_feature_gaussian(spec, g)
    )


def test_beta_cf_escalates_for_rough_density():
    # endpoint-singular Beta needs more than the base order
    omega = np.linspace(0.5, 40.0, 64)
    cf = beta_cf(omega, [BetaDist(0.5, 0.5)])[0]
    rng = np.random.default_rng(27)
    z = rng.beta(0.5, 0.5, size=200_000)
    mc = np.exp(1j * np.outer(omega, z)).mean(axis=1)
    assert np.max(np.abs(cf - mc)) < 0.01


def test_beta_cf_batch_rows_match_single():
    # the batch converges on its maximum, so a row may sit at a higher order
    omega = np.random.default_rng(29).normal(0.0, 8.0, size=40)
    betas = [BetaDist(0.5, 0.5), BetaDist(2.0, 3.0), BetaDist(400.0, 300.0)]
    batch = beta_cf(omega, betas)
    assert batch.shape == (3, 40)
    for row, b in zip(batch, betas):
        np.testing.assert_allclose(row, beta_cf(omega, [b])[0], rtol=0, atol=1e-8)
    with pytest.raises(DomainError):
        beta_cf(omega, [BetaDist(2.0, 3.0), BetaDist(0.0, 1.0)])


def test_empty_batches_raise_domain_error():
    omega = np.random.default_rng(30).normal(0.0, 8.0, size=40)
    with pytest.raises(DomainError, match="empty"):
        beta_cf(omega, [])
    rng = np.random.default_rng(31)
    inner = draw_rff(2, 8, (1.0, 0.25), rng)
    spec = TwoStageSpec(inner, np.zeros(8), np.eye(8)[:, :3], draw_rff(3, 16, 1.0, rng))
    for s in (inner, spec):
        with pytest.raises(DomainError, match="empty"):
            joint_features_batch(s, [])


def test_beta_cf_phase_cache():
    rng = np.random.default_rng(28)
    omega = rng.normal(0.0, 8.0, size=50)
    b = BetaDist(2.5, 1.5)
    phases = {}
    cold = beta_cf(omega, [b], phases)
    assert len(phases) >= 2
    assert sorted(phases) == [kernels.QUAD_ORDER * 2**k for k in range(len(phases))]
    # the memoized matrices are read-only
    for order, matrix in phases.items():
        assert matrix.shape == (50, order) and not matrix.flags.writeable
    held = dict(phases)
    # bit-identical to building every phase matrix afresh
    np.testing.assert_array_equal(beta_cf(omega, [b], phases), cold)
    np.testing.assert_array_equal(beta_cf(omega, [b]), cold)
    # a second Beta on the same frequencies reuses the entries and adds none
    second = BetaDist(3.0, 2.0)
    np.testing.assert_array_equal(beta_cf(omega, [second], phases), beta_cf(omega, [second]))
    assert phases.keys() == held.keys() and all(phases[o] is held[o] for o in held)

    # the operator keeps the memo for its inner frequencies, and absorb carries it
    inner = draw_rff(2, 50, (1.0, 0.25), rng)
    spec = TwoStageSpec(inner, np.zeros(50), np.eye(50)[:, :3], draw_rff(3, 16, 1.0, rng))
    op = operator.MessageOperator(
        spec, fit(rng.normal(size=(16, 30)), rng.normal(size=(2, 30)), 1e-3)
    )
    inc = IncomingTuple(Gaussian1D(0.2, 1.3), b)
    np.testing.assert_array_equal(operator.featurize(op, inc), joint_features(spec, inc))
    memo = op._phases
    assert len(memo) >= 2 and not any(m.flags.writeable for m in memo.values())
    absorbed = operator.absorb(op, inc, np.array([0.1, -1.0]))
    assert absorbed._phases is memo


def test_quadrature_cap_raises(monkeypatch):
    monkeypatch.setattr("kernelep.kernels.QUAD_ORDER_CAP", 64)
    with pytest.raises(QuadratureError):
        beta_cf(np.array([1.0]), [BetaDist(0.5, 0.5)])
    with pytest.raises(QuadratureError):
        beta_cf(np.array([1.0]), [BetaDist(0.5, 0.5), BetaDist(2.0, 3.0)])
    with pytest.raises(QuadratureError):
        exact_beta_kernel(BetaDist(0.5, 0.5), BetaDist(2.0, 3.0), 0.25)


def test_gaussian_cf_known_value():
    got = gaussian_cf(np.array([1.0]), Gaussian1D(0.0, 1.0))[0]
    assert got == pytest.approx(math.exp(-0.5), abs=1e-15)
    with pytest.raises(DomainError):
        gaussian_cf(np.array([1.0]), Gaussian1D(0.0, -1.0))


def test_median_heuristic_hand_case():
    tuples = [
        IncomingTuple(Gaussian1D(0.0, 1.0), BetaDist(2.0, 2.0)),
        IncomingTuple(Gaussian1D(1.0, 1.0), BetaDist(2.0, 6.0)),
        IncomingTuple(Gaussian1D(3.0, 1.0), BetaDist(6.0, 2.0)),
    ]
    gx, gz = median_heuristic(tuples)
    assert gx == pytest.approx(2.0)  # pairwise distances {1, 2, 3}
    means = sorted(t.m_z.mean for t in tuples)
    expected = np.median(
        [abs(a - b) for i, a in enumerate(means) for b in means[:i]]
    )
    assert gz == pytest.approx(float(expected))


def test_median_heuristic_degenerate_falls_back():
    tuples = [
        IncomingTuple(Gaussian1D(1.0, 0.25), BetaDist(3.0, 3.0)) for _ in range(4)
    ]
    gx, gz = median_heuristic(tuples)
    assert gx == pytest.approx(0.5)  # mean std of the Gaussians
    assert gz > 0
    with pytest.raises(DomainError):
        median_heuristic(tuples[:1])


def two_stage_spec(inner_width, outer_width, k, seed, n_fit=300):
    """Two-stage spec fitted, as train_operator fits it, to prior-box embeddings."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    inner = draw_rff(2, inner_width, (1.0, 0.25), rng)
    emb = joint_features_batch(inner, random_tuples(n_fit, seed=seed + 1))
    center, projection = principal_projection(emb, k)
    sigma = median_distance((emb - center) @ projection)
    return TwoStageSpec(inner, center, projection, draw_rff(k, outer_width, sigma, rng))


def test_two_stage_feature_fidelity_at_full_width():
    # Each summand of a width-D feature dot product has variance <= 1, so
    # 4 / sqrt(D) is four standard deviations at D = 2000.
    spec = two_stage_spec(500, 2000, 32, seed=50)
    sigma = float(spec.outer.bandwidth[0])
    bound = 4.0 / math.sqrt(2000)
    worst = 0.0
    tuples = random_tuples(200, seed=52)
    for a, b in zip(tuples[::2], tuples[1::2]):
        diff = spec.projection.T @ (
            joint_features(spec.inner, a) - joint_features(spec.inner, b)
        )
        exact = math.exp(-float(diff @ diff) / (2.0 * sigma**2))
        approx = float(joint_features(spec, a) @ joint_features(spec, b))
        worst = max(worst, abs(approx - exact))
    assert worst <= bound


def test_two_stage_batch_matches_single():
    spec = two_stage_spec(64, 96, 8, seed=53, n_fit=40)
    tuples = random_tuples(7, seed=55)
    batch = joint_features_batch(spec, tuples)
    assert batch.shape == (7, 96)
    for i, t in enumerate(tuples):
        np.testing.assert_allclose(batch[i], joint_features(spec, t), atol=1e-12)


def test_principal_projection_orthonormal_and_ordered():
    rng = np.random.default_rng(56)
    emb = rng.normal(size=(60, 10)) * np.linspace(3.0, 0.1, 10)
    center, proj = principal_projection(emb, 4)
    np.testing.assert_allclose(center, emb.mean(axis=0))
    np.testing.assert_allclose(proj.T @ proj, np.eye(4), atol=1e-12)
    spread = ((emb - center) @ proj).var(axis=0)
    assert np.all(np.diff(spread) <= 0.0)
    again = principal_projection(emb[::-1], 4)[1]
    np.testing.assert_allclose(again, proj, atol=1e-10)  # signs are canonical
    with pytest.raises(DomainError):
        principal_projection(emb, 11)


def test_median_distance_fallbacks():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert median_distance(pts) == pytest.approx(5.0)  # most pairs coincide
    assert median_distance(np.zeros((3, 2))) == 1.0
    assert median_distance(np.array([[0.0], [1.0], [3.0]])) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        median_distance(np.zeros((1, 2)))


def test_two_stage_spec_validates_shapes():
    inner = draw_rff(2, 16, (1.0, 0.25), np.random.default_rng(57))
    outer = draw_rff(4, 32, 1.0, np.random.default_rng(58))
    with pytest.raises(DomainError):
        TwoStageSpec(inner, np.zeros(16), np.zeros((16, 3)), outer)
    with pytest.raises(DomainError):
        TwoStageSpec(draw_rff(1, 16, 1.0, np.random.default_rng(59)),
                     np.zeros(16), np.zeros((16, 4)), outer)
    spec = TwoStageSpec(inner, np.zeros(16), np.zeros((16, 4)), outer)
    assert spec.num_features == 32
