import math
import mmap
import os
import warnings

import numpy as np
import pytest

import helpers
from helpers import (
    exact_beta_kernel,
    exact_gauss_kernel,
    exact_kernel,
    expected_feature_beta,
    expected_feature_gaussian,
)
from kernelep import buffers, kernels, operator
from kernelep.errors import DomainError, QuadratureError
from kernelep.expfam import BetaDist, Gaussian1D
from kernelep.factors import IncomingPrior, IncomingTuple, sample_incoming
from kernelep.kernels import (
    PointFeatures,
    RffSpec,
    TwoStageSpec,
    beta_cf,
    draw_rff,
    embedding_features,
    gaussian_cf,
    joint_features_batch,
    median_distance,
    median_heuristic,
    principal_projection,
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
    with pytest.raises(DomainError, match="num_features"):
        draw_rff(2, 2.5, 1.0, np.random.default_rng(0))
    with pytest.raises(DomainError, match="input_dim"):
        draw_rff(True, 8, 1.0, np.random.default_rng(0))
    # each entry meets errors.real before NumPy, which reads True and "1" as 1.0
    for bad in ("a", True, math.inf, math.nan, ("1", 2.0), (True, 2.0), (1.0, -2.0)):
        with pytest.raises(DomainError, match="bandwidth"):
            draw_rff(2, 8, bad, np.random.default_rng(0))
    spec = draw_rff(2, 8, (1.0, np.float64(0.5)), np.random.default_rng(0))
    for bad in ("a", True, math.inf, 0.0, (2.0, "1")):
        with pytest.raises(DomainError, match="bandwidth multiplier"):
            rescale(spec, bad)
    np.testing.assert_array_equal(rescale(spec, (2, 4.0)).bandwidth, [2.0, 2.0])


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


@pytest.mark.parametrize("D, N", [(600, 600), (512, 1000), (2000, 2000)])
def test_point_features_blocks_are_rff_points_bits(D, N):
    # every block training takes: 256 features with the points permuted,
    # 128 and 256 points, every point permuted, and the whole matrix
    rng = np.random.default_rng(D + N)
    spec = draw_rff(16, D, 1.3, rng)
    points = rng.normal(size=(N, 16))
    full = rff_point(spec, points).T
    lazy = PointFeatures(spec, points)
    assert lazy.shape == full.shape
    whole = np.asarray(lazy)
    assert whole.tobytes() == full.tobytes() and whole.flags.f_contiguous
    perm = rng.permutation(N)
    blocks = [(slice(i, i + 256), perm) for i in range(0, D, 256)]
    blocks += [(slice(None), slice(j, j + w)) for w in (128, 256) for j in range(0, N, w)]
    blocks.append((slice(None), perm))
    for rows, cols in blocks:
        block = lazy[rows, cols]
        assert block.flags.f_contiguous
        assert block.tobytes("F") == full[rows][:, cols].tobytes("F")
    with pytest.raises(DomainError, match="input dimension"):
        PointFeatures(spec, points[:, :3])
    with pytest.raises(ValueError):
        np.asarray(lazy, copy=False)


def test_point_features_blocks_of_512_cases_are_embedding_features_rows():
    # training's lazy blocks of 512 cases at D = 2000 against inference's
    # outer features of the same embeddings, whole and in 512-row batches
    rng = np.random.default_rng(2512)
    inner = draw_rff(2, 200, (1.0, 0.25), rng)
    emb = joint_features_batch(inner, random_tuples(1200, seed=2513))
    center, projection, _ = principal_projection(emb, 16)
    spec = TwoStageSpec(inner, center, projection, draw_rff(16, 2000, 1.0, rng))
    lazy = PointFeatures(spec.outer, kernels._project(center, projection, emb))
    rows = embedding_features(spec, emb)
    for j in range(0, len(emb), 512):
        block = lazy[:, j : j + 512]
        assert block.tobytes("F") == rows[j : j + 512].T.tobytes("F")
        assert block.tobytes("F") == embedding_features(spec, emb[j : j + 512]).T.tobytes("F")


@pytest.mark.parametrize(
    "points, features, slices, over",
    [
        (2000, 256, [64] * 31 + [16], 0),  # a cross-validation block
        (256, 2000, [8] * 32, 0),  # a refit block
        (128, 2000, [8] * 16, 0),  # a tau chunk
        (2001, 2000, [8] * 249 + [9], 1),  # a last row joins the slice before it
        (2003, 2000, [8] * 250 + [3], 0),
        (256, 2048, [8] * 32, 0),  # the narrowest slices
        (64, 20000, [64], 1),  # 8 rows would wake the pool: one product
    ],
)
def test_serial_matmul_has_one_products_bits(monkeypatch, points, features, slices, over):
    # training's block shapes at 16 inputs, the points fold-permuted: the
    # slices stay within OpenBLAS's serial threshold, but for `over` of
    # them, and hold the bits of one product over the same rows at any BLAS
    # thread count.  The reference is the product over the rows up to a
    # multiple of 8: a threaded product over 2001 or 2003 rows splits them
    # off that grid under OpenBLAS's Haswell kernels, so its own bits depend
    # on the thread count
    rng = np.random.default_rng(points + features)
    pts = rng.normal(size=(max(points, 2000), 16))[rng.permutation(max(points, 2000))[:points]]
    freqs = rng.normal(size=(features, 16)).T
    aligned = points // 8 * 8
    want = pts[:aligned] @ freqs
    seen, matmul = [], np.matmul

    def counting(a, b, out):
        seen.append((len(a), len(a) * b.size))
        return matmul(a, b, out=out)

    monkeypatch.setattr(kernels.np, "matmul", counting)
    got = kernels._serial_matmul(pts, freqs, np.empty((points, features)))
    monkeypatch.undo()
    assert got[:aligned].tobytes() == want.tobytes()
    assert [rows for rows, _ in seen] == slices
    assert sum(mnk > kernels._SERIAL_GEMM for _, mnk in seen) == over


def test_serial_matmul_of_a_refit_block_and_its_targets():
    # _gram_sums' B Y_B^T: a Fortran-ordered block of 256 cases at
    # D = 2000 against two targets, in slices of 512 rows
    rng = np.random.default_rng(2256)
    block = np.asfortranarray(rng.normal(size=(2000, 256)))
    targets = rng.normal(size=(2, 256)).T
    want = block @ targets
    assert kernels._serial_matmul(block, targets, np.empty(want.shape)).tobytes() == want.tobytes()


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
        f1 = np.kron(expected_feature_gaussian(spec_x, g1), fz)
        f2 = np.kron(expected_feature_gaussian(spec_x, g2), fz)
        exact = exact_gauss_kernel(g1, g2, 1.0) * exact_beta_kernel(flat, flat, 0.25)
        assert abs(f1 @ f2 - exact) <= 0.05


def test_product_kernel_self_similarity():
    spec_x = draw_rff(1, 2000, 1.0, np.random.default_rng(17))
    spec_z = draw_rff(1, 40, 0.25, np.random.default_rng(18))
    t = IncomingTuple(Gaussian1D(0.3, 1.2), BetaDist(3.0, 5.0))
    f = np.kron(
        expected_feature_gaussian(spec_x, t.m_x), expected_feature_beta(spec_z, t.m_z)
    )
    exact = exact_kernel(t, t, (1.0, 0.25))
    assert abs(f @ f - exact) <= 0.05


def test_joint_features_beta_point_mass_collapse():
    spec = draw_rff(2, 600, (1.0, 0.3), np.random.default_rng(19))
    inc = IncomingTuple(Gaussian1D(0.4, 1.5), BetaDist(500.0, 500.0))
    got = joint_features_batch(spec, [inc])[0]
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
        diff = np.abs(joint_features_batch(spec, [inc])[0] - mc)
        assert np.all(diff <= 3.0 * se + 1e-12), f"seed {seed}"


def test_joint_self_kernel_matches_quadrature_oracle():
    spec = draw_rff(2, 2000, (1.0, 0.25), np.random.default_rng(20))
    t = IncomingTuple(Gaussian1D(-0.5, 0.8), BetaDist(4.0, 2.0))
    f = joint_features_batch(spec, [t])[0]
    assert abs(f @ f - exact_kernel(t, t, (1.0, 0.25))) <= 0.05


def test_joint_batch_matches_single():
    spec = draw_rff(2, 64, (1.0, 0.3), np.random.default_rng(21))
    tuples = random_tuples(7, seed=22)
    batch = joint_features_batch(spec, tuples)
    for i, t in enumerate(tuples):
        np.testing.assert_allclose(batch[i], joint_features_batch(spec, [t])[0], atol=1e-12)


def test_exact_kernel_symmetry_and_diagonal():
    a, b = random_tuples(2, seed=23)
    gamma = (1.0, 0.25)
    kab = exact_kernel(a, b, gamma)
    kba = exact_kernel(b, a, gamma)
    assert kab == pytest.approx(kba, abs=1e-12)
    assert exact_kernel(a, a, gamma) > 0


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
    with pytest.raises(DomainError, match="empty"):
        joint_features_batch(inner, [])
    # the batch takes the inner spec only; embedding_features adds the outer stage
    with pytest.raises(DomainError, match="2-dim RffSpec"):
        joint_features_batch(spec, random_tuples(2, seed=32))


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
    np.testing.assert_array_equal(
        operator.featurize(op, inc.m_x, inc.m_z),
        embedding_features(spec, joint_features_batch(inner, [inc])[0]),
    )
    memo = op._phases
    assert len(memo) >= 2 and not any(m.flags.writeable for m in memo.values())
    phi = operator.featurize(op, inc.m_x, inc.m_z)
    absorbed = operator.absorb(op, phi, Gaussian1D(0.1, 0.4))
    assert absorbed._phases is memo


def test_quadrature_cap_raises(monkeypatch):
    monkeypatch.setattr("kernelep.kernels.QUAD_ORDER_CAP", 64)
    with pytest.raises(QuadratureError):
        beta_cf(np.array([1.0]), [BetaDist(0.5, 0.5)])
    with pytest.raises(QuadratureError):
        beta_cf(np.array([1.0]), [BetaDist(0.5, 0.5), BetaDist(2.0, 3.0)])
    with pytest.raises(QuadratureError):
        exact_beta_kernel(BetaDist(0.5, 0.5), BetaDist(2.0, 3.0), 0.25)


@pytest.mark.parametrize(
    "alpha, beta", [(1e4, 1e4), (1e5, 1e5), (1e6, 1e6), (0.1, 1.0), (0.01, 1.0)]
)
def test_beta_cf_refuses_a_rule_that_lost_the_density(alpha, beta):
    # a sharp Beta falls between the nodes, and a small alpha puts its mass
    # below z ~ 2e-14, the smallest node: every order integrated it to
    # about 0 (or short by 4-73%), and successive orders agreed.  Beta(1e4,
    # 1e4) holds its mass by order 4096 but its orders 2048 and 4096 still
    # differ past QUAD_TOL, so it is refused too, not answered 0
    omega = np.array([1.0, 20.0, 60.0])
    for betas in ([BetaDist(alpha, beta)], [BetaDist(2.0, 3.0), BetaDist(alpha, beta)]):
        with pytest.raises(QuadratureError, match="by order 4096; mass off 1 by"):
            beta_cf(omega, betas)


def test_beta_cf_mass_rule_moves_no_in_box_order(monkeypatch):
    # in-box Betas integrate to 1 within about 2e-13 at every order they
    # reach, so without the mass rule they stop at the same orders with the
    # same bits; Beta(0.5, 0.5) and Beta(0.3, 2), short by 1.9e-7 and
    # 1.0e-4 at every order, are inside MASS_TOL
    rng = np.random.default_rng(2041)
    omega = rng.normal(0.0, 8.0, size=50)
    betas = [BetaDist(*rng.uniform(1.0, 10.0, size=2)) for _ in range(100)]
    betas += [BetaDist(0.5, 0.5), BetaDist(0.3, 2.0)]

    def runs():
        out = []
        for b in betas:
            phases = {}
            out.append((beta_cf(omega, [b], phases).tobytes(), sorted(phases)))
        return out, beta_cf(omega, betas).tobytes()

    with_rule = runs()
    monkeypatch.setattr("kernelep.kernels.MASS_TOL", math.inf)
    assert runs() == with_rule
    for b, lost in ((BetaDist(0.5, 0.5), 1.9e-7), (BetaDist(0.3, 2.0), 1.0e-4)):
        mass = beta_cf(np.zeros(1), [b])[0, 0].real
        assert lost / 2 < 1.0 - mass < kernels.MASS_TOL


def test_batched_beta_cf_gives_the_whole_batch_rows_and_order(monkeypatch):
    # 2 blocks of box Betas and 77 more at inner width 500, with the sharp
    # Beta(900, 800) in the second block to carry the batch past the box
    # Betas' order 256: the blocked densities, products and order
    # comparisons give the rows and the accepted order of
    # helpers.whole_batch_beta_cf bit for bit, and so does one Beta
    rng = np.random.default_rng(2043)
    omega = draw_rff(2, 500, (1.0, 0.25), rng).frequencies[:, 1]
    betas = [BetaDist(*rng.uniform(1.0, 10.0, size=2)) for _ in range(2 * kernels._BETA_ROWS + 77)]
    betas[300] = BetaDist(900.0, 800.0)
    orders, accepted = [], []
    unit_gl = kernels._unit_gl

    def recorded(order):
        orders.append(order)
        return unit_gl(order)

    for batch in (betas, betas[:1], betas[300:301]):
        want, order = helpers.whole_batch_beta_cf(omega, batch)
        orders.clear()
        monkeypatch.setattr(kernels, "_unit_gl", recorded)
        got = beta_cf(omega, batch)
        monkeypatch.setattr(kernels, "_unit_gl", unit_gl)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert max(orders) == order
        accepted.append(order)
    assert accepted == [2048, 256, 2048]


def test_float_quadratures_keep_their_convergence_rule():
    # exact_beta_kernel hands _until_converged a float per order, which is
    # compared whole; a batch's rows are compared a block at a time, and a
    # nan in the last block still refuses convergence
    value = exact_beta_kernel(BetaDist(2.0, 3.0), BetaDist(4.0, 1.5), 0.25)
    assert isinstance(value, float) and 0.0 < value < 1.0
    rng = np.random.default_rng(2044)
    prev = rng.normal(size=(600, 7)) + 1j * rng.normal(size=(600, 7))
    cur = prev + rng.normal(scale=1e-9, size=prev.shape)
    assert kernels._largest_change(cur, prev) == np.max(np.abs(cur - prev))
    assert kernels._largest_change(2.5, 2.0) == 0.5
    cur[599, 3] = np.nan
    assert np.isnan(kernels._largest_change(cur, prev))


def test_large_transients_are_mapped_and_small_ones_are_not():
    # a mapped array is unmapped when freed; below _MAPPED_BYTES NumPy
    # allocates, as an operator's one-message arrays are far below it
    big = buffers._transient((buffers._MAPPED_BYTES // 16, 2), complex)
    assert big.shape == (buffers._MAPPED_BYTES // 16, 2) and big.dtype == complex
    assert big.flags.writeable and big.flags.c_contiguous
    assert isinstance(big.base.base.obj, mmap.mmap)
    small = buffers._transient((500,))
    assert small.base is None and small.dtype == float
    assert buffers._transient((0, 7)).shape == (0, 7)
    assert kernels._transient is buffers._transient


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_writes_its_own_copy_of_a_transient():
    # the mapping is private: a shared one would carry the child's writes
    # into the parent's array
    mapped = buffers._transient((buffers._MAPPED_BYTES // 8,))
    mapped[:] = 1.0
    with warnings.catch_warnings():
        # Python 3.12 warns when a process with threads (BLAS's) forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        mapped[:] = 2.0
        os._exit(0 if mapped[-1] == 2.0 else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert np.all(mapped == 1.0)


def test_gaussian_cf_known_value():
    # frequency 1 on x; the second coordinate's frequency is unused
    spec = RffSpec(np.array([[1.0, 3.0]]), np.array([0.0]), np.array([1.0, 1.0]))
    got = gaussian_cf(spec, Gaussian1D(0.0, 1.0))[0]
    assert got == pytest.approx(math.exp(-0.5), abs=1e-15)
    got = gaussian_cf(spec, Gaussian1D(0.5, 2.0))[0]
    assert got == pytest.approx(math.exp(-1.0) * complex(math.cos(0.5), math.sin(0.5)), abs=1e-15)
    with pytest.raises(DomainError):
        gaussian_cf(spec, Gaussian1D(0.0, -1.0))


def _pdist(points):
    """scipy's pdist, the reference: "cityblock" on a 1-D vector's one
    coordinate, Euclidean on (n, k) points."""
    from scipy.spatial.distance import pdist

    return pdist(points[:, None], "cityblock") if points.ndim == 1 else pdist(points)


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
    # past one block of rows: x falls back, z takes pdist's median
    tuples = [
        IncomingTuple(Gaussian1D(0.5, 0.25 + i), BetaDist(2.0 + i, 3.0)) for i in range(70)
    ]
    gx, gz = median_heuristic(tuples)
    assert gx == float(np.mean([math.sqrt(0.25 + i) for i in range(70)]))
    assert gz == float(np.median(_pdist(np.array([t.m_z.mean for t in tuples]))))


def two_stage_spec(inner_width, outer_width, k, seed, n_fit=300):
    """Two-stage spec fitted, as train_operator fits it, to prior-box embeddings."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    inner = draw_rff(2, inner_width, (1.0, 0.25), rng)
    emb = joint_features_batch(inner, random_tuples(n_fit, seed=seed + 1))
    center, projection, _ = principal_projection(emb, k)
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
        ea = joint_features_batch(spec.inner, [a])[0]
        eb = joint_features_batch(spec.inner, [b])[0]
        diff = spec.projection.T @ (ea - eb)
        exact = math.exp(-float(diff @ diff) / (2.0 * sigma**2))
        approx = float(embedding_features(spec, ea) @ embedding_features(spec, eb))
        worst = max(worst, abs(approx - exact))
    assert worst <= bound


def test_two_stage_batch_matches_single():
    spec = two_stage_spec(64, 96, 8, seed=53, n_fit=40)
    tuples = random_tuples(7, seed=55)
    batch = embedding_features(spec, joint_features_batch(spec.inner, tuples))
    assert batch.shape == (7, 96)
    for i, t in enumerate(tuples):
        single = embedding_features(spec, joint_features_batch(spec.inner, [t])[0])
        np.testing.assert_allclose(batch[i], single, atol=1e-12)


def test_principal_projection_orthonormal_and_ordered():
    rng = np.random.default_rng(56)
    emb = rng.normal(size=(60, 10)) * np.linspace(3.0, 0.1, 10)
    center, proj, centred = principal_projection(emb, 4)
    np.testing.assert_allclose(center, emb.mean(axis=0))
    # the centred copy is e - center, bit for bit, and leaves emb as it was
    assert centred.tobytes() == (emb - center).tobytes()
    assert kernels._project(None, proj, centred).tobytes() == kernels._project(
        center, proj, emb
    ).tobytes()
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
    # the same fallbacks past one block of rows
    mostly = np.vstack([np.zeros((kernels._PAIR_ROWS + 6, 16)), np.eye(16)[:3]])
    assert median_distance(mostly) == math.sqrt(2.0)
    assert median_distance(np.zeros((kernels._PAIR_ROWS + 3, 2))) == 1.0
    with pytest.raises(DomainError):
        median_distance(np.zeros((1, 2)))


@pytest.mark.parametrize("points", [
    np.array([0.5, -1.25]),
    np.array([[0.5, 2.0, -1.0], [0.25, 3.0, 1.0]]),
    # 1-D differences whose squares underflow to zero
    np.array([1e-170, 2e-170, 4.5e-170, -1e-170]),
    np.random.default_rng(60).normal(size=(2 * kernels._PAIR_ROWS + 5, 16)),
    np.random.default_rng(61).normal(size=2 * kernels._PAIR_ROWS + 5) * 1e3,
    np.random.default_rng(62).uniform(size=(kernels._PAIR_ROWS + 1, 1)),
    # duplicates: most pairs coincide, or all do (median_distance's fallbacks)
    np.repeat(np.random.default_rng(63).normal(size=(4, 3)), 9, axis=0),
    np.vstack([np.zeros((kernels._PAIR_ROWS + 6, 16)), np.eye(16)[:3]]),
    np.zeros((kernels._PAIR_ROWS + 3, 2)),
])
def test_pairwise_distances_are_pdists_bits(points):
    got = kernels._pairwise_distances(points)
    ref = _pdist(points)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


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
