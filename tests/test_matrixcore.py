import numpy as np
import pytest

from sep2n.matrixcore import (
    DEFAULT_TOL,
    DensityState,
    ToleranceConfig,
    _spectral_pinv,
    hermitize,
    numerical_rank_kernel,
    operator_norm,
    operator_norm_at_most,
    partial_transpose_matrix,
    psd_difference_check,
    split_at_cutoff,
    within_psd_tol,
)
from sep2n.productfinder import ProductVector

from helpers import (
    build_separable,
    eig_rank,
    partial_expectation,
    power_iteration_norm,
    psd_difference_oracle,
    random_product_vector,
    random_psd,
    random_pt_invariant,
)


def test_tolerance_config_validation():
    ToleranceConfig()
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel_tol=2.0)
    with pytest.raises(ValueError):
        ToleranceConfig(psd_tol=-1e-9)
    for value in (np.nan, np.inf, np.float32(np.inf), 10 ** 400):
        with pytest.raises(ValueError, match="psd_tol must be finite and > 0"):
            ToleranceConfig(psd_tol=value)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), "1e-9", 1e-9 + 0j, None, [1e-9]])
def test_tolerance_config_rejects_non_real_values(value):
    with pytest.raises(ValueError, match="psd_tol must be a real number"):
        ToleranceConfig(psd_tol=value)


@pytest.mark.parametrize("value", [1, np.float64(1e-9), np.float32(1e-9), np.int64(1)])
def test_tolerance_config_keeps_the_type_of_a_real_value(value):
    tol = ToleranceConfig(psd_tol=value)
    assert type(tol.as_dict()["psd_tol"]) is type(value)
    assert DensityState(np.eye(4), tol=tol).tol.psd_tol == value


def test_default_tolerances_are_shared():
    m = np.eye(4)
    assert DensityState(m).tol is DensityState(m).tol is DEFAULT_TOL == ToleranceConfig()


class TestPartialTranspose:
    def test_identity_fixed_point(self):
        m = np.eye(4, dtype=complex)
        assert np.allclose(partial_transpose_matrix(m, 2), m)

    def test_product_projector_maps_to_conjugate(self):
        rng = np.random.default_rng(0)
        pv = random_product_vector(rng, 3)
        pt = partial_transpose_matrix(pv.projector(), 3)
        partner = pv.conjugate_partner.projector()
        assert np.allclose(pt, partner, atol=1e-12)

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = rng.integers(1, 5)
            m = hermitize(rng.standard_normal((2 * n, 2 * n))
                          + 1j * rng.standard_normal((2 * n, 2 * n)))
            pt = partial_transpose_matrix(m, n)
            assert np.allclose(partial_transpose_matrix(pt, n), m)
            assert abs(np.trace(pt) - np.trace(m)) < 1e-12
            assert np.allclose(pt, pt.conj().T, atol=1e-12)

    def test_block_identity_under_qubit_contraction(self):
        # <e_i| rho |e_j> equals <e_j*| rho^TA |e_i*> as N x N blocks
        rng = np.random.default_rng(2)
        n = 4
        m = hermitize(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        pt = partial_transpose_matrix(m, n)
        for _ in range(10):
            ei = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            ej = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = partial_expectation(m, n, ei, ej)
            rhs = partial_expectation(pt, n, np.conj(ej), np.conj(ei))
            assert np.allclose(lhs, rhs, atol=1e-12)


class TestRankKernel:
    def test_zero_matrix(self):
        info = numerical_rank_kernel(np.zeros((4, 4)))
        assert info.rank == 0
        assert info.kernel_basis.shape == (4, 4)

    def test_rank_one_projector(self):
        v = np.array([1.0, 1j, 0.0, -1.0]) / np.sqrt(3)
        info = numerical_rank_kernel(np.outer(v, v.conj()))
        assert info.rank == 1
        assert info.kernel_basis.shape[1] == 3

    def test_three_product_projectors_rank_three(self):
        rng = np.random.default_rng(4)
        m, _, _ = build_separable(rng, 3, 3)
        info = numerical_rank_kernel(m)
        assert info.rank == eig_rank(m) == 3
        # rank + kernel dimension covers the space, bases orthonormal
        assert info.rank + info.kernel_basis.shape[1] == 6
        assert np.allclose(info.kernel_basis.conj().T @ info.kernel_basis, np.eye(3), atol=1e-10)
        assert np.linalg.norm(m @ info.kernel_basis) < 1e-10

    def test_rank_stable_under_small_perturbation(self):
        rng = np.random.default_rng(5)
        m, _, _ = build_separable(rng, 4, 5)
        state = DensityState(m)
        noise = hermitize(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        noise *= 1e-13 * state.norm / np.linalg.norm(noise, 2)
        perturbed = DensityState(m + noise)
        assert perturbed.rank == state.rank
        assert perturbed.pt_rank == state.pt_rank


def pt_invariant_bytes(rng, n):
    """A state whose symmetrized matrix equals its partial transpose byte for byte."""
    m = random_pt_invariant(rng, n)
    return hermitize((m + partial_transpose_matrix(m, n)) / 2)


def assert_eager_pt_fields(state):
    """The PT fields equal those of an ``eigh`` of ``pt_matrix`` taken now."""
    w, v = np.linalg.eigh(state.pt_matrix)
    assert state._pt_eigvals.tobytes() == w.tobytes()
    assert state._pt_eigvecs.tobytes() == v.tobytes()
    assert state.pt_min_eigenvalue == float(w[0])
    mags = np.abs(w)
    keep = mags > state.tol.rank_rel_tol * np.max(mags)
    order = np.argsort(-mags)
    assert state.pt_rank == int(np.count_nonzero(keep))
    assert state.pt_range_basis.tobytes() == v[:, [i for i in order if keep[i]]].tobytes()
    assert state.pt_kernel_basis.tobytes() == v[:, [i for i in order if not keep[i]]].tobytes()


class TestLazyTransposeSpectrum:
    """The partial transpose's spectrum is computed at construction, and shared when equal.

    The name predates eager construction; it stays so that the ids of these
    tests stay stable.
    """

    def test_bytewise_invariant_state_shares_the_spectrum(self):
        rng = np.random.default_rng(70)
        for n in (1, 2, 3, 5):
            state = DensityState(pt_invariant_bytes(rng, n))
            assert state.pt_matrix.tobytes() == state.matrix.tobytes()
            assert state._pt_eigvecs is state._eigvecs
            assert (state.pt_rank, state.pt_range_basis) == (state.rank, state.range_basis)
            assert state.pt_pseudoinverse().tobytes() == state.pseudoinverse().tobytes()
            assert_eager_pt_fields(state)

    def test_signed_zero_difference_does_not_share(self):
        # the transpose's off-diagonal block differs only in the sign of an
        # imaginary zero, so it compares equal but not byte for byte
        m = np.eye(4, dtype=complex)
        m[0, 2], m[2, 0] = 0.2 + 0.0j, complex(0.2, -0.0)
        state = DensityState(m)
        assert np.array_equal(state.pt_matrix, state.matrix)
        assert state.pt_matrix.tobytes() != state.matrix.tobytes()
        assert state._pt_eigvecs is not state._eigvecs
        assert_eager_pt_fields(state)

    def test_fields_equal_an_eager_eigh(self):
        rng = np.random.default_rng(71)
        npt = np.zeros((4, 4), dtype=complex)
        npt[[0, 0, 3, 3], [0, 3, 0, 3]] = 0.5
        inputs = [build_separable(rng, 3, 4)[0], random_psd(rng, 6), random_psd(rng, 8, rank=3),
                  npt, random_pt_invariant(rng, 4), pt_invariant_bytes(rng, 4),
                  np.zeros((4, 4), dtype=complex)]
        for m in inputs:
            state = DensityState(m, require_psd=False)
            assert_eager_pt_fields(state)

    def test_construction_takes_every_eigh(self, monkeypatch):
        # one eigh when the transpose shares rho's spectrum, two otherwise;
        # no field or pseudoinverse read afterwards takes another
        rng = np.random.default_rng(73)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        npt = np.zeros((4, 4), dtype=complex)
        npt[[0, 0, 3, 3], [0, 3, 0, 3]] = 0.5
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for m, expected in ((pt_invariant_bytes(rng, 3), 1), (np.eye(4, dtype=complex), 1),
                            (build_separable(rng, 3, 4)[0], 2), (random_psd(rng, 6), 2),
                            (npt, 2)):
            calls.clear()
            state = DensityState(m)
            assert len(calls) == expected
            calls.clear()
            for name in ("_pt_eigvals", "_pt_eigvecs", "pt_rank", "pt_kernel_basis",
                         "pt_range_basis", "pt_min_eigenvalue", "warnings", "is_ppt"):
                getattr(state, name)
            state.pseudoinverse()
            state.pt_pseudoinverse()
            assert calls == []

    def test_psd_error_at_construction(self):
        with pytest.raises(ValueError) as exc:
            DensityState(np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))
        assert str(exc.value) == "matrix is not PSD (min eigenvalue -5.000e-01, norm 1.000e+00)"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_trace_at_construction(self):
        # finite entries, a mixture of product projectors, whose trace overflows
        with pytest.raises(ValueError, match=r"^trace inf or norm .* is not finite$"):
            DensityState(np.diag([1.5e308, 1.5e308, 1e308, 5e307]).astype(complex))

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-300, 1e-310, 1e-320])
    def test_psd_test_is_relative_at_every_scale(self, scale):
        # the PSD test of a clearly negative spectrum does not become absolute
        # at subnormal scales, and a PSD one still passes there
        with pytest.raises(ValueError, match="^matrix is not PSD"):
            DensityState(np.diag([1.0, 1.0, 1.0, -0.1]).astype(complex) * scale)
        assert DensityState(np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex) * scale).rank == 3

    def test_warnings_list_rho_before_rho_pt(self):
        line = "{}: 1 eigenvalue(s) within 10x of the rank cutoff"
        shared = DensityState(np.diag([1.0, 2e-9, 1.0, 1.0]).astype(complex))
        assert shared.warnings == [line.format("rho"), line.format("rho_pt")]
        # the transpose alone has an eigenvalue near the cutoff: 1 - c = 2e-9
        m = np.diag([1.0, 3.0, 3.0, 1.0]).astype(complex)
        m[1, 2] = m[2, 1] = 1.0 - 2e-9
        only_pt = DensityState(m)
        assert only_pt.rank == 4
        assert only_pt.warnings == [line.format("rho_pt")]
        # on C2 x C3 the same coupling, plus a small weight on both spectra
        m = np.diag([1.0, 3.0, 6e-9, 3.0, 1.0, 1.0]).astype(complex)
        m[1, 3] = m[3, 1] = 1.0 - 2e-9
        both = DensityState(m)
        assert both.warnings == [line.format("rho"),
                                 "rho_pt: 2 eigenvalue(s) within 10x of the rank cutoff"]

    def test_fields_stay_assignable(self, monkeypatch):
        m = build_separable(np.random.default_rng(72), 3, 3)[0]
        state = DensityState(m)
        state.pt_rank = 4
        assert state.pt_range_basis.shape[1] == 3
        assert state.pt_rank == 4
        other = DensityState(m)
        monkeypatch.setattr(other, "pt_min_eigenvalue", -1.0)
        assert not other.is_ppt
        monkeypatch.undo()
        assert other.is_ppt and other.pt_rank == 3


class TestPseudoinverse:
    def test_diagonal(self):
        m = np.diag([1.0, 2.0]).astype(complex)
        assert np.allclose(DensityState(m).pseudoinverse(), np.diag([1.0, 0.5]))

    def test_projector_is_own_inverse(self):
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        p = np.outer(v, v)
        assert np.allclose(DensityState(p.astype(complex)).pseudoinverse(), p)

    def test_rank_two_psd(self):
        rng = np.random.default_rng(6)
        h = random_psd(rng, 4, rank=2)
        hinv = DensityState(h).pseudoinverse()
        assert np.allclose(h @ hinv @ h, h, atol=1e-10 * np.linalg.norm(h, 2))
        # product is the range projector
        proj = h @ hinv
        assert np.allclose(proj @ proj, proj, atol=1e-10)

    def test_state_pseudoinverses_reuse_cached_spectra(self):
        rng = np.random.default_rng(61)
        rank_deficient, _, _ = build_separable(rng, 3, 4)
        npt = np.zeros((4, 4), dtype=complex)
        npt[[0, 0, 3, 3], [0, 3, 0, 3]] = 0.5  # (|00> + |11>)/sqrt(2), NPT
        for m in (rank_deficient, npt, np.zeros((4, 4), dtype=complex)):
            state = DensityState(m, require_psd=False)
            for pinv, m in ((state.pseudoinverse(), state.matrix),
                            (state.pt_pseudoinverse(), state.pt_matrix)):
                assert np.array_equal(pinv, _spectral_pinv(*np.linalg.eigh(m), state.tol))
        assert state.pseudoinverse() is state.pseudoinverse()


def test_split_at_cutoff():
    tol = ToleranceConfig(rank_rel_tol=1e-3)
    w = np.array([-2.0, 1e-2, 2.1e-3, 1.9e-3, 1e-4, 1e-5, 0.0])
    keep, borderline = split_at_cutoff(w, tol)
    assert keep.tolist() == [True, True, True, False, False, False, False]
    assert borderline == 3  # 1e-2, 2.1e-3 and 1.9e-3 lie within 10x of the cutoff 2e-3
    keep, borderline = split_at_cutoff(np.zeros(3), tol)
    assert not keep.any() and borderline == 0


def test_within_psd_tol():
    tol = ToleranceConfig(psd_tol=1e-6)
    assert within_psd_tol(-1e-6, 1.0, tol) and not within_psd_tol(-1.1e-6, 1.0, tol)
    # relative at every scale: no absolute floor under a tiny or zero scale
    assert within_psd_tol(-1e-316, 1e-310, tol) and not within_psd_tol(-1.1e-316, 1e-310, tol)
    assert within_psd_tol(0.0, 0.0, tol) and not within_psd_tol(-1e-306, 0.0, tol)


class TestPsdDifference:
    def test_rule_is_relative_to_x(self):
        x = np.diag([2.0, 0.0]).astype(complex)
        assert psd_difference_check(x, np.diag([0.0, 1.9e-9]))
        assert not psd_difference_check(x, np.diag([0.0, 2.1e-9]))

    def test_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("svd called")
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rng = np.random.default_rng(9)
        x = random_psd(rng, 4)
        assert psd_difference_check(x, x / 2) and not psd_difference_check(x / 2, x)

    def test_scaled_identity(self):
        assert psd_difference_check(2 * np.eye(3), np.eye(3))

    def test_kernel_containment_failure(self):
        x = np.diag([1.0, 0.0]).astype(complex)
        y = np.diag([0.0, 1.0]).astype(complex)
        assert not psd_difference_check(x, y)

    def test_boundary_at_maximal_weight(self):
        rng = np.random.default_rng(7)
        m, gens, _ = build_separable(rng, 3, 4)
        v = gens[0].vector
        lam0 = 1.0 / float(np.real(np.vdot(v, DensityState(m).pseudoinverse() @ v)))
        proj = np.outer(v, v.conj())
        tol = ToleranceConfig()
        assert psd_difference_check(m, lam0 * proj, tol)
        assert not psd_difference_check(m, lam0 * (1 + 10 * tol.psd_tol) * proj, tol)
        # independent spectral confirmation
        assert psd_difference_oracle(m, lam0 * proj)

    def test_rejects_non_psd_input(self):
        with pytest.raises(ValueError):
            psd_difference_check(np.diag([1.0, -1.0]), np.eye(2))

    def test_agrees_with_spectral_oracle(self):
        rng = np.random.default_rng(8)
        trues = falses = 0
        for _ in range(1000):
            dim = int(rng.integers(2, 6))
            x = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            y = random_psd(rng, dim, rank=int(rng.integers(1, dim + 1)))
            # bias toward genuinely comparable pairs half the time
            if rng.random() < 0.5:
                y = x * rng.uniform(0.2, 1.2) - random_psd(rng, dim) * 1e-3
                y = hermitize(y)
                w = np.linalg.eigvalsh(y)
                if w[0] < 0:
                    y -= w[0] * np.eye(dim)
            margin = np.min(np.linalg.eigvalsh(hermitize(x - y))) / np.linalg.norm(x, 2)
            if abs(margin) <= 1e-7:
                # on the PSD boundary the two tolerance conventions may
                # legitimately split; only decisive pairs are comparable
                continue
            expected = psd_difference_oracle(x, y)
            assert psd_difference_check(x, y) == expected
            trues += int(expected)
            falses += int(not expected)
        assert trues > 100 and falses > 100


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_sign_insensitive(self):
        assert operator_norm(np.diag([3.0, -1.0])) == pytest.approx(3.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            assert operator_norm(m) == pytest.approx(power_iteration_norm(m, rng), abs=1e-10)

    @staticmethod
    def _bounds_around(m):
        """Bounds below, inside and above the entry bracket of m, and at its SVD norm."""
        lower = float(np.max(np.abs(m))) if m.size else 0.0
        upper = np.sqrt(m.size) * lower
        s = operator_norm(m)
        return [0.5 * lower, lower * (1 - 1e-9), lower, (lower + s) / 2, s * (1 - 1e-13), s,
                s * (1 + 1e-13), (s + upper) / 2, upper, upper * (1 + 1e-9), 2 * upper]

    def test_at_most_matches_svd_comparison(self):
        rng = np.random.default_rng(62)
        for scale in (1.0, 1e150, 1e-150):
            for shape in ((6, 6), (8, 8), (3, 5), (16, 16)):
                m = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                r = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
                nr = operator_norm(r)
                for bound in self._bounds_around(m):
                    expected = operator_norm(m) <= bound
                    assert operator_norm_at_most(m, 1.0, floor=bound) == expected
                    assert operator_norm_at_most(m, 1e-3, floor=1e3 * bound) == \
                        (operator_norm(m) <= 1e-3 * (1e3 * bound))
                    t = bound / nr
                    assert operator_norm_at_most(m, t, r) == (operator_norm(m) <= t * nr)
                    # the floor wins over a smaller reference norm
                    assert operator_norm_at_most(m, 1.0, 1e-3 * r, bound) == expected

    def test_at_most_flat_matrix_upper_bound_is_the_norm(self):
        # rank one with equal moduli: the SVD norm may round above sqrt(rows*cols) max|m_ij|
        for shape in ((2, 3), (5, 5), (5, 6), (8, 9), (16, 17)):
            m = np.ones(shape, dtype=complex)
            for bound in self._bounds_around(m):
                assert operator_norm_at_most(m, 1.0, floor=bound) == (operator_norm(m) <= bound)

    def test_at_most_single_entry_lower_bound_is_the_norm(self):
        m = np.zeros((3, 4), dtype=complex)
        m[1, 2] = 3.0 - 4.0j
        assert operator_norm(m) == 5.0
        for bound in (5.0, 5.0 * (1 - 1e-12), 5.0 * (1 - 1e-7), 5.0 * (1 - 1e-3), 5.0 * (1 + 1e-12)):
            assert operator_norm_at_most(m, 1.0, floor=bound) == (operator_norm(m) <= bound)
        assert operator_norm_at_most(m, 1.0, 2 * m) and not operator_norm_at_most(m, 0.5, 0.9 * m)

    def test_at_most_zero_and_empty(self):
        for m in (np.zeros((4, 4), dtype=complex), np.zeros((0, 3), dtype=complex)):
            assert operator_norm_at_most(m, 1e-12, floor=1e-300)
            assert operator_norm_at_most(m, 1.0)
            assert operator_norm_at_most(m, 1e-8, np.zeros((4, 4)), 1e-300)
            assert operator_norm_at_most(np.eye(2), 1.0, m, 1.0)
            assert not operator_norm_at_most(np.eye(2), 1.0, m, 0.5)

    def test_at_most_rejects_non_finite(self):
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            m = np.eye(3, dtype=complex)
            m[0, 1] = bad
            with pytest.raises(ValueError):
                operator_norm_at_most(m, 1.0, floor=1.0)
            with pytest.raises(ValueError):
                operator_norm_at_most(np.eye(3), 1.0, m)
            with pytest.raises(ValueError):
                operator_norm_at_most(np.zeros((3, 3)), 1.0, m)


class TestDensityState:
    def test_validation_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            DensityState(m)

    def test_validation_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityState(np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))

    def test_validation_rejects_nan(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            DensityState(m)

    def test_caches_and_ppt_flag(self):
        rng = np.random.default_rng(10)
        m, _, _ = build_separable(rng, 2, 2)
        state = DensityState(m)
        assert state.rank == 2
        assert state.is_ppt
        assert state.kernel_basis.shape == (4, 2)
        assert np.linalg.norm(state.matrix @ state.kernel_basis) < 1e-10

    def test_unnormalized_trace_accepted(self):
        rng = np.random.default_rng(11)
        m, _, _ = build_separable(rng, 2, 3, unit_trace=False)
        state = DensityState(m)
        assert state.trace > 1.0
