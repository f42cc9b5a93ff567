import math
import re
import tracemalloc

import numpy as np
import pytest

from critent import cli, density, ising2d, tfim
from critent.density import (
    make_density_matrix,
    mutual_information,
    partial_trace,
    random_density_matrix,
    relative_entropy,
    tensor_product,
    two_site_entropies,
    von_neumann_entropy,
    x_state_entropies,
)
from critent.errors import ModelConsistencyError, ValidationError
from oracles import (_g, _plogp, _weighted_g, dimer_thermal_state, mpmath_mi,
                     reference_x_state_entropies, weak_pair_factor)


def singlet():
    psi = np.zeros(4)
    psi[1], psi[2] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    return make_density_matrix(np.outer(psi, psi), (2, 2))


class TestConstructor:
    def test_maximally_mixed(self):
        rho = make_density_matrix(np.eye(4) / 4, (2, 2))
        assert rho.dims == (2, 2)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(ValidationError, match="positive semidefinite"):
            make_density_matrix(bad, (2, 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="unit trace"):
            make_density_matrix(np.eye(4) / 3, (2, 2))

    def test_rejects_non_hermitian(self):
        m = np.eye(2) / 2
        m[0, 1] = 1e-3
        with pytest.raises(ValidationError, match="hermitian"):
            make_density_matrix(m, (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ValidationError, match="dims"):
            make_density_matrix(np.eye(4) / 4, (2, 3))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="unit trace"):
            make_density_matrix(np.full((2, 2), np.nan), (2,))
        m = np.eye(2) / 2
        m[0, 1] = np.nan
        with pytest.raises(ValidationError, match="hermitian"):
            make_density_matrix(m, (2,))

    def test_clips_numerical_dust(self):
        m = np.diag([1.0 + 5e-13, -5e-13, 0.0, 0.0])
        rho = make_density_matrix(m, (2, 2))
        eig = np.linalg.eigvalsh(rho.matrix)
        assert eig[0] >= -1e-15
        assert abs(np.trace(rho.matrix) - 1) < 1e-14

    def test_accepts_dimer_thermal_state(self):
        rho = dimer_thermal_state(1.0)
        assert rho.dims == (2, 2)


class TestEntropy:
    def test_pure_state(self):
        psi = np.zeros(4)
        psi[0] = 1.0
        rho = make_density_matrix(np.outer(psi, psi), (2, 2))
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_entropy_is_positive_zero(self):
        rho = make_density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        s = von_neumann_entropy(rho)
        assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_maximally_mixed(self):
        rho = make_density_matrix(np.eye(4) / 4, (2, 2))
        assert von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_dyadic_spectrum(self):
        rho = make_density_matrix(np.diag([0.5, 0.25, 0.25]), (3,))
        assert von_neumann_entropy(rho) == pytest.approx(1.5, abs=1e-12)

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4, 6):
            for _ in range(50):
                s = von_neumann_entropy(random_density_matrix((dim,), rng))
                assert -1e-9 <= s <= math.log2(dim) + 1e-9


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_density_matrix((2,), rng)
        b = random_density_matrix((3,), rng)
        joint = tensor_product(a, b)
        assert np.max(np.abs(partial_trace(joint, {0}).matrix - a.matrix)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, {1}).matrix - b.matrix)) < 1e-12

    def test_singlet_marginal_maximally_mixed(self):
        marg = partial_trace(singlet(), {0})
        assert np.max(np.abs(marg.matrix - np.eye(2) / 2)) < 1e-12

    def test_random_state_unit_trace(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density_matrix((2, 2), rng)
            assert abs(np.trace(partial_trace(rho, {1}).matrix) - 1) < 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(singlet(), set())

    def test_three_subsystems(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix((2, 2, 2), rng)
        reduced = partial_trace(rho, {0, 2})
        assert reduced.dims == (2, 2)
        again = partial_trace(reduced, {0})
        direct = partial_trace(rho, {0})
        assert np.max(np.abs(again.matrix - direct.matrix)) < 1e-12


class TestTensorProduct:
    def test_maximally_mixed(self):
        half = make_density_matrix(np.eye(2) / 2, (2,))
        joint = tensor_product(half, half)
        assert np.max(np.abs(joint.matrix - np.eye(4) / 4)) < 1e-14

    def test_pure_times_pure_is_pure(self):
        up = make_density_matrix(np.diag([1.0, 0.0]), (2,))
        assert von_neumann_entropy(tensor_product(up, up)) < 1e-12

    def test_entropy_additive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = random_density_matrix((2,), rng)
            b = random_density_matrix((3,), rng)
            total = von_neumann_entropy(tensor_product(a, b))
            assert total == pytest.approx(
                von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-10
            )


class TestMutualInformation:
    def test_singlet_two_bits(self):
        assert mutual_information(singlet()) == pytest.approx(2.0, abs=1e-12)

    def test_product_state_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rho = tensor_product(
                random_density_matrix((2,), rng), random_density_matrix((2,), rng)
            )
            assert 0 <= mutual_information(rho) < 1e-9

    def test_classical_correlated_one_bit(self):
        rho = make_density_matrix(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
        assert mutual_information(rho) == pytest.approx(1.0, abs=1e-12)

    def test_requires_bipartite(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            mutual_information(random_density_matrix((2, 2, 2), rng))

    def test_nonnegative_on_random_states(self):
        rng = np.random.default_rng(7)
        for dims in ((2, 2), (2, 3)):
            for _ in range(1000):
                assert mutual_information(random_density_matrix(dims, rng)) >= -1e-9

    def test_near_product_states_have_near_product_matrices(self):
        # converse of "product implies zero": MI below 1e-12 forces the
        # state to sit within 1e-5 (max norm) of its marginal product
        rng = np.random.default_rng(8)
        hits = 0
        for eps in np.geomspace(1e-9, 1e-3, 40):
            base = tensor_product(
                random_density_matrix((2,), rng), random_density_matrix((2,), rng)
            )
            perturb = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            perturb = (perturb + perturb.conj().T) / 2
            perturb -= np.trace(perturb) * np.eye(4) / 4
            matrix = base.matrix + eps * perturb
            if np.linalg.eigvalsh(matrix)[0] < 1e-12:
                continue
            rho = make_density_matrix(matrix, (2, 2))
            if mutual_information(rho) < 1e-12:
                hits += 1
                product = tensor_product(
                    partial_trace(rho, {0}), partial_trace(rho, {1})
                )
                assert np.max(np.abs(rho.matrix - product.matrix)) < 1e-5
        assert hits > 0


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density_matrix((3,), rng)
            assert abs(relative_entropy(rho, rho)) < 1e-10

    def test_equals_mutual_information(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            rho = random_density_matrix((2, 2), rng)
            product = tensor_product(
                partial_trace(rho, {0}), partial_trace(rho, {1})
            )
            assert relative_entropy(rho, product) == pytest.approx(
                mutual_information(rho), abs=1e-9
            )

    def test_support_violation_is_infinite(self):
        mixed = make_density_matrix(np.eye(2) / 2, (2,))
        pure = make_density_matrix(np.diag([1.0, 0.0]), (2,))
        assert relative_entropy(mixed, pure) == math.inf

    def test_klein_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            rho = random_density_matrix((4,), rng)
            sigma = random_density_matrix((4,), rng)
            assert relative_entropy(rho, sigma) >= -1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            relative_entropy(
                random_density_matrix((2,), rng), random_density_matrix((3,), rng)
            )


def x_state_matrix(mz, gxx, gyy, czz):
    """The X-state of x_state_entropies, built entry by entry."""
    gzz = mz * mz + czz
    u_plus, u_minus, w = (1 + 2 * mz + gzz) / 4, (1 - 2 * mz + gzz) / 4, (1 - gzz) / 4
    z_plus, z_minus = (gxx + gyy) / 4, (gxx - gyy) / 4
    return np.array([
        [u_plus, 0, 0, z_minus],
        [0, w, z_plus, 0],
        [0, z_plus, w, 0],
        [z_minus, 0, 0, u_minus],
    ])


class TestXStateKernel:
    def test_matches_density_matrix_chain(self):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(500):
            mz = rng.uniform(-1, 1)
            czz = rng.uniform(-1, 1) * (1 - mz * mz) * rng.choice([1, 1e-4])
            gxx, gyy = rng.uniform(-1, 1, 2) * rng.choice([1, 1e-4])
            matrix = x_state_matrix(mz, gxx, gyy, czz)
            if np.linalg.eigvalsh(matrix)[0] < 0:
                continue
            rho = make_density_matrix(matrix, (2, 2))
            s_i, s_ij, mi = x_state_entropies(mz, gxx, gyy, czz)
            assert s_i[0] == pytest.approx(
                von_neumann_entropy(partial_trace(rho, {0})), abs=1e-12)
            assert s_ij[0] == pytest.approx(von_neumann_entropy(rho), abs=1e-12)
            assert mi[0] == pytest.approx(mutual_information(rho), abs=1e-12)
            assert mi[0] == pytest.approx(2 * s_i[0] - s_ij[0], abs=1e-12)
            checked += 1
        assert checked > 100

    def test_rows_are_independent_of_batch(self):
        rng = np.random.default_rng(14)
        mz = rng.uniform(-0.5, 0.5, 40)
        czz = rng.uniform(-0.01, 0.01, 40)
        gxx, gyy = rng.uniform(-0.01, 0.01, (2, 40))
        batch = x_state_entropies(mz, gxx, gyy, czz)
        for i in range(40):
            single = x_state_entropies(mz[i], gxx[i], gyy[i], czz[i])
            assert [v[0] for v in single] == [v[i] for v in batch]

    def test_product_state_and_pure_singlet(self):
        s_i, s_ij, mi = x_state_entropies(0.3, 0.0, 0.0, 0.0)
        assert mi[0] == 0.0 and s_ij[0] == pytest.approx(2 * s_i[0], abs=1e-15)
        s_i, s_ij, mi = x_state_entropies(0.0, -1.0, -1.0, -1.0)
        assert (s_i[0], s_ij[0]) == (1.0, 0.0)
        assert mi[0] == pytest.approx(2.0, abs=1e-15)

    def test_keeps_negativity_thresholds(self):
        # w - |z+| = -1e-12 is dust, -1e-9 is a construction error
        s_i, s_ij, mi = x_state_entropies(0.0, 1.0 + 4e-12, 0.0, 0.0)
        assert np.isfinite(mi[0]) and mi[0] > 0
        with pytest.raises(ValidationError, match="positive semidefinite"):
            x_state_entropies([0.0, 0.0], [0.5, 1.0 + 4e-9], 0.0, 0.0)

    @pytest.mark.parametrize("case", ["tfim-0.5-1", "tfim-1-5", "ising2d-3-30"])
    def test_weak_pairs_keep_relative_precision(self, case):
        # the entropy difference returned 0.0, 4.4e-16 and 0 at these points
        if case.startswith("tfim"):
            lam, temperature = {"tfim-0.5-1": (0.5, 1.0), "tfim-1-5": (1.0, 5.0)}[case]
            mz, gxx, gyy, _, czz = tfim.correlations([lam], temperature, 1000, [300])
            inputs = (mz[0], gxx[0, 0], gyy[0, 0], czz[0, 0])
        else:
            inputs = (0.0, 0.0, 0.0, ising2d.diagonal_correlations([3.0], [30])[0, 0])
        _, _, mi = x_state_entropies(*inputs)
        reference = mpmath_mi(*inputs)
        assert reference > 0
        assert abs((mi[0] - reference) / reference) <= 1e-12


    @pytest.mark.parametrize("mz", [0.0, 0.3, 2.0 / math.pi])
    @pytest.mark.parametrize("gxx", [1e-2, 1e-4, 1e-6])
    def test_weak_gxx_gives_the_second_order_law(self, mz, gxx):
        # MI = gxx^2 K(mz)/(2 ln 2) (1 + O(gxx^2)), pinned here apart from
        # the models; the O(gxx^2) term was measured at 0.17-0.43 gxx^2
        _, _, mi = x_state_entropies(mz, gxx, 0.0, 0.0)
        excess = mi[0] * 2.0 * math.log(2.0) / (gxx**2 * weak_pair_factor(mz)) - 1.0
        assert 0.0 <= excess <= gxx**2
        reference = mpmath_mi(mz, gxx, 0.0, 0.0)
        assert abs((mi[0] - reference) / reference) <= 1e-14

    @pytest.mark.parametrize("mz, czz", [
        (mz, czz) for mz in (0.0, 0.3, 0.9) for czz in (1e-2, -1e-2, 1e-4, -1e-4, 1e-6, -1e-6)
        if abs(czz) <= 0.02 * (1.0 - mz * mz) ** 2])
    def test_weak_czz_gives_the_classical_law(self, mz, czz):
        """With gxx = gyy = 0 the state is diagonal, a classical pair whose
        joint law moves from the product q = (up^2, up dn, dn up, dn^2), with
        up, dn = (1 +- m)/2, by d = (c, -c, -c, c)/4.  MI = sum_k q_k g(d_k/q_k)
        nats with g(e) = e^2/2 - e^3/6 + O(e^4), so

            second order: (c^2/32) [4/(1+m)^2 + 4/(1-m)^2 + 8/(1-m^2)]
                          = c^2 / (2 (1 - m^2)^2),
            third order:  -(c^3/384) 16 [1/(1+m)^4 + 1/(1-m)^4 - 2/(1-m^2)^2]
                          = -(c^3/24) 16 m^2 / (1 - m^2)^4
                          = -(2/3) c^3 m^2 / (1 - m^2)^4,

        since (1-m)^4 + (1+m)^4 - 2 (1-m^2)^2 = 16 m^2.  With u = c/(1 - m^2)^2
        the ratio of the two is -(4/3) m^2 u: MI 2 ln 2 (1 - m^2)^2 / c^2 =
        1 - (4/3) m^2 u + O(u^2), in bits."""
        u = czz / (1.0 - mz * mz) ** 2
        _, _, mi = x_state_entropies(mz, 0.0, 0.0, czz)
        scaled = mi[0] * 2.0 * math.log(2.0) * (1.0 - mz * mz) ** 2 / czz**2
        # the O(u^2) term was measured at 0.17-1.97 u^2
        assert abs(scaled - (1.0 - 4.0 / 3.0 * mz * mz * u)) <= 3.0 * u * u
        reference = mpmath_mi(mz, 0.0, 0.0, czz)
        assert abs((mi[0] - reference) / reference) <= 1e-14


def random_x_states(rng, count):
    """(mz, gxx, gyy, czz) of `count` positive X-states: mz, the connected
    czz and both coherences each a uniform fraction of their positive
    range, scaled by one of 1, 1e-3, 1e-9, 1e-300 or 0 and pinned to the
    range's edge (+-1) in about one row in ten, so weak pairs down to
    subnormal czz, pure blocks and zero coherences all occur."""
    def fractions():
        f = rng.uniform(-1.0, 1.0, count) * rng.choice([1.0, 1e-3, 1e-9, 1e-300, 0.0], count)
        edge = rng.random(count)
        return np.where(edge < 0.05, 1.0, np.where(edge < 0.1, -1.0, f))

    mz = fractions()
    up, dn = (1.0 + mz) / 2.0, (1.0 - mz) / 2.0
    f = fractions()
    czz = np.where(f < 0, 4.0 * np.minimum(up * up, dn * dn), 4.0 * up * dn) * f
    u_plus, u_minus, w = up * up + czz / 4.0, dn * dn + czz / 4.0, up * dn - czz / 4.0
    z_minus = fractions() * np.sqrt(np.maximum(u_plus * u_minus, 0.0))
    z_plus = fractions() * np.maximum(w, 0.0)
    return mz, 2.0 * (z_plus + z_minus), 2.0 * (z_plus - z_minus), czz


class TestStackedKernelMatchesReference:
    """x_state_entropies evaluates both blocks, the six p ln p terms and
    the seven weighted g terms as stacked passes; the reference makes one
    numpy call per term.  Each state's (S_i, S_ij, MI) must be the same
    bits, NaN payloads and signed zeros included."""

    @staticmethod
    def assert_same_bits(inputs):
        stacked = x_state_entropies(*inputs)
        reference = reference_x_state_entropies(*inputs)
        for name, a, b in zip(("S_i", "S_ij", "MI"), stacked, reference):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("count", [1, 2, 7, 102, 1050, 20000])
    def test_random_states(self, count):
        self.assert_same_bits(random_x_states(np.random.default_rng(count), count))

    def test_edge_states(self):
        tiny = np.finfo(float).tiny
        rows = [
            (0.3, 0.0, 0.0, 5e-324), (0.3, 0.0, 0.0, -5e-324),   # subnormal czz
            (0.0, 0.0, 0.0, tiny), (0.9, 1e-300, 0.0, 1e-310),
            (0.0, -1.0, -1.0, -1.0), (0.0, 1.0, -1.0, 1.0),      # pure singlet, Bell
            (1.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0),        # mz = +-1
            (0.5, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),         # no coherence
            (0.0, 1.0 + 4e-12, 0.0, 0.0),                       # eigenvalue dust
            (0.2, float("nan"), 0.0, 0.0), (float("nan"), 0.0, 0.0, 0.0),
        ]
        self.assert_same_bits(tuple(np.array(column) for column in zip(*rows)))
        for row in rows:
            self.assert_same_bits(row)

    def test_same_error_for_a_non_positive_state(self):
        inputs = ([0.0, 0.1, 0.0], [0.5, 0.2, 1.0 + 4e-9], 0.0, [0.0, -0.9, 0.0])
        messages = []
        for kernel in (x_state_entropies, reference_x_state_entropies):
            with pytest.raises(ValidationError) as exc:
                kernel(*inputs)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        with pytest.raises(ValidationError) as exc:
            x_state_entropies(1.5, 0.0, 0.0, 0.0)  # a negative marginal
        with pytest.raises(ValidationError, match=re.escape(str(exc.value))):
            reference_x_state_entropies(1.5, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("argv", [
        ["ising2d", "sweep"],
        ["tfim", "sweep", "--lambda-count", "11"],
        ["tfim", "scaling", "--kind", "far"],
        ["oracle", "compare", "--n", "10", "--lambda", "1.0", "--t", "0.5"],
        ["tfim", "sweep", "--t", "0.5", "--sector", "gibbs"],
    ], ids=lambda argv: " ".join(argv))
    def test_every_kernel_call_of_a_cli_run(self, argv, monkeypatch, tmp_path):
        """The benchmark's four workloads at their defaults and the Gibbs
        sweep: every batch they pass to the kernel, checked against the
        reference on the same inputs."""
        calls = []

        def recorded(*inputs):
            calls.append((inputs, x_state_entropies(*inputs)))
            return calls[-1][1]

        monkeypatch.setattr(density, "x_state_entropies", recorded)
        cli.main(argv + ["--output", str(tmp_path / "out")])
        assert calls
        for inputs, stacked in calls:
            reference = reference_x_state_entropies(*inputs)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(stacked, reference))


def leaf_edges():
    """Floats at and around every branch of the elementwise leaves: signed
    zeros and subnormals, NaN and infinities, the floor at -1, the series
    radius 0.05 and their neighbours, and the extremes of the range."""
    sub = np.finfo(float).smallest_subnormal
    edges = [0.0, -0.0, sub, -sub, 2.5e-310, -2.5e-310, math.nan, math.inf, -math.inf,
             -1.5, -1e300, 1e-300, -1e-300, 1e300, 0.3, -0.7, 2.0]
    for x in (0.05, -0.05, -1.0):
        edges += [x, np.nextafter(x, -math.inf), np.nextafter(x, math.inf)]
    return np.array(edges)


def random_leaf_inputs(rng, shape):
    """Seeded (q, d) with eps = d/q inside the series radius, in the direct
    branch and at or below the floor, and q of either sign or 0."""
    q = rng.uniform(-0.1, 1.0, shape) * rng.choice([1.0, 1e-9, 1e-300, 0.0], shape)
    eps = rng.uniform(-2.0, 2.0, shape) * rng.choice([1.0, 0.05, 1e-3, 1e-9], shape)
    return q, eps * np.where(q == 0.0, 1.0, q)


class TestInPlaceLeavesMatchTheirExpressions:
    """density's _g, _weighted_g and _plogp work in place; tests/oracles.py
    keeps their one-expression forms.  Both give the same floats, with the
    same signs of zero and NaN in the same places, for arrays, 0-d arrays
    and Python floats."""

    @staticmethod
    def assert_same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.dtype == b.dtype == float
        nan = np.isnan(a)
        assert np.array_equal(nan, np.isnan(b))
        assert np.array_equal(a[~nan], b[~nan])
        assert np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan]))

    @pytest.fixture(autouse=True)
    def quiet(self):
        # inf * 0 and the like warn in both forms alike
        with np.errstate(all="ignore"):
            yield

    def test_edges(self):
        x = leaf_edges()
        q, d = (v.ravel() for v in np.meshgrid(x, x))
        self.assert_same(density._g(x), _g(x))
        self.assert_same(density._plogp(x), _plogp(x))
        self.assert_same(density._weighted_g(q, d), _weighted_g(q, d))

    def test_scalars(self):
        x = leaf_edges().tolist()
        for a in x:
            for leaf, reference in ((density._g, _g), (density._plogp, _plogp)):
                self.assert_same(leaf(a), reference(a))
                self.assert_same(leaf(np.float64(a)), reference(np.float64(a)))
            for b in x:
                self.assert_same(density._weighted_g(a, b), _weighted_g(a, b))

    def test_random_stack(self):
        q, d = random_leaf_inputs(np.random.default_rng(35), (7, 1050))
        self.assert_same(density._weighted_g(q, d), _weighted_g(q, d))
        self.assert_same(density._g(d), _g(d))
        self.assert_same(density._plogp(q), _plogp(q))

    def test_weighted_g_peak_memory(self):
        # the kernel's 7-row pass over the 1,050-point Ising sweep: 57.4 KiB
        # a row stack; the one-expression form peaked at 426 KiB
        q, d = random_leaf_inputs(np.random.default_rng(36), (7, 1050))
        density._weighted_g(q, d)
        tracemalloc.start()
        try:
            density._weighted_g(q, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 360 * 1024


class TestMutualInformationLowerBound:
    """MI >= <A B>_c^2 / (2 ||A||^2 ||B||^2) nats for every connected
    correlation of unit-norm site operators (Wolf, Verstraete, Hastings and
    Cirac, PRL 100, 070502 (2008)), on the default sweep grids, up to 4 ulps
    of the bound; a bound below the least normal float is not checked."""

    @staticmethod
    def assert_bounded(mi, connected):
        bound = np.max(np.square(connected), axis=0) / (2.0 * math.log(2.0))
        checked = bound >= np.finfo(float).tiny
        short = bound - mi > 4 * np.spacing(bound)
        assert checked.sum() > 0.9 * bound.size
        assert not np.any(checked & short), np.argwhere(checked & short)[:5]

    @pytest.mark.parametrize("temperature", [0.0, 0.5])
    def test_tfim_grid(self, temperature):
        # measured MI / bound >= 1.10
        couplings, separations = np.linspace(0.0, 2.0, 41), range(1, 51)
        mz, gxx, gyy, _, czz = tfim.correlations(couplings, temperature, 1000, separations)
        mi = tfim.entropies(couplings, temperature, 1000, separations)[2]
        self.assert_bounded(mi, [gxx, gyy, czz])

    @pytest.mark.parametrize("ensemble", ising2d.ENSEMBLES)
    def test_ising_grid(self, ensemble):
        # G - m^2 is the only correlation, and the bound is tight where it
        # is small: MI / bound - 1 was -3.3e-16 at worst
        temperatures, separations = np.linspace(1.5, 3.5, 21), range(1, 51)
        m = np.array([[ising2d.magnetization(t) if ensemble == "broken" else 0.0]
                      for t in temperatures])
        g = ising2d.diagonal_correlations(temperatures, separations)
        mi = ising2d.entropies(temperatures, separations, ensemble)[2]
        self.assert_bounded(mi, [g - m * m])


class TestTwoSiteEntropies:
    def test_grid_equals_kernel_rows(self):
        # mz over the rows, correlations over (rows, columns)
        rng = np.random.default_rng(15)
        mz = rng.uniform(-0.5, 0.5, (3, 1))
        gxx, gyy, czz = rng.uniform(-0.01, 0.01, (3, 3, 4))
        gzz = mz * mz + czz
        values = two_site_entropies(mz, gxx, gyy, gzz, czz)
        assert [v.shape for v in values] == [(3, 4)] * 3
        kernel = x_state_entropies(np.broadcast_to(mz, (3, 4)).ravel(), gxx.ravel(),
                                   gyy.ravel(), czz.ravel())
        assert [v.ravel().tolist() for v in values] == [v.tolist() for v in kernel]

    def test_invalid_states_are_model_errors(self):
        with pytest.raises(ModelConsistencyError, match=r"gzz = 1.5 outside \[-1, 1\]"):
            two_site_entropies(0.0, 0.0, 0.0, [0.5, 1.5], [0.5, 1.5])
        with pytest.raises(ModelConsistencyError, match=r"mz = nan outside"):
            two_site_entropies(float("nan"), 0.0, 0.0, 0.0, 0.0)
        # every entry in range, but w - |z+| = -1e-9 < 0
        with pytest.raises(ModelConsistencyError,
                           match="invalid two-site state: positive semidefinite"):
            two_site_entropies(0.0, [0.5, 1.0 + 4e-9], 0.0, 0.0, 0.0)
