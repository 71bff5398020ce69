"""Covering numbers, entropy integrals, product classes."""

import math

import numpy as np
import pytest

from supgauss.funcclass import (
    DiscreteMeasure,
    DiscretizedClass,
    covering_number,
    entropy_integral,
    exhaustive_min_cover,
    product_class,
    vc_entropy_bound,
)


def two_point_class():
    # one atom, f1 = 1, f2 = 0: e_Q(f1, f2) = 1 and ||F||_{Q,2} = 1
    values = np.array([[1.0, 0.0]])
    return DiscretizedClass.from_matrix(values, np.array([1.0]))


class TestCoveringNumber:
    def test_singleton_class(self):
        cls = DiscretizedClass.from_matrix(np.array([[0.7], [0.2]]))
        q = cls.atom_measure(2)
        for eps in (0.01, 0.3, 1.0):
            assert covering_number(cls, q, eps) == 1

    def test_two_point_strict_radius(self):
        cls = two_point_class()
        q = cls.atom_measure(1)
        assert covering_number(cls, q, 0.5) == 2
        # strict-inequality nets: even at eps = 1 the other point is not covered
        assert covering_number(cls, q, 1.0) == 2
        assert covering_number(cls, q, 0.999999) == 2

    def test_degenerate_envelope_rejected(self):
        cls = DiscretizedClass.from_matrix(np.zeros((2, 3)))
        q = cls.atom_measure(2)
        with pytest.raises(ValueError, match="degenerate envelope"):
            covering_number(cls, q, 0.5)

    def test_class_without_envelope_rejected(self):
        cls = DiscretizedClass(evaluate=lambda idx: np.ones((len(idx), 2)), size=2)
        with pytest.raises(ValueError, match="need a class envelope"):
            covering_number(cls, DiscreteMeasure.uniform(np.arange(2)), 0.5)
        assert product_class(cls, DiscretizedClass.from_matrix(np.ones((2, 1)))).envelope is None

    def test_non_probability_weights_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.arange(2), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteMeasure(np.arange(2), np.array([1.2, -0.2]))

    def test_identical_functions_give_one(self):
        values = np.tile(np.array([[0.3], [0.9]]), (1, 5))
        cls = DiscretizedClass.from_matrix(values)
        q = cls.atom_measure(2)
        assert covering_number(cls, q, 0.05) == 1

    def test_cube_vertices_match_exhaustive(self):
        # 8 functions at the vertices of a cube in evaluation space, 3 atoms
        vertices = np.array([[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float)
        cls = DiscretizedClass.from_matrix(vertices.T)
        q = cls.atom_measure(3)
        for eps in np.linspace(0.05, 1.0, 12):
            greedy = covering_number(cls, q, eps)
            minimal = exhaustive_min_cover(cls, q, eps)
            upper = exhaustive_min_cover(cls, q, eps / 2)
            assert minimal <= greedy <= upper

    def test_monotone_in_epsilon(self):
        gen = np.random.default_rng(8)
        for _ in range(25):
            n_atoms = int(gen.integers(1, 6))
            n_funcs = int(gen.integers(1, 11))
            cls = DiscretizedClass.from_matrix(gen.standard_normal((n_atoms, n_funcs)))
            q = cls.atom_measure(n_atoms)
            counts = np.array([covering_number(cls, q, e) for e in np.linspace(0.05, 1.0, 9)])
            assert np.all(np.diff(counts) <= 0)
            assert counts[-1] >= 1
            assert counts[0] <= n_funcs


class TestEnvelope:
    def test_matrix_envelope_must_dominate(self):
        with pytest.raises(ValueError, match="dominate"):
            DiscretizedClass.from_matrix(np.array([[2.0, 0.0]]), np.array([1.0]))


class TestEntropyIntegral:
    def test_singleton_gives_delta(self):
        cls = DiscretizedClass.from_matrix(np.array([[0.8], [0.3]]))
        q = cls.atom_measure(2)
        for delta in (0.1, 0.5, 1.0):
            assert entropy_integral(cls, delta, [q]) == pytest.approx(delta, rel=1e-12)

    def test_two_function_closed_form(self):
        cls = two_point_class()
        q = cls.atom_measure(1)
        # N = 2 on all of (0, 1]: integrand is constant sqrt(1 + log 2)
        expected = math.sqrt(1.0 + math.log(2.0))
        assert entropy_integral(cls, 1.0, [q]) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_delta(self):
        gen = np.random.default_rng(21)
        cls = DiscretizedClass.from_matrix(gen.standard_normal((4, 7)))
        q = cls.atom_measure(4)
        assert entropy_integral(cls, 0.5, [q]) <= entropy_integral(cls, 1.0, [q])

    def test_requires_measures(self):
        cls = two_point_class()
        with pytest.raises(ValueError):
            entropy_integral(cls, 0.5, [])


class TestVcEntropyBound:
    def test_closed_form_values(self):
        assert vc_entropy_bound(math.e, 1.0, 1.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert vc_entropy_bound(math.e**2, 4.0, 1.0) == pytest.approx(8.0, rel=1e-12)

    def test_monotone_in_delta(self):
        assert vc_entropy_bound(10.0, 2.0, 0.25) <= vc_entropy_bound(10.0, 2.0, 0.5)

    def test_rejects_small_A(self):
        with pytest.raises(ValueError):
            vc_entropy_bound(2.0, 1.0, 0.5)

    def test_majorizes_empirical_integral(self):
        # tag (A, v) verified against measured covering numbers, then check
        # the closed form dominates the empirical entropy integral
        gen = np.random.default_rng(31)
        for _ in range(10):
            n_atoms = int(gen.integers(2, 6))
            n_funcs = int(gen.integers(2, 10))
            cls = DiscretizedClass.from_matrix(gen.standard_normal((n_atoms, n_funcs)))
            q = cls.atom_measure(n_atoms)
            eps_grid = np.geomspace(1e-3, 1.0, 40)
            counts = np.array([covering_number(cls, q, e) for e in eps_grid])
            # fit the smallest exponent v >= 1 with A = e so (A/eps)^v >= N(eps)
            v = max(1.0, np.max(np.log(counts) / (1.0 + np.log(1.0 / eps_grid))))
            A = math.e
            assert np.all(counts <= (A / eps_grid) ** v + 1e-9)
            for delta in (0.25, 0.5, 1.0):
                emp = entropy_integral(cls, delta, [q])
                assert emp <= vc_entropy_bound(A, v, delta) + 1e-9


class TestProductClass:
    def test_singleton_product(self):
        left = DiscretizedClass.from_functions([lambda x: np.asarray(x)], lambda x: np.abs(np.asarray(x)))
        right = DiscretizedClass.from_functions([lambda x: np.asarray(x) ** 2], lambda x: np.asarray(x) ** 2)
        prod = product_class(left, right)
        pts = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(prod.evaluate(pts)[:, 0], pts**3)
        np.testing.assert_allclose(prod.envelope(pts), np.abs(pts) ** 3)

    def test_identity_element(self):
        gen = np.random.default_rng(12)
        vals = gen.standard_normal((3, 4))
        left = DiscretizedClass.from_matrix(vals)
        one = DiscretizedClass.from_matrix(np.ones((3, 1)))
        prod = product_class(left, one)
        idx = np.arange(3)
        np.testing.assert_allclose(prod.evaluate(idx), left.evaluate(idx))
        np.testing.assert_allclose(prod.envelope(idx), left.envelope(idx))

    def test_submultiplicative_covering(self):
        gen = np.random.default_rng(77)
        trials = 0
        for _ in range(40):
            n_atoms = int(gen.integers(2, 6))
            f_vals = gen.standard_normal((n_atoms, int(gen.integers(2, 8))))
            g_vals = gen.standard_normal((n_atoms, int(gen.integers(2, 8))))
            left = DiscretizedClass.from_matrix(f_vals)
            right = DiscretizedClass.from_matrix(g_vals)
            prod = product_class(left, right)
            q = left.atom_measure(n_atoms)
            for eps in (0.2, 0.45, 0.7):
                lhs = covering_number(prod, q, math.sqrt(2.0) * eps)
                rhs = covering_number(left, q, eps) * covering_number(right, q, eps)
                assert lhs <= rhs
                trials += 1
        assert trials >= 100
