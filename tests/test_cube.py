import numpy as np
import pytest

from structrand import (
    BudgetExceededError,
    F2Polynomial,
    character,
    character_atoms,
    inner_product,
    inverse_walsh_hadamard,
    mobius_transform,
    reed_muller_atoms,
    shift,
    walsh_hadamard,
)
from structrand.cube import f2_matrix_rank, f2_matvec_table, f2_row_basis, parity

from oracles import naive_walsh_hadamard


def assert_layout_free(transform):
    """A Fortran-ordered stack, a transposed stack and a strided slice each
    transform as their C-ordered copies do, and are left unmodified."""
    rng = np.random.default_rng(7)
    fortran = np.asfortranarray(rng.integers(0, 2, (6, 32)))
    transposed = rng.integers(0, 2, (32, 6)).T
    strided = rng.integers(0, 2, (6, 64))[:, ::2]
    for view in (fortran, transposed, strided):
        before = view.copy()
        assert np.array_equal(transform(view), transform(np.ascontiguousarray(view)))
        assert np.array_equal(view, before)


class TestWalshHadamard:
    def test_character_spectrum(self):
        spec = walsh_hadamard(character(4, 11))
        expected = np.zeros(16)
        expected[11] = 1.0
        assert np.allclose(spec, expected, atol=1e-12)

    def test_constant_spectrum(self):
        spec = walsh_hadamard(np.ones(32))
        assert spec[0] == 1.0
        assert np.all(spec[1:] == 0.0)

    def test_matches_naive_double_sum(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(-1, 1, 256)
        assert np.abs(walsh_hadamard(f) - naive_walsh_hadamard(f)).max() <= 1e-10

    def test_self_inverse(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(64)
        assert np.abs(inverse_walsh_hadamard(walsh_hadamard(f)) - f).max() <= 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = rng.standard_normal(128)
            spec = walsh_hadamard(f)
            assert abs(np.sum(spec**2) - inner_product(f, f)) <= 1e-9

    def test_any_memory_layout(self):
        assert_layout_free(walsh_hadamard)

    def test_cap(self):
        from structrand.cube import cube_dim

        with pytest.raises(BudgetExceededError):
            cube_dim(np.ones(16), cap=3)


class TestMobius:
    def test_self_inverse(self):
        rng = np.random.default_rng(3)
        bits = (rng.random(64) < 0.5).astype(int)
        assert np.array_equal(mobius_transform(mobius_transform(bits)), bits)

    def test_any_memory_layout(self):
        assert_layout_free(mobius_transform)

    def test_known_degree(self):
        # x0*x1 has truth table with ones exactly where both bits are set
        table = np.array([1 if (x & 3) == 3 else 0 for x in range(16)])
        poly = F2Polynomial.from_truth_table(table)
        assert poly.monomials == ((0, 1),)


class TestF2Polynomial:
    def test_canonical_dedup(self):
        p = F2Polynomial.from_monomials(4, [(1, 0), (0, 1), (2,)])
        assert p.monomials == ((2,),)

    def test_degree_and_eval(self):
        p = F2Polynomial.from_monomials(4, [(0, 1), (2,), ()])
        assert p.degree == 2
        assert p.evaluate(0b0011) == 1 ^ 1  # constant + product
        assert p.evaluate(0b0100) == 0  # constant + x2

    def test_code_roundtrip(self):
        p = F2Polynomial.from_monomials(3, [(0,), (1, 2)])
        code = p.code()
        assert set(np.unique(code)) <= {-1.0, 1.0}
        assert F2Polynomial.from_truth_table(((1 - code) / 2).astype(int)) == p

    def test_json_roundtrip(self):
        p = F2Polynomial.from_monomials(5, [(0, 3), (4,), ()])
        assert F2Polynomial.from_json(p.to_json()) == p

    def test_shift_identity(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(16)
        assert np.array_equal(shift(f, 5)[3], f[3 ^ 5])


class TestAtomFamilies:
    def test_character_count_and_norms(self):
        atoms = character_atoms(3)
        assert len(atoms) == 8
        for i in range(8):
            v = atoms.atom_vector(i)
            assert inner_product(v, v) == pytest.approx(1.0)

    def test_reed_muller_degree_one_is_characters_with_signs(self):
        atoms = reed_muller_atoms(4, 1)
        assert len(atoms) == 2 ** (4 + 1)
        # every row is +-1 times a character
        chars = {tuple(character(4, xi)) for xi in range(16)}
        for i in range(len(atoms)):
            row = atoms.atom_vector(i)
            assert tuple(row) in chars or tuple(-row) in chars

    def test_reed_muller_count_n3_k2(self):
        atoms = reed_muller_atoms(3, 2)
        assert len(atoms) == 2 ** (1 + 3 + 3) == 128

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceededError):
            reed_muller_atoms(6, 2)
        with pytest.raises(BudgetExceededError):
            reed_muller_atoms(5, 3)

    def test_polynomial_index_roundtrip(self):
        for n, k in [(3, 2), (4, 1), (5, 2)]:
            atoms = reed_muller_atoms(n, k)
            for i in range(len(atoms)):
                poly = atoms.polynomial(i)
                assert atoms.index_of(poly) == i
                assert np.array_equal(atoms.atom_vector(i), poly.code())

    def test_character_scan_matches_spectrum(self):
        rng = np.random.default_rng(5)
        f = rng.uniform(-1, 1, 32)
        scan = character_atoms(5).scan(f)
        assert scan.lower == pytest.approx(np.abs(naive_walsh_hadamard(f)).max(), abs=1e-12)


class TestF2LinearAlgebra:
    def test_parity(self):
        assert list(parity(np.array([0, 1, 3, 7, 6]))) == [0, 1, 0, 1, 0]

    def test_row_basis(self):
        basis = f2_row_basis([0b101, 0b011, 0b110, 0b101])
        assert len(basis) == 2

    def test_matrix_rank(self):
        eye = np.eye(4, dtype=int)
        assert f2_matrix_rank(eye) == 4
        singular = eye.copy()
        singular[3] = singular[0] ^ singular[1]
        singular[2] = singular[0]
        assert f2_matrix_rank(singular) < 4

    def test_matvec_table(self):
        rng = np.random.default_rng(6)
        mat = rng.integers(0, 2, (5, 5))
        table = f2_matvec_table(mat)
        for r in [0, 1, 9, 31]:
            bits = np.array([(r >> j) & 1 for j in range(5)])
            expected = int(sum(((mat @ bits) % 2)[i] << i for i in range(5)))
            assert table[r] == expected
