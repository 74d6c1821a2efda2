"""Exact integer matrix kernel: determinants, Smith/Hermite forms,
cokernels, canonical coset representatives."""

import random
import time
from math import prod

import pytest
import sympy
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from conftest import (
    determinant_cofactor,
    random_matrix,
    sympy_cokernel_order,
    sympy_invariant_factors,
)
from nilco import intmat
from nilco.errors import InfiniteResultError, ShapeError
from nilco.intmat import (
    IntMatrix,
    cokernel,
    column_hermite,
    coset_representatives,
    determinant,
    kernel_basis,
    reduce_to_canonical_rep,
    smith_normal_form,
)


def is_unimodular(M):
    return M.is_square and determinant(M) in (1, -1)


def sympy_rank(A):
    return sympy.Matrix(A.rows, A.cols, [x for row in A.data for x in row]).rank()


class TestMatrixBasics:
    def test_shape_and_equality(self):
        A = IntMatrix([[1, 2], [3, 4]])
        assert (A.rows, A.cols) == (2, 2)
        assert A == IntMatrix([[1, 2], [3, 4]])
        assert A != A.transpose()

    def test_immutability(self):
        A = IntMatrix([[1]])
        with pytest.raises(AttributeError):
            A.rows = 5

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            IntMatrix([[1, 2], [3]])

    def test_non_integer_rejected(self):
        with pytest.raises(ShapeError):
            IntMatrix([[1.5]])
        with pytest.raises(ShapeError):
            IntMatrix([[True]])

    def test_matmul_apply_column(self):
        A = IntMatrix([[1, 2], [3, 4]])
        B = IntMatrix([[0, 1], [1, 0]])
        assert A @ B == IntMatrix([[2, 1], [4, 3]])
        assert A.apply((1, 1)) == (3, 7)
        assert A.column(1) == (2, 4)
        assert IntMatrix.from_columns([(1, 3), (2, 4)], 2) == A

    def test_empty_row_matrix(self):
        Z = IntMatrix([], shape=(0, 3))
        assert (Z.rows, Z.cols) == (0, 3)


class TestDeterminant:
    def test_known_values(self):
        assert determinant(IntMatrix([], shape=(0, 0))) == 1
        assert determinant(IntMatrix([[7]])) == 7
        assert determinant(IntMatrix([[2, 0], [0, 3]])) == 6
        assert determinant(IntMatrix([[1, 2], [2, 4]])) == 0

    def test_against_cofactor_and_sympy(self, rng):
        for _ in range(200):
            n = rng.randint(1, 4)
            A = random_matrix(rng, n, n, lo=-9, hi=9)
            d = determinant(A)
            assert d == determinant_cofactor(A)
            assert d == int(sympy.Matrix([list(r) for r in A.data]).det())

    def test_big_integers_exact(self):
        big = 10**40
        A = IntMatrix([[big, 1], [1, big]])
        assert determinant(A) == big * big - 1

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            determinant(IntMatrix([[1, 2]]))


class TestSmithNormalForm:
    def test_contract_on_random_matrices(self, rng):
        # shapes with no rows or no columns, and forced repeated rows and
        # columns, so that empty and rank-deficient inputs are common
        for _ in range(3000):
            r = rng.randint(0, 5)
            c = rng.randint(0, 5)
            A = random_matrix(rng, r, c, lo=-7, hi=7)
            if r >= 2 and rng.random() < 0.3:
                A = IntMatrix([A.data[0], *A.data[:-1]], shape=(r, c))
            if c >= 2 and rng.random() < 0.3:
                A = IntMatrix([[row[0], *row[:-1]] for row in A.data], shape=(r, c))
            snf = smith_normal_form(A)
            assert snf.U @ A @ snf.V == snf.D
            assert is_unimodular(snf.U)
            assert is_unimodular(snf.V)
            diag = [snf.D.data[i][i] for i in range(min(r, c))]
            assert all(d >= 0 for d in diag)
            for i in range(len(diag) - 1):
                if diag[i + 1] != 0:
                    assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # off-diagonal must vanish
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert snf.D.data[i][j] == 0
            assert snf.invariant_factors == sympy_invariant_factors(A)
            assert len(column_hermite(A).pivots) == sympy_rank(A)

    def test_invariant_factor_product_is_det(self, rng):
        from math import prod

        for _ in range(100):
            n = rng.randint(1, 4)
            A = random_matrix(rng, n, n)
            d = determinant(A)
            snf = smith_normal_form(A)
            if d != 0:
                assert prod(snf.invariant_factors) == abs(d)

    def test_known_invariant_factors(self):
        A = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert smith_normal_form(A).invariant_factors == (2, 2, 156)


class TestKernel:
    def test_kernel_columns_annihilate(self, rng):
        for _ in range(100):
            A = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            basis = kernel_basis(column_hermite(A))
            assert len(basis) == A.cols - sympy_rank(A)
            for v in basis:
                assert A.apply(v) == (0,) * A.rows

    def test_kernel_basis_is_saturated(self, rng):
        # a basis of a direct summand: every invariant factor is 1
        for _ in range(150):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), lo=-6, hi=6)
            basis = kernel_basis(column_hermite(A))
            if basis:
                K = IntMatrix.from_columns(basis, A.cols)
                assert sympy_invariant_factors(K) == (1,) * len(basis)


class TestCokernel:
    def test_known_structures(self):
        ck = cokernel(IntMatrix([[2, 0], [0, 3]]))
        assert (ck.free_rank, ck.torsion, ck.order) == (0, (6,), 6)
        ck = cokernel(IntMatrix([[2, 0], [0, 0]]))
        assert ck.free_rank == 1 and ck.order is None
        ck = cokernel(IntMatrix([[1, 0], [0, 1]]))
        assert ck.order == 1 and ck.torsion == ()

    def test_order_is_abs_det_when_nonsingular(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            A = random_matrix(rng, n, n)
            d = determinant(A)
            ck = cokernel(A)
            if d == 0:
                assert ck.order is None
            else:
                assert ck.order == abs(d)

    def test_dense_forty_by_forty_within_budget(self):
        # entries up to 1e6: the elimination must keep its entries in check
        A = random_matrix(random.Random(40), 40, 40, lo=-10**6, hi=10**6)
        start = time.perf_counter()
        ck = cokernel(A)
        assert time.perf_counter() - start < 10
        assert ck.free_rank == 0 and ck.order == abs(determinant(A))


class TestColumnHermite:
    def test_order_is_the_cokernel_order(self, rng):
        shapes = [(n, n) for n in range(1, 5)] + [(2, 4), (3, 5), (4, 2), (3, 1)]
        for _ in range(40):
            for r, c in shapes:
                A = random_matrix(rng, r, c, lo=-6, hi=6)
                if rng.random() < 0.3:  # with two or more rows, a repeated row: singular
                    A = IntMatrix([A.data[0]] + [list(row) for row in A.data[:-1]])
                order = column_hermite(A).order
                assert order == sympy_cokernel_order(A)
                full_rank = sympy_rank(A) == r
                assert (order is not None) == full_rank

    def test_contract(self, rng):
        for _ in range(200):
            A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            ch = column_hermite(A)
            assert A @ ch.V == ch.H
            assert is_unimodular(ch.V)
            assert tuple(sorted(ch.pivots)) == ch.pivots
            for i, prow in enumerate(ch.pivots):
                assert ch.H.data[prow][i] > 0
                for r_above in range(prow):
                    assert ch.H.data[r_above][i] == 0


def rational(rows):
    """sympy's exact matrix over Q of integer rows."""
    entries = [[ZZ(x) for x in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), ZZ).to_field()


def square_with_det(rng, n, kind):
    """An n x n matrix whose |det| is 1 ("unimodular"), a product of small
    factors ("small") or that of random entries up to 1e6 ("large"); "no
    unit row" scales one row of a large one by 6, so that no entry of that
    row is a unit mod the determinant."""
    if kind in ("large", "no unit row"):
        A = [[rng.randint(-10**6, 10**6) for _ in range(n)] for _ in range(n)]
        if kind == "no unit row" and n:
            k = rng.randrange(n)
            A[k] = [6 * x for x in A[k]]
        return IntMatrix(A, shape=(n, n))
    d = [1] * n
    if kind == "small":
        d = [rng.choice((1, 1, 2, 3, 4, 6, 12, 30)) for _ in range(n)]
    M = IntMatrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)], shape=(n, n))
    for _ in range(3 * n):  # row and column operations, entries up to about 1e6
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        k = rng.randint(-40, 40)
        rows = [list(r) for r in M.data]
        if i != j and max(abs(x) for r in rows for x in r) < 10**4:
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
            rows = [[r[c] + k * r[i] if c == j else r[c] for c in range(n)] for r in rows]
        M = IntMatrix(rows, shape=(n, n))
    return M


class TestModularHermite:
    def test_square_forms_against_sympy(self, rng):
        kinds = ("unimodular", "small", "large", "no unit row")
        for trial in range(3200):
            n = trial % 9
            A = square_with_det(rng, n, kinds[trial // 9 % len(kinds)])
            det = determinant(A)
            ch = column_hermite(A)
            assert ch.order == (abs(det) or None)
            if det == 0:
                continue
            H = ch.H.data
            assert ch.pivots == tuple(range(n))
            for i in range(n):
                assert H[i][i] > 0
                assert all(H[i][j] == 0 for j in range(i + 1, n))
                assert all(0 <= H[i][j] < H[i][i] for j in range(i))
            # H^-1 A is integral, so im(A) lies in im(H), and the indices agree
            X = rational(H).lu_solve(rational(A.data)) if n else None
            assert n == 0 or all(x.denominator == 1 for row in X.to_list() for x in row)
            assert prod(H[i][i] for i in range(n)) == abs(det)

    def test_v_read_after_a_modular_h(self, rng):
        for trial in range(300):
            n = rng.randint(1, 6)
            A = square_with_det(rng, n, ("small", "large", "no unit row")[trial % 3])
            ch = column_hermite(A)
            if ch.order is None:
                continue
            H = ch.H
            assert A @ ch.V == H
            assert is_unimodular(ch.V)

    def test_fields_are_computed_when_read(self, monkeypatch):
        A = IntMatrix([[4, 1, 0], [2, 3, 5], [0, 7, 6]])
        echelon = intmat._column_echelon

        def refuse(cols, rows, modulus=None):
            raise AssertionError("elimination run")

        def modular_only(cols, rows, modulus=None):
            if modulus is None:
                raise AssertionError("exact elimination run")
            return echelon(cols, rows, modulus)

        monkeypatch.setattr(intmat, "_column_echelon", refuse)
        assert column_hermite(A).order == abs(determinant(A)) == 80
        assert column_hermite(IntMatrix([[2, 4], [1, 2]])).order is None
        monkeypatch.setattr(intmat, "_column_echelon", modular_only)
        ch = column_hermite(A)
        assert ch.H == IntMatrix([[1, 0, 0], [3, 5, 0], [7, 6, 16]])
        assert ch.pivots == (0, 1, 2)
        with pytest.raises(AssertionError, match="exact elimination"):
            ch.V
        monkeypatch.setattr(intmat, "_column_echelon", echelon)
        assert A @ ch.V == ch.H


class TestCanonicalReduction:
    def test_diag_example(self):
        A = IntMatrix([[2, 0], [0, 3]])
        rep, z = reduce_to_canonical_rep((1, 1), column_hermite(A))
        assert rep == (1, 1)
        rep5, _ = reduce_to_canonical_rep((5, 5), column_hermite(A))
        assert rep5 == (1, 2)

    def test_witness_idempotence_coset_invariance(self, rng):
        for _ in range(300):
            r = rng.randint(1, 3)
            c = rng.randint(1, 3)
            A = random_matrix(rng, r, c)
            ch = column_hermite(A)
            u = tuple(rng.randint(-20, 20) for _ in range(r))
            rep, z = reduce_to_canonical_rep(u, ch)
            assert tuple(x - y for x, y in zip(u, rep)) == A.apply(z)
            again, z2 = reduce_to_canonical_rep(rep, ch)
            assert again == rep and all(x == 0 for x in z2)
            shift = tuple(rng.randint(-3, 3) for _ in range(c))
            u2 = tuple(x + y for x, y in zip(u, A.apply(shift)))
            rep2, _ = reduce_to_canonical_rep(u2, ch)
            assert rep2 == rep

    def test_representatives_enumerate_cosets(self, rng):
        for _ in range(50):
            n = rng.randint(1, 3)
            A = random_matrix(rng, n, n, lo=-4, hi=4)
            if determinant(A) == 0:
                continue
            ch = column_hermite(A)
            reps = coset_representatives(ch)
            assert len(reps) == abs(determinant(A))
            assert len(set(reps)) == len(reps)
            for v in reps:
                fixed, _ = reduce_to_canonical_rep(v, ch)
                assert fixed == v

    def test_infinite_cokernel_has_no_representative_set(self):
        with pytest.raises(InfiniteResultError):
            coset_representatives(column_hermite(IntMatrix([[2, 0], [0, 0]])))
