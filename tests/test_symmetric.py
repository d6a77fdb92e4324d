"""Symmetric group algebra, Young idempotents, Specht data."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kadaryu import symmetric
from kadaryu.symmetric import (all_permutations, conjugate_partition, hook_dimension,
                               identity, inverse, inversions, is_partition,
                               left_action_matrix, mul, partitions, specht_basis,
                               specht_frame, specht_gram, young_idempotent)
from oracles import (algebra_element, coordinates_by_echelon, elimination_left_action,
                     from_cycles, idempotent, sandwich_sigma_table, sandwich_specht_gram,
                     scalar_extract, specht_basis_by_elimination, star,
                     young_idempotent_by_square)

perms4 = st.permutations([1, 2, 3, 4]).map(tuple)
UP_TO_4 = [lam for r in range(1, 5) for lam in partitions(r)]
UP_TO_5 = UP_TO_4 + partitions(5)
UP_TO_6 = UP_TO_5 + partitions(6)


def sign(s):
    return (-1) ** inversions(s)


class TestPermutation:
    def test_product_is_then(self):
        # apply s first, then t
        assert mul((2, 1, 3), (1, 3, 2)) == (3, 1, 2)

    @given(perms4, perms4)
    def test_inverse(self, s, t):
        assert mul(s, inverse(s)) == identity(4)
        assert inverse(mul(s, t)) == mul(inverse(t), inverse(s))

    @given(perms4, perms4)
    def test_sign_multiplicative(self, s, t):
        assert sign(mul(s, t)) == sign(s) * sign(t)

    def test_cycles(self):
        assert from_cycles(4, (1, 2, 3)) == (2, 3, 1, 4)


class TestGroupAlgebra:
    def test_star_antihomomorphism(self):
        s = algebra_element((2, 3, 1))
        t = algebra_element((2, 1, 3), Fraction(3))
        assert star(s * t) == star(t) * star(s)

    def test_star_involution(self):
        z = (algebra_element((2, 3, 1))
             + algebra_element((1, 3, 2), 2))
        assert star(star(z)) == z


class TestPartitions:
    def test_enumeration(self):
        assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert partitions(0) == [()]

    def test_conjugate(self):
        assert conjugate_partition((3, 1)) == (2, 1, 1)
        assert conjugate_partition(conjugate_partition((4, 2, 1))) == (4, 2, 1)

    def test_is_partition(self):
        assert is_partition((3, 1)) and not is_partition((1, 3))

    def test_hook_dimensions(self):
        assert hook_dimension((2,)) == 1
        assert hook_dimension((2, 1)) == 2
        assert hook_dimension((3, 2)) == 5
        assert hook_dimension((2, 2, 1)) == 5
        # sum of squares = group order
        import math
        for r in range(1, 6):
            assert sum(hook_dimension(p) ** 2 for p in partitions(r)) == math.factorial(r)


class TestYoungIdempotent:
    @pytest.mark.parametrize("lam", UP_TO_5)
    def test_idempotent(self, lam):
        c = idempotent(lam)
        assert c * c == c

    @pytest.mark.parametrize("lam", UP_TO_5)
    def test_matches_square_oracle(self, lam):
        """kappa = |R_lam| r!/f^lam is the ratio y^2 / y of y = E F E, and
        the closed form equals y divided by that ratio."""
        c, kappa = young_idempotent_by_square(lam)
        rows = math.prod(math.factorial(part) for part in lam)
        assert kappa == Fraction(rows * math.factorial(sum(lam)), hook_dimension(lam))
        assert idempotent(lam) == c

    @pytest.mark.slow
    @pytest.mark.parametrize("lam", partitions(6))
    def test_matches_square_oracle_r6(self, lam):
        assert idempotent(lam) == young_idempotent_by_square(lam)[0]

    @pytest.mark.parametrize("lam", [(2,), (2, 1), (2, 2)])
    def test_self_adjoint(self, lam):
        c = idempotent(lam)
        assert star(c) == c

    def test_trivial_and_sign(self):
        r = 3
        triv = idempotent((3,))
        sgn = idempotent((1, 1, 1))
        for s in all_permutations(r):
            assert triv.coeff(s) == Fraction(1, 6)
            assert sgn.coeff(s) == Fraction(sign(s), 6)

    def test_two_one_explicit(self):
        c = idempotent((2, 1))
        # (1/6)(e + (12))(e - (13))(e + (12)) expanded
        assert c.coeff(identity(3)) == Fraction(1, 3)
        assert c.coeff((2, 1, 3)) == Fraction(1, 3)
        assert c.coeff((3, 2, 1)) == Fraction(-1, 6)

    def test_orthogonality_of_conjugate_types(self):
        assert (idempotent((3,)) * idempotent((1, 1, 1))).is_zero()

    def test_terms_are_pinned(self):
        """The coefficients of every C_lam, lam of r <= 5, in dict order:
        gram.act sums its terms, and the Specht frame reads them, in this
        order."""
        text = "\n".join(repr(list(young_idempotent(lam).items()))
                         for lam in UP_TO_5)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e95bef1e6e464b87bf975eab1d758405efd461165251d2c3ae16c145b3807fe6")

    def test_quasi_idempotence_is_checked(self, monkeypatch):
        """A wrong kappa fails the check on y^2 = kappa y, and the fault
        survives python -O."""
        monkeypatch.setattr("kadaryu.symmetric.hook_dimension", lambda lam: 1)
        with pytest.raises(RuntimeError, match="not quasi-idempotent"):
            young_idempotent.__wrapped__((2, 1))


class TestSpecht:
    @pytest.mark.parametrize("lam", [(2,), (2, 1), (2, 2), (3, 1), (2, 1, 1)])
    def test_basis_size(self, lam):
        assert len(specht_basis(lam)) == hook_dimension(lam)

    def test_first_vector_is_identity(self):
        for lam in [(2, 1), (2, 2)]:
            assert specht_basis(lam)[0] == identity(sum(lam))

    @pytest.mark.parametrize("lam", UP_TO_5)
    def test_basis_matches_elimination_oracle(self, lam):
        assert specht_basis(lam) == specht_basis_by_elimination(lam)

    @pytest.mark.slow
    @pytest.mark.parametrize("lam", partitions(6))
    def test_basis_matches_elimination_oracle_r6(self, lam):
        assert specht_basis(lam) == specht_basis_by_elimination(lam)

    @pytest.mark.parametrize("lam", UP_TO_5)
    def test_frame_orthogonalises_gram(self, lam):
        """T is unit upper triangular, T^t G T = diag(norms) and the
        frame's T^-1 inverts T."""
        _xs, T, norms, inv = specht_frame(lam)
        G = specht_gram(lam)
        d = len(G)
        assert all(T[m][k] == (m == k) for k in range(d) for m in range(k, d))
        assert all(sum(inv[i][m] * T[m][j] for m in range(d)) == (i == j)
                   for i in range(d) for j in range(d))
        for k in range(d):
            for kk in range(d):
                form = sum(T[m][k] * G[m][mm] * T[mm][kk]
                           for m in range(d) for mm in range(d))
                assert form == (norms[k] if k == kk else 0), (k, kk)
        assert all(nk > 0 for nk in norms)

    @pytest.mark.parametrize("lam", [(2, 1), (2, 2), (3, 1)])
    def test_gram_symmetric_unimodular_corner(self, lam):
        G = specht_gram(lam)
        d = len(G)
        assert G[0][0] == 1
        for i in range(d):
            for j in range(d):
                assert G[i][j] == G[j][i]

    def test_scalar_extract_rejects_junk(self):
        """The sandwich oracle's scalar read-off refuses a non-multiple."""
        lam = (2, 1)
        z = algebra_element(identity(3))
        with pytest.raises(ValueError):
            scalar_extract(lam, z)
        c = idempotent(lam)
        assert scalar_extract(lam, c * Fraction(5, 2)) == Fraction(5, 2)

    @pytest.mark.parametrize("lam", [(2, 1), (2, 2)])
    def test_left_action_is_representation(self, lam):
        r = sum(lam)
        d = hook_dimension(lam)

        def matmul(A, B):
            return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(d))
                               for j in range(d)) for i in range(d))

        for s in all_permutations(r)[:8]:
            for t in all_permutations(r)[:8]:
                # covariant in the "then" product: A(s)A(t) = A(s*t)
                left = matmul(left_action_matrix(lam, s), left_action_matrix(lam, t))
                assert left == left_action_matrix(lam, mul(s, t))

    def test_contravariance(self):
        """<s v, w> = <v, s^{-1} w> for the Specht form."""
        lam = (2, 1)
        G = specht_gram(lam)
        d = len(G)
        for s in all_permutations(3):
            A = left_action_matrix(lam, s)
            B = left_action_matrix(lam, inverse(s))
            lhs = tuple(tuple(sum(A[k][i] * G[k][j] for k in range(d))
                              for j in range(d)) for i in range(d))
            rhs = tuple(tuple(sum(G[i][k] * B[k][j] for k in range(d))
                              for j in range(d)) for i in range(d))
            assert lhs == rhs


class TestAgainstSandwichOracles:
    """The Specht data read off the coefficients of C against products in
    the group algebra.  The sigma-tables at r <= 4 are checked against the
    sandwich in test_gram.py."""

    @pytest.mark.parametrize("lam", UP_TO_4)
    def test_gram(self, lam):
        assert specht_gram(lam) == sandwich_specht_gram(lam)

    @pytest.mark.parametrize("lam", UP_TO_4)
    def test_action(self, lam):
        for sigma in all_permutations(sum(lam)):
            assert left_action_matrix(lam, sigma) == elimination_left_action(lam, sigma), sigma

    @pytest.mark.parametrize("lam", partitions(5))
    def test_action_r5_sampled(self, lam):
        for sigma in all_permutations(5)[::29]:
            assert left_action_matrix(lam, sigma) == elimination_left_action(lam, sigma), sigma

    @pytest.mark.slow
    def test_gram_and_sigma_tables_r5_sampled(self):
        """S A(sigma) = M(sigma), the sigma-table of the group algebra."""
        for lam in partitions(5):
            S = specht_gram(lam)
            assert S == sandwich_specht_gram(lam), lam
            for sigma in all_permutations(5)[3::59]:
                A = left_action_matrix(lam, sigma)
                SA = tuple(tuple(sum(g * a for g, a in zip(row, col)) for col in zip(*A))
                           for row in S)
                assert SA == sandwich_sigma_table(lam, sigma), (lam, sigma)


def assert_integral_table(lam):
    """The coordinate table holds ints for every row coset of S_r, and
    every column of every A(sigma) is one of its entries."""
    table = symmetric._coordinates(lam)
    assert len(table) == math.factorial(sum(lam)) // math.prod(map(math.factorial, lam)), lam
    assert all(type(v) is int for a in table.values() for v in a), lam


@pytest.mark.parametrize("r", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_action_is_integral(r):
    for lam in partitions(r):
        assert_integral_table(lam)


@pytest.mark.slow
@pytest.mark.parametrize("lam", [(4, 2, 1, 1), (3, 2, 2, 1)])
def test_action_is_integral_r8(lam):
    """d = 90 and d = 70, over 840 and 1680 row cosets."""
    assert_integral_table(lam)


@pytest.mark.parametrize("r", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_coordinates_match_echelon_oracle(r):
    """The integer table read off the certified frame is the solve of
    S a = m(t) by one echelon form over Q, row coset by row coset."""
    for lam in partitions(r):
        table, oracle = symmetric._coordinates(lam), coordinates_by_echelon(lam)
        assert list(table) == list(oracle) and table == oracle, lam


def test_bumped_inverse_gram_is_not_integral(monkeypatch):
    """The remainder of the first exact division, that of the first
    coordinate of the identity's translate over the lcm of the terms of
    S^-1 = sum_k T_k T_k^t / N_k, bumped by 1 is refused as not integral.
    The frame is certified first, so the bump reaches the division only."""
    specht_frame((2, 1))
    bumps = [1]

    def bumped(n, den):
        q, rem = divmod(n, den)
        return q, rem + (bumps.pop() if bumps else 0)

    monkeypatch.setattr(symmetric, "divmod", bumped, raising=False)
    symmetric._coordinates.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=r"not integral at the translate \(1, 2, 3\)"):
            symmetric._coordinates((2, 1))
    finally:
        monkeypatch.undo()
        symmetric._coordinates.cache_clear()


def test_actions_are_pinned():
    """Every A(sigma) for every lam of r <= 5 and every sigma in S_r."""
    text = "\n".join(repr((lam, s, left_action_matrix(lam, s)))
                     for lam in UP_TO_5 for s in all_permutations(sum(lam)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "364923db18b8a64a7c132640c399f1511094f55055d004fd1b48cebba216375d")


def test_frames_are_pinned():
    """The Specht basis, T and the norms of specht_frame for every lam of
    r <= 6."""
    text = "\n".join(repr((lam, *specht_frame(lam)[:3])) for lam in UP_TO_6)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3a846cd923c9bc47111a9c204398dc43b08cc0809eb7ae4beadd2cd9d014c652")
