"""The engine's value types are immutable NamedTuples: ModuleLabel keeps
its checks, keyword construction and repr, and hashes as its fields do,
which every lru_cache keyed by a label relies on."""

import pytest

from kadaryu.exactmath import Polynomial
from kadaryu.gram import ModuleLabel, gram_matrix
from kadaryu.morphisms import solve_xi
from kadaryu.rollet import arm_verify


class TestModuleLabel:
    def test_positional_and_keyword_construction_agree(self):
        label = ModuleLabel(1, 5, 3, (2, 1))
        assert label == ModuleLabel(l=1, n=5, p=3, lam=(2, 1))
        assert (label.l, label.n, label.p, label.lam) == (1, 5, 3, (2, 1))
        assert (label.r, label.cups, label.key()) == (3, 1, "l1_n5_p3_lam2-1")

    def test_equal_labels_hash_equal(self):
        a, b = ModuleLabel(2, 7, 5, (4,)), ModuleLabel(2, 7, 5, (4,))
        assert a == b and hash(a) == hash(b) == hash((2, 7, 5, (4,)))
        assert a != ModuleLabel(2, 7, 5, (3, 1))
        assert len({a, b}) == 1

    def test_repr(self):
        assert repr(ModuleLabel(2, 7, 5, (4,))) == "ModuleLabel(l=2, n=7, p=5, lam=(4,))"

    def test_immutable(self):
        label = ModuleLabel(0, 4, 2, (2,))
        with pytest.raises(AttributeError):
            label.n = 6
        with pytest.raises(AttributeError):
            label.extra = 1

    @pytest.mark.parametrize("args,message", [
        ((-2, 4, 2, (2,)), "height bound must be >= -1"),
        ((0, 4, 3, (2,)), r"invalid \(n,p\)=\(4,3\): parity/range"),
        ((0, 4, 6, (2,)), r"invalid \(n,p\)=\(4,6\): parity/range"),
        ((0, 4, 2, (3,)), r"lambda \(3,\) is not a partition of min\(p, l\+2\) = 2"),
        ((0, 4, 2, (1, 2)), r"lambda \(1, 2\) is not a partition of min\(p, l\+2\) = 2"),
    ])
    def test_checks(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModuleLabel(*args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModuleLabel(**dict(zip(("l", "n", "p", "lam"), args)))


def test_xi_element():
    xi = solve_xi(0, (2,), 4)
    assert xi.label == ModuleLabel(0, 4, 2, (2,))
    inst = gram_matrix(xi.label)
    assert xi.n == 4 and len(xi.coeffs) == inst.dim and xi.D.lc == 1
    assert xi.coeff(0, (3, 4)) == xi.coeffs[inst.cup_row(0, (3, 4))]
    with pytest.raises(AttributeError):
        xi.D = Polynomial.one()


def test_arm_record():
    (rec,) = arm_verify(0, (2,), range(2, 3), range(1, 2))
    assert (rec.p, rec.m, rec.n, rec.equal) == (2, 1, 4, True)
    assert rec.residual == (Polynomial.one(), Polynomial.one())
    with pytest.raises(AttributeError):
        rec.equal = False
