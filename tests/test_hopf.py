"""Coalgebra structure: deconcatenation, antipode, transfer, infinitesimal."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab import maps
from mzv_lab.hopf import (
    HopfStructure,
    Tensor2,
    antipode,
    base_hopf,
    coideal_check,
    coideal_witness,
    coproduct_square_op,
    counit,
    deconcat,
    infinitesimal_coproduct,
    infinitesimal_coproduct_at,
    transfer_hopf,
)
from mzv_lab.products import (
    IsoConsistencyError,
    quasi_shuffle,
    quasi_shuffle_lambda,
    square_classical,
)
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    AlphabetMismatchError,
    Poly,
    Word,
    WordError,
    membership,
    z_encode,
    zp,
)

h1_h2_words = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(
    lambda c: z_encode(tuple(c), H2)
)
H1_py_words = st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(
    lambda c: z_encode(tuple(c), PY)
)
pdy_words = st.lists(st.sampled_from(["p", "d", "y"]), max_size=5).map(
    lambda l: Word(PDY, l)
)


def zh(*comp):
    return Poly.of(z_encode(comp, H2))


# -- tensors -------------------------------------------------------------------

def test_tensor_ops():
    u = Poly.of(Word(PY, ("p", "y")))
    t = Tensor2.of(u, Poly.unit(PY)) + Tensor2.of(Poly.unit(PY), u)
    assert t.flip() == t
    assert t.map_factors(lambda x: x.scale(2), lambda x: x) == t.scale(2)
    assert t.contract(lambda a, b: a * b) == 2 * u


def test_tensor_int_and_fraction_coefficients_are_interchangeable():
    py, one = Word(PY, ("p", "y")), Word(PY)
    a = Tensor2(PY, {(py, one): 3, (one, py): -1})
    b = Tensor2(PY, {(py, one): Fraction(3), (one, py): Fraction(-1)})
    assert a == b and str(a) == str(b) == "-1 (x) py + 3*py (x) 1"
    assert hash(frozenset(a.terms.items())) == hash(frozenset(b.terms.items()))
    # t - flip(t) contracts to zero under a commutative product, term by term
    t = Tensor2.of(zp((1,)), zp((2,)))
    assert (t - t.flip()).contract(quasi_shuffle_lambda).terms == {}


def test_tensor_concat_mul():
    py = Word(PY, ("p", "y"))
    a = Tensor2.of(Poly.of(py), Poly.unit(PY))
    b = Tensor2.of(Poly.unit(PY), Poly.of(py))
    assert a.concat_mul(b) == Tensor2.of(Poly.of(py), Poly.of(py))


# -- deconcatenation -----------------------------------------------------------

def test_deconcat_cuts_at_z_boundaries():
    w = z_encode((2, 1), H2)
    expected = (
        Tensor2.of(Poly.unit(H2), Poly.of(w))
        + Tensor2.of(zh(2), zh(1))
        + Tensor2.of(Poly.of(w), Poly.unit(H2))
    )
    assert deconcat(w) == expected


def test_counit():
    assert counit(Poly.unit(PY) + zp((2,))) == 1
    assert counit(zp((2,))) == 0


@given(H1_py_words)
def test_deconcat_counit_laws(w):
    x = Poly.of(w)
    left = Poly.zero(PY)
    right = Poly.zero(PY)
    for (a, b), c in deconcat(x).terms.items():
        left = left + Poly.of(b).scale(c * counit(Poly.of(a)))
        right = right + Poly.of(a).scale(c * counit(Poly.of(b)))
    assert left == x and right == x


@given(H1_py_words)
@settings(max_examples=50)
def test_deconcat_coassociative(w):
    lhs = {}
    rhs = {}
    for (a, b), c in deconcat(w).terms.items():
        for (a1, a2), c2 in deconcat(a).terms.items():
            lhs[(a1, a2, b)] = lhs.get((a1, a2, b), Fraction(0)) + c * c2
        for (b1, b2), c2 in deconcat(b).terms.items():
            rhs[(a, b1, b2)] = rhs.get((a, b1, b2), Fraction(0)) + c * c2
    assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


# -- antipode ------------------------------------------------------------------

def test_antipode_single_letter_and_frozen_value():
    assert antipode(zp((2,))) == -zp((2,))
    # S(z2 z1) = -z2z1 + z2 * z1 under the lambda=1 stuffle
    assert antipode(zp((2, 1)), 1) == zp((1, 2)) + zp((3,))


@given(H1_py_words, st.sampled_from([1, -1, 2]))
@settings(max_examples=60)
def test_antipode_convolution_inverse(w, lam):
    H = base_hopf(PY, lam)
    x = Poly.of(w)
    acc = Poly.zero(PY)
    for (a, b), c in deconcat(x).terms.items():
        acc = acc + H.product(antipode(Poly.of(a), lam), Poly.of(b)).scale(c)
    assert acc == Poly.unit(PY).scale(counit(x))


def test_antipode_h2_limits():
    assert antipode(zh(2)) == -zh(2)
    with pytest.raises(WordError):
        antipode(zh(2), -1)  # deformed stuffle lives on the p/y side


# -- transfer ------------------------------------------------------------------

def test_transfer_matches_direct_square():
    Ht = transfer_hopf(base_hopf(H2, 1), maps.tau, maps.tau, name="tau")
    assert Ht.product(zh(2), zh(2)) == square_classical(zh(2), zh(2))
    assert Ht.counit(Poly.unit(H2)) == 1


def test_transfer_consistency_guard():
    Ht = transfer_hopf(base_hopf(H2, 1), maps.tau, lambda x: x.scale(3), name="broken")
    with pytest.raises(IsoConsistencyError):
        Ht.product(zh(2), zh(2))


# -- opposite square coproduct ---------------------------------------------------

def test_square_op_frozen_value():
    ppy = zp((2,))
    expected = (
        Tensor2.of(Poly.unit(PY), ppy)
        + Tensor2.of(Poly.of(Word(PY, ("p",))), zp((1,)))
        + Tensor2.of(ppy, Poly.unit(PY))
    )
    assert coproduct_square_op(ppy) == expected


def test_square_op_is_py_only():
    with pytest.raises(AlphabetMismatchError):
        coproduct_square_op(zh(2))


# -- infinitesimal coproduct -----------------------------------------------------

def test_infinitesimal_generators():
    p = Poly.of(Word(PDY, ("p",)))
    y = Poly.of(Word(PDY, ("y",)))
    d = Poly.of(Word(PDY, ("d",)))
    one = Poly.unit(PDY)
    assert infinitesimal_coproduct(p) == Tensor2.of(p, one) + Tensor2.of(one, p)
    assert infinitesimal_coproduct(y) == Tensor2.of(y, one)
    assert infinitesimal_coproduct(d) == Tensor2(PDY, {})


def test_infinitesimal_py_example():
    py = Poly.of(Word(PY, ("p", "y")))
    one = Poly.unit(PY)
    assert infinitesimal_coproduct(py) == Tensor2.of(py, one) + Tensor2.of(one, py)


@given(pdy_words)
@settings(max_examples=80)
def test_infinitesimal_split_point_independent(w):
    reference = infinitesimal_coproduct(Poly.of(w))
    for i in range(1, len(w)):
        assert infinitesimal_coproduct_at(w, i) == reference


@given(pdy_words)
@settings(max_examples=50)
def test_infinitesimal_coassociative(w):
    lhs = {}
    rhs = {}
    for (a, b), c in infinitesimal_coproduct(Poly.of(w)).terms.items():
        for (a1, a2), c2 in infinitesimal_coproduct(Poly.of(a)).terms.items():
            key = (a1, a2, b)
            lhs[key] = lhs.get(key, Fraction(0)) + c * c2
        for (b1, b2), c2 in infinitesimal_coproduct(Poly.of(b)).terms.items():
            key = (a, b1, b2)
            rhs[key] = rhs.get(key, Fraction(0)) + c * c2
    assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def test_square_op_equals_infinitesimal_on_H0():
    for comp in [(1,), (2,), (1, 1), (2, 1), (1, 0), (3,)]:
        x = zp(comp)
        assert coproduct_square_op(x) == infinitesimal_coproduct(x)


# -- coideal checks --------------------------------------------------------------

def _h0_samples():
    return [z_encode(c, PY) for c in [(1,), (2,), (1, 1), (1, 0), (2, 1)]]


def test_coideal_table():
    pred_H0 = lambda w: membership(w, "H0")
    assert coideal_check(pred_H0, deconcat, "left", _h0_samples())
    assert coideal_check(pred_H0, coproduct_square_op, "right", _h0_samples())

    pred_h0 = lambda w: membership(w, "h0")
    samples = [z_encode((2, 1), H2)]
    assert not coideal_check(pred_h0, deconcat, "right", samples)
    witness = coideal_witness(pred_h0, deconcat, "right", samples)
    assert witness == (z_encode((2, 1), H2), z_encode((1,), H2))


def test_coideal_check_validates_inputs():
    with pytest.raises(WordError):
        coideal_check(lambda w: membership(w, "H0"), deconcat, "middle", _h0_samples())
    with pytest.raises(WordError):
        coideal_check(
            lambda w: membership(w, "H0"), deconcat, "left", [Word(PY, ("y",))]
        )
