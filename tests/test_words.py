"""Words, gradings, codecs, memberships, and the structural morphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab.words import (
    H2,
    PDY,
    PY,
    AlphabetMismatchError,
    EncodingError,
    Grading,
    NotInSubalgebraError,
    Poly,
    Word,
    WordError,
    add_into,
    block_map,
    embed_J,
    iter_words,
    iter_zcomps,
    membership,
    phi,
    phi_inv,
    poly_membership,
    reverse_swap,
    weight_projection,
    z_decode,
    z_encode,
)

h2_words = st.lists(st.sampled_from(["x0", "x1"]), max_size=8).map(
    lambda ls: Word(H2, ls)
)
py_words = st.lists(st.sampled_from(["p", "y"]), max_size=8).map(lambda ls: Word(PY, ls))
pdy_raw = st.lists(st.sampled_from(["p", "d", "y"]), max_size=10)


# -- normalization -----------------------------------------------------------

def test_pdy_rewrites_pd_and_dp_to_unit():
    assert Word(PDY, "pd").is_unit
    assert Word(PDY, "dp").is_unit
    assert Word(PDY, ("p", "d", "y")) == Word(PDY, ("y",))
    assert Word(PDY, ("p", "p", "d", "y")) == Word(PDY, ("p", "y"))
    assert Word(PDY, ("d", "p", "p")) == Word(PDY, ("p",))
    # nested cancellation: p (pd) d -> pd -> 1
    assert Word(PDY, ("p", "p", "d", "d")).is_unit


@given(pdy_raw)
def test_pdy_normal_forms_have_no_adjacent_pd_or_dp(ls):
    w = Word(PDY, ls)
    pairs = set(zip(w.letters, w.letters[1:]))
    assert ("p", "d") not in pairs and ("d", "p") not in pairs


@given(pdy_raw)
def test_pdy_normalization_is_idempotent(ls):
    w = Word(PDY, ls)
    assert Word(PDY, w.letters) == w


@given(pdy_raw, pdy_raw)
def test_pdy_concatenation_agrees_with_flat_normalization(a, b):
    assert Word(PDY, a) * Word(PDY, b) == Word(PDY, a + b)


def test_words_are_immutable_and_hashable():
    w = Word(H2, ("x0", "x1"))
    with pytest.raises(AttributeError):
        w.letters = ()
    assert len({w, Word(H2, ("x0", "x1"))}) == 1


def test_invalid_letter_rejected():
    with pytest.raises(WordError):
        Word(H2, ("x0", "q"))
    with pytest.raises(WordError):
        Word(PY, ("d",))


# -- gradings ----------------------------------------------------------------

def test_weight_conventions():
    assert Word(H2, ("x0", "x1", "x1")).weight == 3  # length on x0/x1
    assert Word(PY, ("p", "y", "y")).weight == 1  # p carries weight
    assert Word(PDY, ("y", "d")).weight == -1  # d carries weight -1


def test_depth_counts_trailing_letter():
    assert Word(H2, ("x0", "x1", "x1")).depth == 2
    assert Word(PY, ("p", "y", "y")).depth == 2
    assert Word(PDY, ("d",)).depth == 0


@given(py_words, py_words)
def test_grading_additive_under_concatenation(u, v):
    assert (u * v).grading() == u.grading() + v.grading()


@given(pdy_raw, pdy_raw)
def test_pdy_weight_survives_normalization(a, b):
    # pd -> 1 removes weight +1 and -1 together
    u, v = Word(PDY, a), Word(PDY, b)
    assert (u * v).weight == u.weight + v.weight


def test_grading_value():
    g = Word(PY, ("p", "p", "y")).grading()
    assert (g.weight, g.depth, g.length) == (2, 1, 3)
    assert g + Grading(1, 0, 1) == Grading(3, 1, 4)


# -- z codecs ----------------------------------------------------------------

h2_comps = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=4).map(
    tuple
)
py_comps = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=4).map(
    tuple
)


@given(h2_comps)
def test_h2_codec_roundtrip(comp):
    assert z_decode(z_encode(comp, H2)) == comp


@given(py_comps)
def test_py_codec_roundtrip(comp):
    assert z_decode(z_encode(comp, PY)) == comp


def test_codec_examples():
    assert z_encode((2, 1), H2).letters == ("x0", "x1", "x1")
    assert z_encode((2, 1), PY).letters == ("p", "p", "y", "p", "y")
    assert z_encode((0,), PY).letters == ("y",)


def test_codec_domain_errors():
    with pytest.raises(EncodingError):
        z_encode((0,), H2)  # x0/x1 z-letters start at 1
    with pytest.raises(EncodingError):
        z_encode((-1,), PY)
    with pytest.raises(NotInSubalgebraError):
        z_decode(Word(H2, ("x0",)))  # does not end in x1
    with pytest.raises(NotInSubalgebraError):
        z_decode(Word(PY, ("p",)))


# -- memberships -------------------------------------------------------------

def test_membership_table():
    unit = Word(PY)
    for space in ("H1", "Hm1", "H0"):
        assert membership(unit, space)
    py = Word(PY, ("p", "y"))
    assert membership(py, "H1") and membership(py, "Hm1") and membership(py, "H0")
    assert membership(Word(PY, ("y",)), "H1")
    assert not membership(Word(PY, ("y",)), "H0")
    assert not membership(Word(PY, ("p", "y", "p")), "H1")
    assert membership(Word(H2, ("x0", "x1", "x1")), "h0")
    assert not membership(Word(H2, ("x1",)), "h0")
    with pytest.raises(WordError):
        membership(py, "nonsense")
    with pytest.raises(AlphabetMismatchError):
        membership(Word(PDY, ("d",)), "H0")


def test_poly_membership_checks_every_term():
    x = Poly.of(z_encode((2,), H2)) + Poly.of(Word(H2, ("x1",)))
    assert not poly_membership(x, "h0")
    assert poly_membership(x - Poly.of(Word(H2, ("x1",))), "h0")


# -- involutions and morphisms ----------------------------------------------

@given(h2_words)
def test_reverse_swap_involution_h2(w):
    assert reverse_swap(reverse_swap(w)) == w


@given(py_words, py_words)
def test_reverse_swap_antiautomorphism(u, v):
    assert reverse_swap(u * v) == reverse_swap(v) * reverse_swap(u)


def test_reverse_swap_rejects_pdy():
    with pytest.raises(AlphabetMismatchError):
        reverse_swap(Word(PDY, ("d",)))


@given(py_words)
def test_phi_roundtrip(w):
    assert phi_inv(phi(w)) == w


def test_embed_J_codec_compatibility():
    # x0^(k-1) x1 -> p^k y for every k
    for k in range(1, 6):
        assert embed_J(z_encode((k,), H2)) == z_encode((k,), PY)
    assert embed_J(Word(H2, ("x1", "x1"))) == Word(PY, ("p", "y", "p", "y"))


def test_block_map_examples_and_domain():
    assert block_map(z_encode((2, 1), PY)) == z_encode((2, 1), H2)
    with pytest.raises(EncodingError):
        block_map(z_encode((1, 0), PY))  # zero part has no x0/x1 block
    with pytest.raises(NotInSubalgebraError):
        block_map(Word(PY, ("y",)))


def test_weight_projection():
    x = Poly.of(z_encode((1, 1), PY)) + Poly.of(z_encode((2,), PY)) + Poly.of(
        z_encode((1, 0), PY)
    )
    top = weight_projection(x, 2)
    assert top == Poly.of(z_encode((1, 1), PY)) + Poly.of(z_encode((2,), PY))
    assert weight_projection(x, 1) == Poly.of(z_encode((1, 0), PY))
    assert not weight_projection(x, 7).terms


# -- Poly --------------------------------------------------------------------

def test_poly_basic_algebra():
    u = Poly.of(Word(PY, ("p", "y")))
    v = Poly.of(Word(PY, ("y",)), Fraction(1, 2))
    assert (u + v) - v == u
    assert (u - u) == Poly.zero(PY) and not (u - u)
    assert 2 * v == Poly.of(Word(PY, ("y",)))
    assert (-u).coeff(Word(PY, ("p", "y"))) == -1


def test_poly_zero_coefficients_drop():
    x = Poly(PY, {Word(PY, ("y",)): Fraction(0)})
    assert not x.terms


def test_poly_concatenation_is_bilinear():
    u = Poly.of(Word(PY, ("p",))) + Poly.of(Word(PY, ("y",)))
    v = Poly.of(Word(PY, ("y",)), 3)
    assert u * v == Poly.of(Word(PY, ("p", "y")), 3) + Poly.of(Word(PY, ("y", "y")), 3)


def test_poly_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        Poly.of(Word(PY, ("y",))) + Poly.of(Word(H2, ("x1",)))


def test_poly_iteration_is_sorted_canonically():
    x = Poly.of(Word(PY, ("p", "p", "y"))) + Poly.of(Word(PY, ("y",)))
    words = [w for w, _ in x]
    assert words == sorted(words, key=lambda w: w.sort_key())


def test_int_and_fraction_coefficients_are_interchangeable():
    a = Poly(PY, {Word(PY, ("y",)): 3, Word(PY, ("p", "y")): -1})
    b = Poly(PY, {Word(PY, ("y",)): Fraction(3), Word(PY, ("p", "y")): Fraction(-1)})
    assert a == b and str(a) == str(b) == "3*y - py"
    assert hash(frozenset(a.terms.items())) == hash(frozenset(b.terms.items()))
    # exact input is kept as given; anything else goes through Fraction
    assert type(a.coeff(Word(PY, ("y",)))) is int
    assert Poly.of(Word(PY, ("y",)), 0.5).coeff(Word(PY, ("y",))) == Fraction(1, 2)


def test_in_place_accumulation_never_keeps_a_zero():
    terms: dict = {}
    add_into(terms, "a", 1)
    add_into(terms, "a", Fraction(-1))
    add_into(terms, "b", 0)
    assert terms == {}
    a, b = Word(PY, ("y",)), Word(PY, ("p", "y"))
    x = Poly.of(a) - Poly.of(b)
    assert x.map_words(lambda w: Poly.of(Word(PY, ("p",)))).terms == {}
    assert (Poly.of(a) + Poly.of(b)) * x == Poly.of(a * a) - Poly.of(b * b) + Poly.of(b * a) - Poly.of(a * b)
    assert all((x * x).terms.values())


@given(py_words, py_words, py_words)
def test_poly_concat_associative(a, b, c):
    pa, pb, pc = Poly.of(a), Poly.of(b), Poly.of(c)
    assert (pa * pb) * pc == pa * (pb * pc)


# -- enumeration -------------------------------------------------------------

def test_iter_words_counts():
    assert len(list(iter_words(H2, 3))) == 8
    # 9 raw length-2 p/d/y words minus pd and dp
    assert len(list(iter_words(PDY, 2))) == 7
    assert [w.is_unit for w in iter_words(PY, 0)] == [True]


def test_iter_zcomps():
    assert list(iter_zcomps(4, 2, 2, 1)) == [(2, 2), (3, 1)]
    assert list(iter_zcomps(2, 2, 1, 0)) == [(1, 1), (2, 0)]
    assert list(iter_zcomps(0, 0, 1, 0)) == [()]
    assert list(iter_zcomps(3, 4, 1, 1)) == []
