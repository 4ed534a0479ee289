"""Linear maps: dualities, derivations, binomial transfers, the S pair."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab import maps, products, words
from mzv_lab.cli import main
from mzv_lab.words import (
    H2,
    PY,
    AlphabetMismatchError,
    NotInSubalgebraError,
    Poly,
    Word,
    WordError,
    z_encode,
    zp,
)

h2_words = st.lists(st.sampled_from(["x0", "x1"]), max_size=7).map(lambda l: Word(H2, l))
py_words = st.lists(st.sampled_from(["p", "y"]), max_size=7).map(lambda l: Word(PY, l))
h0_comps = st.tuples(
    st.integers(min_value=2, max_value=4),
    st.lists(st.integers(min_value=1, max_value=3), max_size=2),
).map(lambda t: (t[0],) + tuple(t[1]))
H0_comps = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
).map(lambda t: (t[0],) + tuple(t[1]))


def zh(*comp):
    return Poly.of(z_encode(comp, H2))


# -- dualities -----------------------------------------------------------------

def test_tau_classical_example():
    assert maps.tau(z_encode((5, 1), H2)) == Poly.of(z_encode((3, 1, 1, 1), H2))


@given(h2_words)
def test_tau_involution(w):
    assert maps.tau(maps.tau(w)) == Poly.of(w)


@given(py_words)
def test_tau_tilde_involution(w):
    assert maps.tau_tilde(maps.tau_tilde(w)) == Poly.of(w)


def test_duality_maps_respect_alphabets():
    with pytest.raises(AlphabetMismatchError):
        maps.tau(zp((2,)))
    with pytest.raises(AlphabetMismatchError):
        maps.tau_tilde(zh(2))


# -- derivations ----------------------------------------------------------------

def test_derivation_frozen_value():
    assert maps.derivation(z_encode((2,), H2), 2) == zh(2, 1, 1) - zh(4)


@given(h2_words, h2_words, st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_derivation_leibniz(u, v, n):
    pu, pv = Poly.of(u), Poly.of(v)
    assert maps.derivation(pu * pv, n) == maps.derivation(pu, n) * pv + pu * (
        maps.derivation(pv, n)
    )


def test_derivation_shifts_weight_by_n():
    for n in (1, 2, 3):
        out = maps.derivation(z_encode((2, 1), H2), n)
        assert all(w.weight == 3 + n for w, _ in out)


def test_derivation_domain():
    with pytest.raises(WordError):
        maps.derivation(zh(2), 0)
    with pytest.raises(AlphabetMismatchError):
        maps.derivation(zp((2,)), 1)


# -- binomial transfer maps -------------------------------------------------------

def test_U_and_V_frozen_values():
    assert maps.map_U(z_encode((3,), H2)) == zh(2) + zh(3)
    assert maps.map_V(z_encode((3,), PY)) == zp((1,)) + 2 * zp((2,)) + zp((3,))


@given(h0_comps)
def test_U_roundtrip(comp):
    w = z_encode(comp, H2)
    assert maps.map_U_inv(maps.map_U(w)) == Poly.of(w)
    assert maps.map_U(maps.map_U_inv(w)) == Poly.of(w)


@given(H0_comps)
def test_V_roundtrip(comp):
    w = z_encode(comp, PY)
    assert maps.map_V_inv(maps.map_V(w)) == Poly.of(w)
    assert maps.map_V(maps.map_V_inv(w)) == Poly.of(w)


def test_U_domain():
    with pytest.raises(NotInSubalgebraError):
        maps.map_U(Poly.of(Word(H2, ("x1",))))  # needs leading part >= 2


# -- duality families --------------------------------------------------------------

def test_dual_family_frozen_values():
    assert maps.dual_family_1(z_encode((2,), PY)) == zp((1, 0)) + zp((1,))
    assert maps.dual_family_1(z_encode((3,), PY)) == zp((1, 0, 0)) + 2 * zp((1, 0)) + zp(
        (1,)
    )
    assert maps.dual_family_2(z_encode((3,), H2)) == zh(2, 1) + zh(2)


@given(H0_comps)
@settings(max_examples=50)
def test_dual_family_1_is_involutive(comp):
    w = z_encode(comp, PY)
    assert maps.dual_family_1(maps.dual_family_1(w)) == Poly.of(w)


@given(h0_comps)
@settings(max_examples=50)
def test_dual_family_2_is_involutive(comp):
    w = z_encode(comp, H2)
    assert maps.dual_family_2(maps.dual_family_2(w)) == Poly.of(w)


# -- the S pair ---------------------------------------------------------------------

def test_S_frozen_values():
    assert maps.ihara_S(zp((2, 1))) == zp((2, 1)) + zp((3,))
    assert maps.ihara_S(zp((1, 1, 1))) == zp((1, 1, 1)) + zp((1, 2)) + zp((2, 1)) + zp(
        (3,)
    )


@given(H0_comps)
@settings(max_examples=60)
def test_S_roundtrips(comp):
    w = z_encode(comp, PY)
    assert maps.ihara_S(maps.ihara_S_inv(w)) == Poly.of(w)
    assert maps.ihara_S_inv(maps.ihara_S(w)) == Poly.of(w)


def test_S_turns_minus_stuffle_into_plus_stuffle():
    u, v = zp((2,)), zp((1, 1))
    lhs = maps.ihara_S(products.quasi_shuffle_lambda(u, v, -1))
    rhs = products.quasi_shuffle_lambda(maps.ihara_S(u), maps.ihara_S(v), 1)
    assert lhs == rhs


def test_S_alphabet():
    with pytest.raises(AlphabetMismatchError):
        maps.ihara_S(zh(2))


# -- registry -------------------------------------------------------------------------

def test_get_map_registry():
    for name in ("tau", "tautilde", "U", "Uinv", "V", "Vinv", "S", "Sinv", "dual1", "dual2"):
        lm = maps.get_map(name)
        assert lm.name == name
    assert maps.get_map("tau").apply(zh(5, 1)) == Poly.of(z_encode((3, 1, 1, 1), H2))
    dn = maps.get_map("dn:2")
    assert dn.apply(zh(2)) == maps.derivation(zh(2), 2)


def test_get_map_errors():
    with pytest.raises(WordError) as err:
        maps.get_map("nope")
    assert "tau" in str(err.value)  # error lists the known names
    with pytest.raises(WordError):
        maps.get_map("dn:0")
    with pytest.raises(WordError):
        maps.get_map("dn:x")


def test_derivation_refuses_the_indices_get_map_refuses(capsys):
    x = zh(2)
    for n, message in ((17, "derivation index must be <= 16, got 17"),
                       (0, "derivation index must be >= 1, got 0")):
        with pytest.raises(WordError, match=f"^{message}$"):
            maps.get_map(f"dn:{n}")
        start = time.perf_counter()
        with pytest.raises(WordError, match=f"^{message}$"):  # before any image is built
            maps.derivation(x, n)
        assert time.perf_counter() - start < 0.1
    # the command line checks the index before it parses the operand
    assert main(["map", "--name", "dn:17", "--alphabet", "h", "x9"]) == 2
    assert capsys.readouterr().err == "error: derivation index must be <= 16, got 17\n"


@pytest.mark.parametrize(
    "name, alphabet, comps",
    [("U", H2, [(2,), (3, 1), (4, 2, 1)]), ("Uinv", H2, [(2,), (3, 1), (4, 2, 1)]),
     ("V", PY, [(1,), (2, 0), (3, 1, 2)]), ("Vinv", PY, [(1,), (2, 0), (3, 1, 2)])],
)
def test_binomial_maps_decode_each_word_once(name, alphabet, comps):
    # the decode table builds each word's composition once, for both the term count and the sum
    x = Poly._make(alphabet, {z_encode(c, alphabet): i + 1 for i, c in enumerate(comps)})
    words.clear_caches()
    stores = words._COMP_CACHE.stores
    out = maps.get_map(name).apply(x)
    assert words._COMP_CACHE.stores - stores == len(x.terms)
    assert out == sum((maps.get_map(name).apply(Poly._make(alphabet, {w: c})) for w, c in x.terms.items()),
                      Poly.zero(alphabet))
