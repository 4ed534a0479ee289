"""Products: shuffles, stuffles, lambda deformations, star and OOZ variants.

Commutativity properties run through the *_ordered entry points on purpose:
the public wrappers canonicalize the operand pair before memoization, which
would make u*v == v*u vacuously true.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab import products
from mzv_lab.products import (
    IsoConsistencyError,
    ZPoly,
    ZWord,
    ihara_circ,
    ooz_explicit,
    ooz_quasi_shuffle,
    ooz_square,
    quasi_shuffle,
    quasi_shuffle_lambda,
    shuffle,
    shuffle_lambda,
    shuffle_star,
    shuffle_star_alt,
    square_classical,
    square_lambda,
    t_op,
    transferred_product,
    zpoly_from_poly,
    zpoly_to_poly,
)
from mzv_lab.words import H2, PDY, PY, Poly, Word, WordError, z_encode, zp

small_h2 = st.lists(st.sampled_from(["x0", "x1"]), max_size=4).map(lambda l: Word(H2, l))
small_py = st.lists(st.sampled_from(["p", "y"]), max_size=4).map(lambda l: Word(PY, l))
small_pdy = st.lists(st.sampled_from(["p", "d", "y"]), max_size=4).map(
    lambda l: Word(PDY, l)
)
lams = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])


def zh(*comp):
    return Poly.of(z_encode(comp, H2))


# -- fixed values ------------------------------------------------------------

def test_stuffle_z2_z2():
    assert quasi_shuffle(zh(2), zh(2)) == 2 * zh(2, 2) + zh(4)


def test_shuffle_z2_z2():
    w = z_encode((2,), H2)
    assert shuffle(w, w) == 2 * zh(2, 2) + 4 * zh(3, 1)


def test_shuffle_lambda_py_py():
    py = zp((1,))
    assert shuffle_lambda(py, py, 1) == 2 * zp((1, 1)) + zp((1, 0))
    assert shuffle_lambda(py, py, -1) == 2 * zp((1, 1)) - zp((1, 0))


def test_shuffle_lambda_d_rules():
    d = Poly.of(Word(PDY, ("d",)))
    p = Poly.of(Word(PDY, ("p",)))
    for lam in (1, -1, 2, Fraction(1, 2)):
        assert shuffle_lambda(d, d, lam) == d.scale(Fraction(-1, 1) / lam)
        assert shuffle_lambda(d, p, lam) == d.scale(-lam)
        assert shuffle_lambda(p, d, lam) == d.scale(-lam)
    with pytest.raises(WordError):
        shuffle_lambda(d, d, 0)


def test_ooz_stuffle_z1_z1():
    py = zp((1,))
    assert ooz_quasi_shuffle(py, py) == 2 * zp((1, 1)) - 2 * zp((1, 0)) + zp((2,)) - zp(
        (1,)
    )


def test_ooz_square_py_py():
    py = zp((1,))
    assert ooz_square(py, py) == 2 * zp((1, 1)) + zp((1, 0)) - 2 * zp((2,)) - zp((1,))


def test_star_values():
    x0, x1 = Poly.of(Word(H2, ("x0",))), Poly.of(Word(H2, ("x1",)))
    xx = lambda *ls: Poly.of(Word(H2, ls))
    assert shuffle_star(x1, x1) == 2 * xx("x1", "x1") - 2 * xx("x0", "x1")
    assert shuffle_star(x1, x0) == xx("x1", "x0") + xx("x0", "x1") - xx(
        "x0", "x0"
    ) - xx("x1", "x1")


def test_t_op():
    assert t_op(zp((3,))) == zp((3,)) - zp((2,))
    assert t_op(zp((1, 0))) == zp((1, 0)) - zp((0, 0))
    assert t_op(Poly.unit(PY)) == Poly.unit(PY)
    with pytest.raises(WordError):
        t_op(zp((0, 2)))  # leading part must be >= 1


def test_ihara_circ():
    assert ihara_circ(zp((2,)), zp((3,))) == zp((5,))
    assert ihara_circ(zp((2,)), zp((3, 1))) == zp((5, 1))
    assert ihara_circ(zh(2), zh(3)) == zh(5)
    assert not ihara_circ(zp((2,)), Poly.unit(PY)).terms  # z_k . 1 = 0
    with pytest.raises(WordError):
        ihara_circ(zp((2, 1)), zp((3,)))  # left slot takes a single z letter


# -- algebra laws ------------------------------------------------------------

@given(small_h2, small_h2)
def test_shuffle_commutative(u, v):
    assert products.shuffle_ordered(u, v) == products.shuffle_ordered(v, u)


@given(small_h2, small_h2, small_h2)
@settings(max_examples=60, deadline=None)
def test_shuffle_associative(u, v, w):
    assert shuffle(shuffle(u, v), Poly.of(w)) == shuffle(Poly.of(u), shuffle(v, w))


@given(small_h2)
def test_shuffle_unit(u):
    assert shuffle(Poly.unit(H2), Poly.of(u)) == Poly.of(u)


py_z_words = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=3
).map(lambda c: z_encode(tuple(c), PY))


@given(py_z_words, py_z_words, lams)
def test_quasi_shuffle_lambda_commutative(u, v, lam):
    fn = products._quasi_word_fn(PY, lam)
    assert fn(u, v) == fn(v, u)


@given(py_z_words, py_z_words, py_z_words, lams)
@settings(max_examples=60, deadline=None)
def test_quasi_shuffle_lambda_associative(u, v, w, lam):
    assert quasi_shuffle_lambda(quasi_shuffle_lambda(u, v, lam), Poly.of(w), lam) == (
        quasi_shuffle_lambda(Poly.of(u), quasi_shuffle_lambda(v, w, lam), lam)
    )


@given(small_pdy, small_pdy, lams)
def test_shuffle_lambda_commutative_pdy(u, v, lam):
    assert products.shuffle_lambda_ordered(u, v, lam) == products.shuffle_lambda_ordered(
        v, u, lam
    )


@given(small_pdy, small_pdy, small_pdy, lams)
@settings(max_examples=60, deadline=None)
def test_shuffle_lambda_associative_pdy(u, v, w, lam):
    assert shuffle_lambda(shuffle_lambda(u, v, lam), Poly.of(w), lam) == shuffle_lambda(
        Poly.of(u), shuffle_lambda(v, w, lam), lam
    )


@given(small_h2, small_h2)
def test_shuffle_preserves_weight(u, v):
    out = shuffle(u, v)
    assert all(w.weight == u.weight + v.weight for w, _ in out)


@given(small_py, small_py, lams)
def test_shuffle_lambda_is_weight_filtered(u, v, lam):
    # the lambda corrections only lose weight, never gain it
    out = shuffle_lambda(u, v, lam)
    assert all(w.weight <= u.weight + v.weight for w, _ in out)


@given(small_h2, small_h2)
def test_star_commutative(u, v):
    assert products.shuffle_star_ordered(u, v) == products.shuffle_star_ordered(v, u)


@given(small_h2, small_h2)
def test_star_alt_agrees_on_nonempty_words(u, v):
    if u.is_unit or v.is_unit:
        with pytest.raises(WordError):
            shuffle_star_alt(u, v)
    else:
        assert shuffle_star_alt(u, v) == shuffle_star(u, v)


# -- OOZ product, recursive vs explicit ---------------------------------------

small_comps = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=0, max_value=3), max_size=2),
).map(lambda t: (t[0],) + tuple(t[1]))


@given(small_comps, small_comps)
@settings(max_examples=80)
def test_ooz_explicit_matches_recursive(c1, c2):
    u, v = z_encode(c1, PY), z_encode(c2, PY)
    lhs = zpoly_to_poly(ooz_explicit(ZWord(c1), ZWord(c2)))
    assert lhs == ooz_quasi_shuffle(u, v)


@given(small_comps, small_comps)
@settings(max_examples=60)
def test_ooz_commutative(c1, c2):
    assert ooz_explicit(ZWord(c1), ZWord(c2)) == ooz_explicit(ZWord(c2), ZWord(c1))


mixed_parts = st.lists(st.integers(min_value=-2, max_value=3), max_size=3).map(tuple)


@given(mixed_parts, mixed_parts)
@settings(max_examples=60)
def test_ooz_explicit_commutative_on_mixed_sign_arguments(c1, c2):
    # the closed formula is defined for arbitrary integer parts
    assert ooz_explicit(ZWord(c1), ZWord(c2)) == ooz_explicit(ZWord(c2), ZWord(c1))


@given(small_comps, small_comps, small_comps)
@settings(max_examples=30, deadline=None)
def test_ooz_associative_on_nonnegative_words(c1, c2, c3):
    u, v, w = (zp(c) for c in (c1, c2, c3))
    assert ooz_quasi_shuffle(ooz_quasi_shuffle(u, v), w) == ooz_quasi_shuffle(
        u, ooz_quasi_shuffle(v, w)
    )


def test_zpoly_conversions():
    x = 2 * zp((2, 1)) - zp((1,))
    assert zpoly_to_poly(zpoly_from_poly(x)) == x
    neg = ZPoly.of((2, -1))
    with pytest.raises(WordError):
        zpoly_to_poly(neg)  # negative parts have no p/y word


def test_zpoly_int_and_fraction_coefficients_are_interchangeable():
    a = ZPoly({ZWord((2,)): 3, ZWord((1, -1)): -1})
    b = ZPoly({ZWord((2,)): Fraction(3), ZWord((1, -1)): Fraction(-1)})
    assert a == b and repr(a) == repr(b) == "ZPoly(-z[1, -1] + 3*z[2])"
    assert hash(frozenset(a.terms.items())) == hash(frozenset(b.terms.items()))


def test_cancelling_pieces_leave_no_zero_coefficient():
    # (a - b) x (a + b) = a.a - b.b: the two a.b cross terms cancel in place
    a, b = zh(2), zh(1, 1)
    got = quasi_shuffle(a - b, a + b)
    assert got == quasi_shuffle(a, a) - quasi_shuffle(b, b)
    assert all(got.terms.values())
    za, zb = ZWord((2,)), ZWord((1, 1))
    got = ooz_explicit(ZPoly({za: 1, zb: -1}), ZPoly({za: 1, zb: 1}))
    assert got == ooz_explicit(za, za) - ooz_explicit(zb, zb)
    assert all(got.terms.values())


def test_in_place_accumulation_leaves_memo_values_alone():
    from mzv_lab import hopf

    products.clear_caches()
    u, v, w = Word(H2, ("x1",)), Word(H2, ("x0", "x1")), Word(H2, ("x0",))
    first = products.shuffle_ordered(u, v)  # the first piece of the products below
    snapshot = dict(first.terms)
    shuffle(Poly.of(u) + Poly.of(w), v)
    Poly.of(v, 2).map_words(lambda x: first) + first
    assert products.shuffle_ordered(u, v) is first and first.terms == snapshot
    zu, zv = ZWord((1,)), ZWord((2, 1))
    zfirst = products.ooz_explicit_ordered(zu, zv)
    zsnapshot = dict(zfirst.terms)
    ooz_explicit(ZPoly({zu: 1, ZWord((3,)): 1}), zv)
    assert products.ooz_explicit_ordered(zu, zv).terms == zsnapshot
    py = Word(PY, ("p", "y"))
    dfirst = hopf.infinitesimal_coproduct(Poly.of(py))
    dsnapshot = dict(dfirst.terms)
    hopf.infinitesimal_coproduct(Poly.of(py) + Poly.of(Word(PY, ("y",))))
    assert hopf.infinitesimal_coproduct(Poly.of(py)).terms == dsnapshot


@pytest.mark.parametrize("lam", [1, -1, 2, Fraction(1, 2)])
def test_every_product_has_exact_coefficients(lam):
    h = [zh(2), zh(2, 1) - zh(3).scale(Fraction(1, 2)), zh(1, 2)]
    p = [zp((1,)), zp((2, 0)) + 3 * zp((1, 1)), Poly.of(Word(PY, ("p", "p", "y")), -1)]
    d = [Poly.of(Word(PDY, ("d", "p", "y"))), Poly.of(Word(PDY, ("d",)), 2)]
    outs = []
    for u, v in zip(h, h[1:]):
        outs += [shuffle(u, v), quasi_shuffle(u, v), shuffle_star(u, v), shuffle_star_alt(u, v)]
    outs.append(square_classical(zh(2), zh(3)))
    for u, v in zip(p, p[1:]):
        outs += [quasi_shuffle_lambda(u, v, lam), shuffle_lambda(u, v, lam), t_op(u)]
        outs += [ooz_quasi_shuffle(u, v), zpoly_to_poly(ooz_explicit(zpoly_from_poly(u), zpoly_from_poly(v)))]
    outs += [square_lambda(zp((2,)), zp((1, 1)), lam), ooz_square(zp((1,)), zp((2,)))]
    outs += [ihara_circ(zp((2,)), zp((1, 1))), shuffle_lambda(d[0], d[1], lam)]
    coeffs = [c for x in outs for c in x.terms.values()]
    assert coeffs and all(type(c) in (int, Fraction) for c in coeffs)


def test_ooz_quasi_shuffle_domain():
    with pytest.raises(WordError):
        ooz_quasi_shuffle(zp((0, 1)), zp((1,)))  # leading part must be >= 1


# -- transferred squares -------------------------------------------------------

def test_square_classical_example():
    x = lambda *ls: Poly.of(Word(H2, ls))
    assert square_classical(zh(2), zh(2)) == 2 * x("x0", "x1", "x0", "x1") + x(
        "x0", "x1", "x1", "x1"
    )


@given(small_py, small_py)
@settings(max_examples=40)
def test_square_lambda_equals_shuffle_lambda_on_H0(u, v):
    # restrict to boundary words where both sides are defined
    from mzv_lab.words import membership

    if not (membership(u, "H0") and membership(v, "H0")):
        return
    for lam in (1, -1):
        assert square_lambda(u, v, lam) == shuffle_lambda(u, v, lam)


def test_transferred_product_consistency_guard():
    from mzv_lab import maps

    # healthy transfer: conjugating the stuffle by tau gives the classical square
    out = transferred_product(quasi_shuffle, maps.tau, maps.tau, zh(2), zh(2))
    assert out == square_classical(zh(2), zh(2))

    # broken pair of isos is refused
    with pytest.raises(IsoConsistencyError):
        transferred_product(quasi_shuffle, maps.tau, lambda x: x.scale(2), zh(2), zh(2))


def test_alphabet_mismatch_rejected():
    with pytest.raises(WordError):
        shuffle(zh(2), zp((1,)))


def test_clear_caches_runs():
    products.clear_caches()
    assert quasi_shuffle(zh(2), zh(2)) == 2 * zh(2, 2) + zh(4)
