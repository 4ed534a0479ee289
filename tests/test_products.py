"""Products: shuffles, stuffles, lambda deformations, star and OOZ variants.

Commutativity properties run through the *_ordered entry points on purpose:
the public wrappers canonicalize the operand pair before memoization, which
would make u*v == v*u vacuously true.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab import hopf, maps, products
from mzv_lab.products import (
    IsoConsistencyError,
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
)
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    NotInSubalgebraError,
    Poly,
    Word,
    WordError,
    z_decode,
    z_encode,
    zp,
)

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
    with pytest.raises(WordError, match=r"^the d/d recursion needs lam != 0$"):
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


def test_p_d_y_is_refused_from_the_alphabet_on_a_zero_operand_as_on_a_word():
    for x in (Poly.zero(PDY), Word(PDY, ("d",))):
        with pytest.raises(NotInSubalgebraError, match=r"^no z-block codec on alphabet PDY$"):
            ihara_circ(x, x)
        for square in (square_lambda, ooz_square):
            with pytest.raises(WordError, match=r"^reverse_swap is not defined on p/d/y words$"):
                square(x, x)


def test_ihara_circ_decodes_each_word_once(monkeypatch):
    decode, calls = products.z_decode, []
    monkeypatch.setattr(products, "z_decode", lambda w: calls.append(w) or decode(w))
    left = {(k,): k for k in range(1, 5)}
    right = {(j, j % 3): j - 25 or 1 for j in range(50)} | {(): 7}  # z_k o 1 = 0
    u = Poly._make(PY, {z_encode(c, PY): x for c, x in left.items()})
    v = Poly._make(PY, {z_encode(c, PY): x for c, x in right.items()})
    want: dict = {}
    for (k,), cu in left.items():
        for c, cv in list(right.items())[:-1]:
            key = z_encode((k + c[0],) + c[1:], PY)
            want[key] = want.get(key, 0) + cu * cv
    assert ihara_circ(u, v) == Poly._make(PY, {w: c for w, c in want.items() if c})
    assert len(calls) == len(set(calls)) == 4 + 51  # 4 + 4 * 51 when decoded per pair
    # the first left factor is checked before the right words are decoded, as before
    with pytest.raises(NotInSubalgebraError, match=r"^Word\(PY:p\) does not end in y"):
        ihara_circ(zp((2,)) + zp((1, 1)), Word(PY, ("p",)))
    with pytest.raises(WordError, match=r"^left factor of ihara_circ must be a single z-letter"):
        ihara_circ(zp((1, 1)) + zp((2,)), Word(PY, ("p",)))


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
    assert ooz_explicit(u, v) == ooz_quasi_shuffle(u, v)


@given(small_comps, small_comps)
@settings(max_examples=60)
def test_ooz_commutative(c1, c2):
    assert products.ooz_explicit_ordered(c1, c2) == products.ooz_explicit_ordered(c2, c1)


mixed_parts = st.lists(st.integers(min_value=-2, max_value=3), max_size=3).map(tuple)


@given(mixed_parts, mixed_parts)
@settings(max_examples=60)
def test_ooz_explicit_commutative_on_mixed_sign_arguments(c1, c2):
    # the closed formula is defined for arbitrary integer parts
    assert products.ooz_explicit_ordered(c1, c2) == products.ooz_explicit_ordered(c2, c1)


@given(small_comps, small_comps, small_comps)
@settings(max_examples=30, deadline=None)
def test_ooz_associative_on_nonnegative_words(c1, c2, c3):
    u, v, w = (zp(c) for c in (c1, c2, c3))
    assert ooz_quasi_shuffle(ooz_quasi_shuffle(u, v), w) == ooz_quasi_shuffle(
        u, ooz_quasi_shuffle(v, w)
    )


def test_ooz_explicit_refuses_a_negative_part_in_its_result():
    # z_0 x z_0 has terms such as z_{-1}, which no p/y word encodes
    assert products.ooz_explicit_ordered((0,), (0,))[(-1,)] == -1
    with pytest.raises(NotInSubalgebraError):
        ooz_explicit(zp((0,)), zp((0,)))


def test_cancelling_pieces_leave_no_zero_coefficient():
    # (a - b) x (a + b) = a.a - b.b: the two a.b cross terms cancel in place
    a, b = zh(2), zh(1, 1)
    got = quasi_shuffle(a - b, a + b)
    assert got == quasi_shuffle(a, a) - quasi_shuffle(b, b)
    assert all(got.terms.values())
    za, zb = zp((2,)), zp((1, 1))
    got = ooz_explicit(za - zb, za + zb)
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
    assert first.terms == snapshot and products.shuffle_ordered(u, v).terms == snapshot
    # a returned value owns its dict: changing it leaves the memo alone
    first.terms.clear()
    assert products.shuffle_ordered(u, v).terms == snapshot
    zu, zv = (1,), (2, 1)
    zfirst = products.ooz_explicit_ordered(zu, zv)
    zsnapshot = dict(zfirst)
    ooz_explicit(zp(zu) + zp((3,)), zp(zv))
    assert products.ooz_explicit_ordered(zu, zv) == zsnapshot
    zfirst.clear()  # the returned dict is the caller's own
    assert products.ooz_explicit_ordered(zu, zv) == zsnapshot
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
        outs += [ooz_quasi_shuffle(u, v), ooz_explicit(u, v)]
    outs += [square_lambda(zp((2,)), zp((1, 1)), lam), ooz_square(zp((1,)), zp((2,)))]
    outs += [ihara_circ(zp((2,)), zp((1, 1))), shuffle_lambda(d[0], d[1], lam)]
    coeffs = [c for x in outs for c in x.terms.values()]
    assert coeffs and all(type(c) in (int, Fraction) for c in coeffs)


def test_ooz_quasi_shuffle_domain():
    with pytest.raises(WordError):
        ooz_quasi_shuffle(zp((0, 1)), zp((1,)))  # leading part must be >= 1


def test_products_of_undecodable_words_decode_nothing_without_a_pair():
    # no term pair, so the undecodable x1x0 is never decoded
    x1x0 = Word(H2, ("x1", "x0"))
    assert quasi_shuffle(Poly.zero(H2), x1x0) == Poly.zero(H2)


# -- multi-term operands: every public product is the sum over term pairs -----

# ints and Fractions, an integral one included; a short list shrinks fast
coeffs = st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(4)])
h_z_words = st.lists(st.integers(min_value=1, max_value=3), max_size=3).map(
    lambda c: z_encode(tuple(c), H2)
)
ooz_words = st.one_of(st.just(Word(PY)), small_comps.map(lambda c: z_encode(c, PY)))


def _ooz_explicit_ref(a, b):
    d = products.ooz_explicit_ordered(z_decode(a), z_decode(b))
    return Poly(PY, {z_encode(k, PY): c for k, c in d.items()})


# (term words, public product, its reference on one word pair, whether both take lam)
_EXPANSIONS = {
    "shuffle": (small_h2, shuffle, products.shuffle_ordered, False),
    "quasi": (h_z_words, quasi_shuffle, products._quasi_word_fn(H2, 1), False),
    "star": (small_h2, shuffle_star, products.shuffle_star_ordered, False),
    "star-alt": (
        small_h2.filter(lambda w: not w.is_unit), shuffle_star_alt,
        products.shuffle_star_alt_ordered, False,
    ),
    "quasi-lambda": (
        py_z_words, quasi_shuffle_lambda,
        lambda a, b, lam: products._quasi_word_fn(PY, lam)(a, b), True,
    ),
    "shuffle-lambda-py": (small_py, shuffle_lambda, products.shuffle_lambda_ordered, True),
    "shuffle-lambda-pdy": (small_pdy, shuffle_lambda, products.shuffle_lambda_ordered, True),
    "ooz": (ooz_words, ooz_quasi_shuffle, products.ooz_quasi_shuffle_ordered, False),
    "ooz-explicit": (ooz_words, ooz_explicit, _ooz_explicit_ref, False),
}


@pytest.mark.parametrize("kind", list(_EXPANSIONS))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_products_expand_over_term_pairs(kind, data):
    words, product, ordered, with_lam = _EXPANSIONS[kind]
    extra = (data.draw(lams),) if with_lam else ()
    U, V = (data.draw(st.dictionaries(words, coeffs, min_size=2, max_size=3)) for _ in "UV")
    alphabet = next(iter(U)).alphabet
    want = Poly.zero(alphabet)
    for a, ca in U.items():
        for b, cb in V.items():
            want = want + ordered(a, b, *extra).scale(ca * cb)
    got = product(Poly(alphabet, U), Poly(alphabet, V), *extra)
    assert got == want and all(type(c) in (int, Fraction) for c in got.terms.values())


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


def test_squares_conjugate_by_reverse_swap_without_the_transfer_check(monkeypatch):
    # reverse-swap undoes itself on every word, so no square checks its transfer
    def checked(*args):
        raise AssertionError("a square checked its transfer")

    monkeypatch.setattr(products, "_iso_checked", checked)
    assert square_classical(zh(2), zh(2)) == 2 * zh(2, 2) + zh(2, 1, 1)
    for lam in (1, -1, 2):
        assert square_lambda(zp((1,)), zp((2, 0)), lam) == shuffle_lambda(zp((1,)), zp((2, 0)), lam)
    assert ooz_square(zp((1,)), zp((1,))) == 2 * zp((1, 1)) + zp((1, 0)) - 2 * zp((2,)) - zp((1,))


def test_alphabet_mismatch_rejected():
    with pytest.raises(WordError):
        shuffle(zh(2), zp((1,)))


def test_cold_stuffle_spends_one_frame_per_part():
    # D(300, 1) = 601 lattice paths: the coefficients sum to 601.  The
    # recursion peels one part per frame, so 300 parts fit in 360 frames
    # above the caller's depth
    u, v = z_encode((1,) * 300, H2), z_encode((1,), H2)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    products.clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 360)
    try:
        out = quasi_shuffle(u, v)
    finally:
        sys.setrecursionlimit(limit)
    assert sum(out.terms.values()) == 601 and out.coeff(z_encode((1,) * 301, H2)) == 301


def test_clear_caches_runs():
    products.clear_caches()
    assert quasi_shuffle(zh(2), zh(2)) == 2 * zh(2, 2) + zh(4)


def test_a_bounded_memo_recomputes_no_cell_of_a_product_whose_frontier_fits(monkeypatch):
    # the shuffle of two 40-letter words stores each of its 40 * 40 + 2 * 40 suffix pairs
    # once, under the default bounds (the terms budget trims only after the product) or
    # under a cell bound far below that, whose evictions keep its frontier
    u, memo = zh(40), products._MEMO
    products.clear_caches()
    stores = memo.stores
    want = shuffle(u, u)
    assert memo.stores - stores == 1680 and memo.held <= memo.budget
    monkeypatch.setattr(memo, "maxsize", 256)
    products.clear_caches()
    stores, evictions = memo.stores, memo.evictions
    assert shuffle(u, u) == want
    assert memo.stores - stores == 1680 and memo.evictions > evictions and len(memo) <= 256
    products.clear_caches()


def test_a_cold_product_past_the_terms_budget_stores_each_cell_once(monkeypatch):
    # the budget is checked only between products: one whose cells hold far more terms
    # still computes each cell once, and leaves the memo within the budget
    memo = products._MEMO
    monkeypatch.setattr(memo, "budget", 64)
    products.clear_caches()
    stores = memo.stores
    out = shuffle(zh(40), zh(40))
    assert memo.stores - stores == 1680 and 0 < memo.held <= 64
    assert memo.held == sum(map(len, memo.values()))
    products.clear_caches()
    assert out == shuffle(zh(40), zh(40)) and memo.stores - stores == 2 * 1680
    products.clear_caches()


_MEMO_CALLS = {
    "shuffle": lambda a, b: shuffle(zh(*a), zh(*b)),
    "stuffle": lambda a, b: quasi_shuffle(zh(*a), zh(*b)),
    "star": lambda a, b: shuffle_star(zh(*a), zh(*b)),
    "ooz": lambda a, b: ooz_quasi_shuffle(zp(a), zp(b)),
    "S": lambda a, b: maps.ihara_S(zp(a + b)),
    "S_inv": lambda a, b: maps.ihara_S_inv(zp(a) + zp(b)),
    "antipode": lambda a, b: hopf.antipode(zh(*a)),
    "t_op": lambda a, b: t_op(zp(a) - zp(b)),
    "clear": lambda a, b: products.clear_caches(),
}
_memo_comps = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 50, 400, 32768]),
    st.lists(st.tuples(st.sampled_from(sorted(_MEMO_CALLS)), _memo_comps, _memo_comps), max_size=8),
)
def test_the_memo_counts_the_terms_it_holds_and_keeps_them_within_its_budget(budget, calls):
    memo = products._MEMO
    default = memo.budget
    memo.budget = budget
    try:
        products.clear_caches()
        assert memo.held == 0
        for name, a, b in calls:
            _MEMO_CALLS[name](a, b)
            assert memo.held == sum(map(len, memo.values())) <= budget
    finally:
        memo.budget = default
        products.clear_caches()
