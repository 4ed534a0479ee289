"""Words, weight and depth, codecs, memberships, and the structural morphisms."""

import copy
import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzv_lab import hopf, maps, products, qseries, words
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    AlphabetMismatchError,
    EncodingError,
    InvalidLetterError,
    NotInSubalgebraError,
    Poly,
    Word,
    WordError,
    add_pairs,
    format_word,
    iter_words,
    iter_zcomps,
    membership,
    poly_membership,
    reverse_swap,
    weight_projection,
    z_decode,
    z_encode,
    zp,
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


# -- weight and depth -------------------------------------------------------

def test_weight_conventions():
    assert Word(H2, ("x0", "x1", "x1")).weight == 3  # length on x0/x1
    assert Word(PY, ("p", "y", "y")).weight == 1  # p carries weight
    assert Word(PDY, ("y", "d")).weight == -1  # d carries weight -1


def test_depth_counts_trailing_letter():
    assert Word(H2, ("x0", "x1", "x1")).depth == 2
    assert Word(PY, ("p", "y", "y")).depth == 2
    assert Word(PDY, ("d",)).depth == 0


@given(pdy_raw, pdy_raw)
def test_pdy_weight_survives_normalization(a, b):
    # pd -> 1 removes weight +1 and -1 together and no y: weight and depth add
    u, v = Word(PDY, a), Word(PDY, b)
    assert (u * v).weight == u.weight + v.weight
    assert (u * v).depth == u.depth + v.depth


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
    # a scalar or a word on the right, as Poly.of(word)
    assert u * 3 == 3 * u == u.scale(3) and u * Word(PY, ("y",)) * 3 == u * v
    assert repr(u * v) == "Poly(PY: 3*py + 3*yy)"


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
    add_pairs(terms, [("a", 1)])
    add_pairs(terms, [("a", Fraction(-1))])
    add_pairs(terms, [("b", 0)])
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


def _zcomps_by_recursion(total, depth, first_min, rest_min):
    # the recursive enumerator iter_zcomps replaced, kept as its reference
    if depth == 0:
        if total == 0:
            yield ()
        return

    def rec(remaining, slots, lo):
        if slots == 1:
            if remaining >= lo:
                yield (remaining,)
            return
        for k in range(lo, remaining - rest_min * (slots - 1) + 1):
            for tail in rec(remaining - k, slots - 1, rest_min):
                yield (k,) + tail

    yield from rec(total, depth, first_min)


def test_iter_zcomps_matches_the_recursive_enumerator_in_order():
    # every case of the grid: empty and negative totals, and parts below 0 as OOZ inner parts have
    for total, depth, first_min, rest_min in product(range(-2, 9), range(6), range(-2, 4), range(-2, 4)):
        want = list(_zcomps_by_recursion(total, depth, first_min, rest_min))
        assert list(iter_zcomps(total, depth, first_min, rest_min)) == want


# -- the public boundary and the trusted constructor ---------------------------

def test_public_boundary_keeps_its_checks_and_messages():
    with pytest.raises(InvalidLetterError, match=r"^letter 'p' not in alphabet H2$"):
        Word(H2, ("x0", "p"))
    with pytest.raises(InvalidLetterError, match=r"^letter 'x1' not in alphabet PDY$"):
        Word(PDY, ("p", "x1"))
    with pytest.raises(AlphabetMismatchError, match=r"^term Word\(H2:x1\) not over PY$"):
        Poly(PY, {Word(H2, ("x1",)): 1})
    with pytest.raises(EncodingError, match=r"^H2 z-block needs k >= 1, got 0$"):
        z_encode((2, 0), H2)
    with pytest.raises(EncodingError, match=r"^PY z-block needs k >= 0, got -1$"):
        z_encode((1, -1), PY)
    with pytest.raises(EncodingError, match=r"^no z-block codec on alphabet PDY$"):
        z_encode((), PDY)


@given(
    st.sampled_from([H2, PY, PDY]).flatmap(
        lambda a: st.tuples(st.just(a), st.lists(st.sampled_from(a.letters), max_size=10).map(tuple))
    )
)
def test_trusted_words_equal_checked_words(case):
    alphabet, letters = case
    w, t = Word(alphabet, letters), Word._make(alphabet, letters)
    assert t == w and hash(t) == hash(w) and t.letters == w.letters
    assert str(t) == str(w) and t.sort_key() == w.sort_key()


@given(st.lists(pdy_raw, max_size=12))
def test_pdy_order_is_letter_index_order_not_string_order(raws):
    ws = [Word(PDY, ls) for ls in raws]

    def index_key(w):
        return (len(w.letters), tuple(PDY.letters.index(a) for a in w.letters))

    assert [w.sort_key() for w in ws] == [index_key(w) for w in ws]
    assert sorted(ws) == sorted(ws, key=index_key)
    assert Word(PDY, ("p",)) < Word(PDY, ("d",)) < Word(PDY, ("y",))


# -- the tuple representation -------------------------------------------------

def test_word_keeps_its_own_contract_over_the_tuple_api():
    one, two = Word(H2, ("x1",)), Word(H2, ("x0", "x0"))
    # by sort_key, shorter first; plain tuple order would put ("x0", "x0") first
    assert one < two and one <= two and two > one and two >= one
    assert not two < one and not one > two and one <= one and one >= one
    assert sorted([two, one]) == [one, two] and max(one, two) is two
    with pytest.raises(TypeError):
        one < ("x0",)
    assert len(two) == 2 and len(Word(PY)) == 0 and len(Word(PDY, "pd")) == 0
    for op in (iter, list, lambda w: "x0" in w, lambda w: w + w, lambda w: 3 * w, lambda w: w * 3):
        with pytest.raises(TypeError):
            op(two)
    with pytest.raises(AttributeError, match=r"^Word is immutable$"):
        two.letters = ()
    with pytest.raises(AttributeError, match=r"^Word is immutable$"):
        two.extra = 1
    assert two != two.letters and two.letters != two and two != ("x0", "x0")
    assert Word(PY, ("p", "y")) != Word(PDY, ("p", "y")) and Word(PY) != Word(H2)
    assert len({Word(PY, ("p", "y")), Word(PDY, ("p", "y")), Word(PY, "py")}) == 2


@pytest.mark.parametrize(
    "copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy]
)
def test_alphabets_words_and_polys_survive_pickle_and_copy(copy_of):
    for a in (H2, PY, PDY):
        assert copy_of(a) is a
    for w in (Word(H2, ("x0", "x1")), Word(PY), Word(PDY, ("d", "y", "p"))):
        c = copy_of(w)
        assert type(c) is Word and c == w and hash(c) == hash(w)
        assert c.alphabet is w.alphabet and c.letters == w.letters
    x = Poly(H2, {Word(H2, ("x0", "x1")): Fraction(1, 2), Word(H2, ("x1",)): -3})
    c = copy_of(x)
    assert type(c) is Poly and c == x and c.alphabet is H2 and str(c) == str(x)
    assert c.terms is not x.terms
    for t, a in ((hopf.deconcat(x), H2), (hopf.deconcat(zp((2, 1)) - zp((1, 0), PY, Fraction(1, 2))), PY)):
        c = copy_of(t)
        assert type(c) is hopf.Tensor2 and c == t and c.alphabet is a and str(c) == str(t)
        assert c.terms is not t.terms
    q = qseries.QPoly(6, (1, Fraction(-2, 3), 0, 5))
    c = copy_of(q)
    assert type(c) is qseries.QPoly and c == q and str(c) == str(q) and c.den == q.den == 3
    assert (c.order, c.num, c.width, c.coeffs) == (q.order, q.num, q.width, q.coeffs)


@pytest.mark.parametrize(
    "value",
    [
        H2,
        Word(H2, ("x0", "x1")),
        Poly(H2, {Word(H2, ("x1",)): 2}),
        hopf.deconcat(Word(PY, ("p", "y"))),
        qseries.QPoly(3, (1, Fraction(1, 2))),
    ],
    ids=lambda v: type(v).__name__,
)
def test_every_value_kind_refuses_setting_and_deleting_an_attribute(value):
    message = rf"^{type(value).__name__} is immutable$"
    for name in ("alphabet", "letters", "terms", "order", "extra"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)


def test_codecs_outside_their_cached_range_and_on_bad_parts():
    big = (300, 1, 257)
    assert z_encode(big, H2).letters == ("x0",) * 299 + ("x1", "x1") + ("x0",) * 256 + ("x1",)
    assert z_encode(iter(big), PY).letters == ("p",) * 300 + ("y", "p", "y") + ("p",) * 257 + ("y",)
    assert z_decode(z_encode(big, H2)) == big == z_decode(z_encode(big, PY))
    assert z_encode((), H2) == Word(H2) and z_decode(Word(PY)) == ()
    # the first part below the least one is named
    with pytest.raises(EncodingError, match=r"^H2 z-block needs k >= 1, got 0$"):
        z_encode((2, 0, -1), H2)
    with pytest.raises(EncodingError, match=r"^PY z-block needs k >= 0, got -2$"):
        z_encode((3, -2, -1), PY)
    with pytest.raises(NotInSubalgebraError, match=r"^Word\(H2:x1x0\) does not end in x1; not"):
        z_decode(Word(H2, ("x1", "x0")))
    with pytest.raises(NotInSubalgebraError, match=r"^no z-block codec on alphabet PDY$"):
        z_decode(Word(PDY, ("y",)))


def test_codec_tables_keep_only_the_256_least_parts():
    from mzv_lab import words

    big = (30000, 300, 1, 255, 256)
    for alphabet in (H2, PY):
        assert z_decode(z_encode(big, alphabet)) == big
    assert format_word(z_encode(big, H2)) == "z{30000}z{300}z{1}z{255}z{256}"
    for codec in words._ZCODECS.values():
        assert 0 < len(codec.block) <= 256 and max(codec.block) < codec.least + 256
    runs = set(words._Z_TEXT) - {"|"}
    assert 0 < len(runs) <= 256 and max(map(len, runs)) < 512


@given(st.sampled_from([H2, PY]).flatmap(
    lambda a: st.tuples(st.just(a), st.lists(st.sampled_from(a.letters), max_size=12))
))
def test_codecs_roundtrip_from_words(case):
    alphabet, letters = case
    w = Word(alphabet, letters + [alphabet.letters[-1]])  # ends in the terminal letter
    assert z_encode(z_decode(w), alphabet) == w


@given(
    st.sampled_from([H2, PY]).flatmap(
        lambda a: st.tuples(st.just(a), st.lists(st.sampled_from(a.letters), max_size=12))
    ),
    st.lists(st.sampled_from(PDY.letters), max_size=12),
)
def test_depth_counts_the_z_parts_the_codec_decodes(case, pdy_letters):
    # Word.depth reads the terminal letter from the alphabet, the codec from its table
    alphabet, letters = case
    w = Word(alphabet, letters + [alphabet.letters[-1]])
    assert w.depth == len(z_decode(w))
    v = Word(PDY, pdy_letters)  # no codec: depth counts y, which pd = dp = 1 never cancels
    assert v.depth == pdy_letters.count("y")


@given(
    st.sampled_from([H2, PY, PDY]).flatmap(
        lambda a: st.tuples(
            st.just(a),
            st.dictionaries(
                st.lists(st.sampled_from(a.letters), max_size=6).map(lambda ls, a=a: Word(a, ls)),
                st.integers(-3, 3).filter(bool),
                max_size=12,
            ),
        )
    )
)
def test_poly_display_order_is_the_sort_key_order(case):
    alphabet, terms = case
    x = Poly(alphabet, terms)
    want = sorted(x.terms.items(), key=lambda t: t[0].sort_key())
    assert x.sorted_terms() == want and list(x) == want


# every public refusal of an operand on the wrong alphabet, by its exact message
_X0, _P = Word(H2, ("x0",)), Word(PY, ("p",))


@pytest.mark.parametrize("call, message", [
    (lambda: maps.tau(_P), "tau acts on x0/x1 words"),
    (lambda: maps.tau_tilde(_X0), "tau_tilde acts on p/y words"),
    (lambda: maps.derivation(_P, 2), "derivation acts on x0/x1 words"),
    (lambda: maps.map_U(_P), "map acts on H2 words"),
    (lambda: maps.map_U_inv(_P), "map acts on H2 words"),
    (lambda: maps.map_V(_X0), "map acts on PY words"),
    (lambda: maps.map_V_inv(_X0), "map acts on PY words"),
    (lambda: maps.dual_family_1(_X0), "map acts on PY words"),
    (lambda: maps.dual_family_2(_P), "map acts on H2 words"),
    (lambda: maps.ihara_S(_X0), "ihara_S acts on p/y words"),
    (lambda: maps.ihara_S_inv(_X0), "ihara_S_inv acts on p/y words"),
    (lambda: products.t_op(_X0), "t_op acts on p/y words"),
    (lambda: products.shuffle_lambda(_X0, _X0), "shuffle_lambda lives on p/y and p/d/y words"),
    (lambda: products.quasi_shuffle(_P, _P), "operands must be H2 polynomials"),
    (lambda: hopf.coproduct_square_op(_X0), "coproduct_square_op lives on p/y words"),
    (lambda: hopf.infinitesimal_coproduct(_X0), "infinitesimal_coproduct lives on p/y or p/d/y words"),
    (lambda: qseries.eval_word("BZ", _P, 3), "BZ reads H2 words, got PY"),
    (lambda: qseries.eval_word("SZ", _X0, 3), "SZ reads PY words, got H2"),
    (lambda: _P * _X0, "PY * H2"),
    (lambda: hopf.Tensor2(PY, {(_P, _X0): 1}), "tensor factors must share the alphabet"),
    (lambda: hopf.antipode(Word(PDY, ("p", "d", "y"))), "no stuffle bialgebra on p/d/y words"),
])
def test_alphabet_mismatch_messages(call, message):
    with pytest.raises(AlphabetMismatchError) as err:
        call()
    assert str(err.value) == message


def test_memo_drops_its_oldest_half_when_full_and_clears_with_every_memo():
    memo = words.Memo(4)
    try:
        for k in range(5):
            memo[k] = -k
        assert list(memo.items()) == [(2, -2), (3, -3), (4, -4)]
        assert memo.cache_info() == {
            "size": 3, "maxsize": 4, "stores": 5, "evictions": 2, "held": 0, "budget": None
        }
        assert products.clear_caches is qseries.clear_caches is words.clear_caches
        products.clear_caches()
        assert memo.cache_info() == {
            "size": 0, "maxsize": 4, "stores": 5, "evictions": 2, "held": 0, "budget": None
        }
    finally:
        words.MEMOS[:] = [m for m in words.MEMOS if m is not memo]


def test_a_budgeted_memo_counts_the_terms_it_holds_and_trims_to_its_budget():
    memo = words.Memo(4, 5)
    try:
        memo["a"], memo["b"], memo["c"] = "xy", "xyz", "x"
        memo["b"] = "x"  # an overwrite replaces its key's weight
        assert memo.cache_info() == {
            "size": 3, "maxsize": 4, "stores": 4, "evictions": 0, "held": 4, "budget": 5
        }
        memo["d"], memo["e"] = "xyz", "xy"  # the store of e drops a and b first
        assert list(memo) == ["c", "d", "e"] and memo.held == 6 and memo.evictions == 2
        memo.trim()
        assert list(memo) == ["e"] and memo.held == 2 and memo.evictions == 4
        memo.trim()
        assert list(memo) == ["e"]
        memo.clear()
        assert memo.cache_info()["held"] == 0 and not memo
    finally:
        words.MEMOS[:] = [m for m in words.MEMOS if m is not memo]


def test_two_empty_memos_are_distinct_entries_of_the_registry():
    first, second = words.Memo(4), words.Memo(4)
    try:
        assert first == first and first != second and dict(first) == dict(second)
        assert words.MEMOS.index(second) == len(words.MEMOS) - 1
        words.MEMOS.remove(second)
        assert any(m is first for m in words.MEMOS) and not any(m is second for m in words.MEMOS)
        assert second not in words.MEMOS
    finally:
        words.MEMOS[:] = [m for m in words.MEMOS if m is not first and m is not second]


# -- the interned tables: composition -> Word, Word -> composition -----------

@given(st.sampled_from([H2, PY]).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.lists(st.lists(st.integers(1 if a is H2 else 0, 6), max_size=5), min_size=2, max_size=2),
    )
))
def test_a_word_from_the_table_is_the_word_built_from_its_letters(case):
    alphabet, (c, d) = case
    blocks = {H2: lambda k: ["x0"] * (k - 1) + ["x1"], PY: lambda k: ["p"] * k + ["y"]}[alphabet]
    built = [Word(alphabet, [a for k in comp for a in blocks(k)]) for comp in (c, d)]
    for _ in range(2):  # a miss, then a hit
        interned = [z_encode(comp, alphabet) for comp in (c, d)]
        assert interned == built and list(map(hash, interned)) == list(map(hash, built))
        assert [w.sort_key() for w in interned] == [w.sort_key() for w in built]
        assert (interned[0] < interned[1]) == (built[0] < built[1])
        assert [z_decode(w) for w in interned] == [tuple(c), tuple(d)]


@given(st.sampled_from([H2, PY]).flatmap(
    lambda a: st.tuples(st.just(a), st.lists(st.integers(1 if a is H2 else 0, 300), max_size=6))
))
def test_a_codec_sizes_a_composition_as_the_letters_of_its_word(case):
    alphabet, comp = case
    assert words._ZCODECS[alphabet].size(tuple(comp)) == len(z_encode(comp, alphabet))


def test_an_undecodable_word_raises_and_stores_nothing():
    table = words._COMP_CACHE
    for w in (Word(H2, ("x0",)), Word(PY, ("p", "p")), Word(PDY, ("p", "y", "d", "d", "y"))):
        size, stores = len(table), table.stores
        with pytest.raises(NotInSubalgebraError):
            z_decode(w)
        assert (len(table), table.stores) == (size, stores) and w not in table


def test_the_word_tables_stay_within_their_bound_and_count_evictions():
    table = words._H2_WORD_CACHE
    comps = [(k, j) for k in range(1, 400) for j in range(1, 60)]
    assert len(comps) > table.maxsize
    words.clear_caches()
    first, evictions = z_encode(comps[0], H2), table.evictions
    for comp in comps:
        z_encode(comp, H2)
        assert len(table) <= table.maxsize
    assert table.evictions > evictions and comps[0] not in table
    again = z_encode(comps[0], H2)
    assert again == first and hash(again) == hash(first)
    assert products.quasi_shuffle(first, again) == products.quasi_shuffle(first, first)
    words.clear_caches()
    # a result of more than maxsize // 32 terms is built directly and stores nothing
    big = dict.fromkeys(comps[: table.maxsize // 32 + 1], 1)
    poly = products._comps_to_poly(big, H2)
    assert not table and poly == Poly(H2, {z_encode(c, H2): 1 for c in big})
    words.clear_caches()


def test_a_poly_adds_no_tensor_and_multiplies_by_no_text():
    x1 = Poly.of(Word(H2, ("x1",)))
    with pytest.raises(TypeError):
        x1 + hopf.deconcat(x1)
    with pytest.raises(TypeError):
        x1 * "x"
    with pytest.raises(TypeError):
        "x" * x1
