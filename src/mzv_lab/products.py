"""Word-level products: shuffles, quasi-shuffles and their deformations.

Each recursive product peels the first letter of u, of v or of both, and
combines by a rule for the two leading letters (Hoffman, "Quasi-shuffle
products", 2000).  One memoized driver, ``_product``, runs every rule on
plain tuples (letters or z-parts) with one memo, ``_MEMO``.  A rule yields
terms (head, c, u', v'), each c * head (u' x v'); a boundary correction has
u' = v' = (), as the empty product is {(): 1}.  A public product orders each
pair of its operands' terms as words, reads each word's key (its letters, or
its z-parts from ``words``' interned decode table), adds every pair's product
into one tuple dict, and builds the words of that sum once, by
``_letters_to_poly`` or ``_comps_to_poly`` (which looks each composition's
word up in the interned word tables); neither ever hands out the memo's
dicts.  p/d/y tuples are normalized there,
by ``Word._make``, since prefixing commutes with pd = dp = 1 and the rules
branch only on (normal) input letters.  The ``*_ordered`` functions take one
word pair as given and are what the commutativity tests exercise.

A linear map that is not a bijection of words runs through ``_linear``, the
one-operand twin of ``_pair_sum``: each term is decoded once, the images of
its tuple kernel are summed in one tuple dict, and the words are built once.
One more rule, ``_coarsen``, makes the driver sum the coarsenings of a
composition (its merges of adjacent parts), each weighted lam per merge:
Ihara's S and S^-1 (``maps``) and the stuffle antipode (``hopf``) are such
sums, cached in ``_MEMO`` with the products.

``_MEMO`` has two bounds: 4 096 cells inside a product, which keep its frontier
of live cells, so none is recomputed; and, between top-level products, a budget
of terms held (the sum of its cells' lengths), which ``_pair_sum`` and
``_linear`` trim it to once their sum is complete, before building its words.

Conventions:

* ``shuffle`` / ``quasi_shuffle`` / ``shuffle_star`` / ``shuffle_star_alt``
  live on the x0/x1 alphabet,
* ``shuffle_lambda`` and ``quasi_shuffle_lambda`` live on the p/y alphabet
  (``shuffle_lambda`` also accepts p/d/y words),
* the once-out-of-zeta products (``ooz_*``) live on p/y words whose z-parts
  may drop to 0; inside the explicit recursion they may drop below 0, which
  ``ooz_explicit_ordered`` shows on int tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Callable, Mapping, Union

from mzv_lab.words import (
    H2,
    PDY,
    PY,
    Alphabet,
    Memo,
    NotInSubalgebraError,
    Poly,
    Rational,
    Word,
    WordError,
    _SWAP,
    _ZCODECS,
    _codec_of,
    _normal_word,
    add_pairs,
    as_poly,
    clear_caches,  # re-exported: it empties every Memo, _MEMO among them
    poly_on,
    reverse_swap,
    z_decode,
)

Operand = Union[Word, Poly]

# tuple-level linear combinations (letters or z-parts -> nonzero coefficient)
Comp = tuple
CompDict = dict[Comp, Rational]

_letters = itemgetter(1)  # a word's key on the letter alphabets: its letters


def _dcombine(acc: CompDict, other: Mapping[Comp, Rational], scale: Rational, head: Comp) -> None:
    # acc += scale * (head . other), each key of other prefixed by head
    add_pairs(acc, zip(map(head.__add__, other), other.values()), scale)


def _comps_to_poly(d: Mapping[Comp, Rational], alphabet: Alphabet) -> Poly:
    # z_encode without its part check: every caller passes valid parts.  The words of more
    # than 512 terms are built directly: so many are mostly met once, and would only push
    # out the interned words that smaller results hit
    table = _ZCODECS[alphabet].words
    word = table.make if len(d) > table.maxsize >> 5 else table.__getitem__
    return Poly._make(alphabet, dict(zip(map(word, d), d.values())))


def _letters_to_poly(d: Mapping[Comp, Rational], alphabet: Alphabet) -> Poly:
    if alphabet is not PDY:
        return Poly._make(alphabet, {_normal_word((alphabet, k)): c for k, c in d.items()})
    # p/d/y keys are normalized here, once; keys that meet are summed
    terms: dict[Word, Rational] = {}
    add_pairs(terms, ((Word._make(PDY, k), c) for k, c in d.items()))
    return Poly._make(PDY, terms)


def _lam(lam: Rational) -> Rational:
    # a deformation parameter as an int when integral, so integer inputs keep
    # integer coefficients
    lam = Fraction(lam)
    return lam.numerator if lam.denominator == 1 else lam


def _pair_sum(
    u: Operand, v: Operand, alphabet: Alphabet, decode: Callable, kernel: Callable, encode: Callable
) -> Poly:
    # the sum of cu*cv * kernel(key a, key b) over term pairs ordered as words a <= b (the
    # products commute), encoded once
    U, V = (poly_on(x, f"operands must be {alphabet} polynomials", alphabet) for x in (u, v))
    out: CompDict = {}
    for wu, cu in U.terms.items():
        for wv, cv in V.terms.items():
            a, b = (wu, wv) if wu <= wv else (wv, wu)
            add_pairs(out, kernel(decode(a), decode(b)).items(), cu * cv)
    _MEMO.trim()
    return encode(out, alphabet)


def _linear(X: Poly, decode: Callable, kernel: Callable, encode: Callable) -> Poly:
    # the linear map sum of c * kernel(key w) over the terms c w of X: each word decoded
    # once, the images summed in one tuple dict, and the words of that sum built once
    out: CompDict = {}
    for w, c in X.terms.items():
        add_pairs(out, kernel(decode(w)).items(), c)
    _MEMO.trim()
    return encode(out, X.alphabet)


# ---------------------------------------------------------------------------
# the driver, its memo, and the rules (u and v nonempty)
# ---------------------------------------------------------------------------

# 4 096 cells: verify's table reaches 23 314 unbounded.  A product whose frontier of
# live cells (about |u| + |v|) fits in half the bound recomputes nothing after an eviction.
# 32 768 terms between products, at about 156 bytes a held term: about 5 MB, where an
# algebra round kept up to 157 352 terms (23 MB) and twelve 8-part stuffles 3.9 M (765 MB)
_MEMO: Memo = Memo(4096, 32768)


def _product(rule: Callable, u: Comp, v: Comp, lam: Rational = 1) -> CompDict:
    # u x v under rule, one frame per peeled letter; callers only read the result
    key = (rule, lam, u, v)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    if not u or not v:
        out = {u + v: 1}
    else:
        out = {}
        for head, c, ut, vt in rule(u, v, lam):
            _dcombine(out, _product(rule, ut, vt, lam), c, head)
    _MEMO[key] = out
    return out


def _shuffle(u: Comp, v: Comp, lam: Rational):
    # a u' x b v' = a (u' x b v') + b (a u' x v')
    yield u[:1], 1, u[1:], v
    yield v[:1], 1, u, v[1:]


def _star(u: Comp, v: Comp, lam: Rational):
    # the shuffle, less tau(a) b v' when u = a and tau(b) a u' when v = b
    yield from _shuffle(u, v, lam)
    if len(u) == 1:
        yield (_SWAP[u[0]],) + v, -1, (), ()
    if len(v) == 1:
        yield (_SWAP[v[0]],) + u, -1, (), ()


def _stuffle(u: Comp, v: Comp, lam: Rational):
    # the shuffle of z-parts, plus lam z_{n+m} (u' * v') for z_n u' * z_m v'
    yield from _shuffle(u, v, lam)
    if lam:
        yield (u[0] + v[0],), lam, u[1:], v[1:]


def _shuffle_lam(u: Comp, v: Comp, lam: Rational):
    a, ut, b, vt = u[0], u[1:], v[0], v[1:]
    if a == "y":
        yield ("y",), 1, ut, v
    elif b == "y":
        yield ("y",), 1, u, vt
    elif a == b == "p":
        yield ("p",), 1, ut, v
        yield ("p",), 1, u, vt
        yield ("p",), lam, ut, vt
    elif a == b:  # d/d
        if not lam:
            raise WordError("the d/d recursion needs lam != 0")
        inv = Fraction(1) / lam
        yield ("d",), inv, ut, vt
        yield (), -inv, ut, v
        yield (), -inv, u, vt
    elif a == "d":  # b == "p"
        yield ("d",), 1, ut, v
        yield (), -1, ut, vt
        yield (), -lam, u, vt
    else:  # a == "p", b == "d"
        yield ("d",), 1, u, vt
        yield (), -1, ut, vt
        yield (), -lam, ut, v


def _coarsen(u: Comp, v: Comp, lam: Rational):
    # u is the open part: close it before the coarsenings of v, or merge v's first
    # part into it at weight lam
    yield u, 1, v[:1], v[1:]
    if lam:
        yield (), lam, (u[0] + v[0],), v[1:]


def _coarsenings(c: Comp, lam: Rational) -> CompDict:
    # the sum of lam^(len c - len J) J over the coarsenings J of c; callers only read it
    return _product(_coarsen, c[:1], c[1:], lam)


def _ooz_explicit(u: Comp, v: Comp, lam: Rational):
    # the stuffle on reversed z-words, corrected when a factor is a single z-letter
    yield from _stuffle(u, v, 1)
    m, ut, n, vt = u[0], u[1:], v[0], v[1:]
    if not vt:
        yield (n - 1,) + u, -1, (), ()
        yield (n + m - 1,) + ut, -1, (), ()
    if not ut:
        yield (m - 1,) + v, -1, (), ()
        yield (n + m - 1,) + vt, -1, (), ()
    if not ut and not vt:
        yield (n + m - 1,), 1, (), ()


# ---------------------------------------------------------------------------
# shuffle on x0/x1
# ---------------------------------------------------------------------------

def shuffle_ordered(u: Word, v: Word) -> Poly:
    return _letters_to_poly(_product(_shuffle, u.letters, v.letters), H2)


def shuffle(u: Operand, v: Operand) -> Poly:
    """Plain shuffle product on x0/x1 words."""
    return _pair_sum(u, v, H2, _letters, partial(_product, _shuffle), _letters_to_poly)


# ---------------------------------------------------------------------------
# quasi-shuffle (stuffle) on z-block compositions
# ---------------------------------------------------------------------------

def _quasi_word_fn(alphabet: Alphabet, lam: Rational) -> Callable[[Word, Word], Poly]:
    return lambda u, v: _comps_to_poly(_product(_stuffle, z_decode(u), z_decode(v), lam), alphabet)


def quasi_shuffle(u: Operand, v: Operand) -> Poly:
    """Stuffle product z_n u * z_m v = z_n(u*z_m v) + z_m(z_n u*v) + z_{n+m}(u*v)
    on x0/x1 words ending in x1."""
    return _pair_sum(u, v, H2, z_decode, partial(_product, _stuffle), _comps_to_poly)


def quasi_shuffle_lambda(u: Operand, v: Operand, lam: Rational = 1) -> Poly:
    """Deformed stuffle on p/y words ending in y: the overlap term carries lam."""
    return _pair_sum(u, v, PY, z_decode, partial(_product, _stuffle, lam=_lam(lam)), _comps_to_poly)


# ---------------------------------------------------------------------------
# deformed shuffle on p/y and p/d/y
# ---------------------------------------------------------------------------

def shuffle_lambda_ordered(u: Word, v: Word, lam: Rational) -> Poly:
    return _letters_to_poly(_product(_shuffle_lam, u.letters, v.letters, lam), u.alphabet)


def shuffle_lambda(u: Operand, v: Operand, lam: Rational = 1) -> Poly:
    """Deformed shuffle on p/y words, and its unique extension to p/d/y words.

    Leading-y letters factor out on either side; two leading p's shuffle with a
    lam-weighted overlap; the d-cases are forced by pd = dp = 1.
    """
    kernel = partial(_product, _shuffle_lam, lam=_lam(lam))
    U = poly_on(u, "shuffle_lambda lives on p/y and p/d/y words", PY, PDY)
    return _pair_sum(U, v, U.alphabet, _letters, kernel, _letters_to_poly)


# ---------------------------------------------------------------------------
# star-shuffle on x0/x1 (two equivalent recursions)
# ---------------------------------------------------------------------------

def shuffle_star_ordered(u: Word, v: Word) -> Poly:
    return _letters_to_poly(_product(_star, u.letters, v.letters), H2)


def shuffle_star(u: Operand, v: Operand) -> Poly:
    """Star-shuffle: the shuffle recursion with boundary corrections
    -tau(a) b v when u runs out and -tau(b) a u when v runs out."""
    return _pair_sum(u, v, H2, _letters, partial(_product, _star), _letters_to_poly)


def _star_alt(u: Comp, v: Comp) -> CompDict:
    # shuffle_star_alt_ordered on letter tuples, its three shuffles from the driver
    if not u or not v:
        raise WordError("shuffle_star_alt needs nonempty words")
    uh, a, vh, b = u[:-1], u[-1], v[:-1], v[-1]
    out = dict(_product(_shuffle, u, v))
    for x, y, last in ((uh, vh + (_SWAP[b],), a), (uh + (_SWAP[a],), vh, b)):
        add_pairs(out, ((k + (last,), c) for k, c in _product(_shuffle, x, y).items()), -1)
    return out


def shuffle_star_alt_ordered(u: Word, v: Word) -> Poly:
    """Last-letter form: u a x v b = (ua sh vb) - (u sh v tau(b)) a - (u tau(a) sh v) b.

    Defined for nonempty words only; agrees with shuffle_star there.
    """
    return _letters_to_poly(_star_alt(u.letters, v.letters), H2)


def shuffle_star_alt(u: Operand, v: Operand) -> Poly:
    return _pair_sum(u, v, H2, _letters, _star_alt, _letters_to_poly)


# ---------------------------------------------------------------------------
# once-out-of-zeta products
# ---------------------------------------------------------------------------

def _t_comp(comp: Comp) -> CompDict:
    # T(z_m w) = z_m w - z_{m-1} w, first part m >= 1; T(1) = 1
    if not comp:
        return {(): 1}
    m = comp[0]
    if m < 1:
        raise NotInSubalgebraError(f"t_op needs first z-part >= 1, got {comp}")
    return {comp: 1, (m - 1,) + comp[1:]: -1}


def t_op(x: Operand) -> Poly:
    """T(z_m w) = z_m w - z_{m-1} w on p/y words whose first z-part is >= 1."""
    return _linear(poly_on(x, "t_op acts on p/y words", PY), z_decode, _t_comp, _comps_to_poly)


def _ooz_comps(c1: Comp, c2: Comp) -> CompDict:
    # the T-twisted stuffle; the stuffles come from the driver
    if not c1 or not c2:
        return {c1 + c2: 1}
    m, u, n, v = c1[0], c1[1:], c2[0], c2[1:]
    if m < 1 or n < 1:
        raise NotInSubalgebraError("ooz_quasi_shuffle needs leading z-parts >= 1")
    out: CompDict = {}
    for tc, ts in _t_comp(c2).items():
        _dcombine(out, _product(_stuffle, u, tc), ts, (m,))
    for tc, ts in _t_comp(c1).items():
        _dcombine(out, _product(_stuffle, tc, v), ts, (n,))
    uv = _product(_stuffle, u, v)
    _dcombine(out, uv, 1, (m + n,))
    _dcombine(out, uv, -1, (m + n - 1,))
    return out


def ooz_quasi_shuffle_ordered(u: Word, v: Word) -> Poly:
    return _comps_to_poly(_ooz_comps(z_decode(u), z_decode(v)), PY)


def ooz_quasi_shuffle(u: Operand, v: Operand) -> Poly:
    """Once-out-of-zeta stuffle on p/y words that are empty or start with p
    and end in y: a single-step T-twist of the plain stuffle."""
    return _pair_sum(u, v, PY, z_decode, _ooz_comps, _comps_to_poly)


def ooz_explicit_ordered(u: Comp, v: Comp) -> CompDict:
    """The explicit recursion on two z-part tuples, whose parts may be any
    integers, as a new dict of z-part tuples."""
    # the last-letter recursion is the first-letter one on reversed z-words
    return {k[::-1]: c for k, c in _product(_ooz_explicit, u[::-1], v[::-1]).items()}


def _checked_comps_to_poly(d: Mapping[Comp, Rational], alphabet: Alphabet) -> Poly:
    # the explicit recursion's sum as p/y words, once no z-part is negative
    for k in d:
        if k and min(k) < 0:
            raise NotInSubalgebraError(f"negative z-part in {k}; no p/y word image")
    return _comps_to_poly(d, alphabet)


def ooz_explicit(u: Operand, v: Operand) -> Poly:
    """Closed recursion for the once-out-of-zeta stuffle, peeling last letters.

    All inner products are the product itself; boundary corrections fire when
    a factor shrinks to a single z-letter, and their terms may have negative
    z-parts, which no p/y word encodes (``NotInSubalgebraError`` if one is
    left in the result).  Agrees with ooz_quasi_shuffle on words with leading
    part >= 1.
    """
    return _pair_sum(u, v, PY, z_decode, ooz_explicit_ordered, _checked_comps_to_poly)


# ---------------------------------------------------------------------------
# circle action and transferred products
# ---------------------------------------------------------------------------

def ihara_circ(u: Operand, v: Operand) -> Poly:
    """z_k o (z_j w) = z_{k+j} w and z_k o 1 = 0, left factor a single z-letter
    (extended bilinearly in both slots)."""
    U = as_poly(u)
    V = poly_on(v, "ihara_circ needs a common alphabet", U.alphabet)
    _codec_of(U.alphabet, NotInSubalgebraError)  # a p/d/y operand is refused, zero included
    right = None  # V's z-parts, decoded once after the first left factor is checked
    out: CompDict = {}
    for wu, cu in U.terms.items():
        k = z_decode(wu)
        if len(k) != 1:
            raise WordError(f"left factor of ihara_circ must be a single z-letter, got {wu!r}")
        if right is None:
            right = [(z_decode(wv), cv) for wv, cv in V.terms.items()]
        add_pairs(out, (((k[0] + c[0],) + c[1:], cu * cv) for c, cv in right if c))
    return _comps_to_poly(out, U.alphabet)


class IsoConsistencyError(WordError):
    pass


def _iso_checked(iso: Callable[[Poly], Poly], iso_inv: Callable[[Poly], Poly], x: Operand) -> Poly:
    """x as a Poly, once iso_inv(iso(x)) == x holds on it."""
    X = as_poly(x)
    if iso_inv(iso(X)) != X:
        raise IsoConsistencyError("iso_inv(iso(x)) != x on an operand")
    return X


def transferred_product(
    base: Callable[[Poly, Poly], Poly],
    iso: Callable[[Poly], Poly],
    iso_inv: Callable[[Poly], Poly],
    u: Operand,
    v: Operand,
) -> Poly:
    """Pull a product back through a linear isomorphism: iso_inv(base(iso u, iso v)).

    Checks iso_inv(iso(x)) == x on both operands before trusting the transfer.
    """
    U, V = _iso_checked(iso, iso_inv, u), _iso_checked(iso, iso_inv, v)
    return iso_inv(base(iso(U), iso(V)))


def _rs(x: Operand) -> Poly:
    # reverse_swap undoes itself and maps words one to one: the squares conjugate by it with no
    # check of the transfer (transferred_product's). p/d/y is refused by alphabet, zero included
    X = poly_on(x, "reverse_swap is not defined on p/d/y words", H2, PY)
    return Poly._make(X.alphabet, {reverse_swap(w): c for w, c in X.terms.items()})


def square_classical(u: Operand, v: Operand) -> Poly:
    """tau-transfer of the stuffle to x0/x1 words starting with x0."""
    return _rs(quasi_shuffle(_rs(u), _rs(v)))


def square_lambda(u: Operand, v: Operand, lam: Rational = 1) -> Poly:
    """tau~-transfer of the deformed stuffle to p/y words starting with p.

    Coincides with shuffle_lambda at the same lam on its whole domain.
    """
    return _rs(quasi_shuffle_lambda(_rs(u), _rs(v), lam))


def ooz_square(u: Operand, v: Operand) -> Poly:
    """tau~-transfer of the once-out-of-zeta stuffle; domain: p/y words that
    start with p and end in y (so that both the word and its reversal decode)."""
    return _rs(ooz_quasi_shuffle(_rs(u), _rs(v)))
