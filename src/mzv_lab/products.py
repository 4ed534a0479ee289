"""Word-level products: shuffles, quasi-shuffles and their deformations.

Every product is bilinear; the recursions below act on basis words (or on
z-block compositions when that is the natural carrier) and are memoized.
Public entry points canonicalize the word pair (the products are commutative)
so memo tables stay small; the ``*_ordered`` internals compute on the pair as
given and are what the commutativity tests exercise.

Conventions:

* ``shuffle`` / ``quasi_shuffle`` / ``shuffle_star`` / ``shuffle_star_alt``
  live on the x0/x1 alphabet,
* ``shuffle_lambda`` and ``quasi_shuffle_lambda`` live on the p/y alphabet
  (``shuffle_lambda`` also accepts p/d/y words),
* the once-out-of-zeta products (``ooz_*``) live on p/y words whose z-parts
  may drop to 0 (and, for the explicit recursion, below 0: see ``ZWord``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from mzv_lab.words import (
    H2,
    PDY,
    PY,
    Alphabet,
    AlphabetMismatchError,
    NotInSubalgebraError,
    LinComb,
    Poly,
    Rational,
    Word,
    WordError,
    add_into,
    add_scaled,
    as_poly,
    reverse_swap,
    z_decode,
    z_encode,
)

Operand = Union[Word, Poly]

# comp-level linear combinations: dict composition -> nonzero coefficient
Comp = tuple[int, ...]
CompDict = dict[Comp, Rational]


def _dcombine(acc: CompDict, other: Mapping[Comp, Rational], scale: Rational, head: Comp) -> None:
    for comp, c in other.items():
        add_into(acc, head + comp, scale * c)


def _comps_to_poly(d: Mapping[Comp, Rational], alphabet: Alphabet) -> Poly:
    return Poly._make(alphabet, {z_encode(comp, alphabet): c for comp, c in d.items()})


def _lam(lam: Rational) -> Rational:
    # a deformation parameter as an int when integral, so integer inputs keep
    # integer coefficients
    lam = Fraction(lam)
    return lam.numerator if lam.denominator == 1 else lam


def _bilinear_words(
    u: Operand, v: Operand, word_fn: Callable[[Word, Word], Poly], alphabet: Alphabet
) -> Poly:
    U, V = as_poly(u), as_poly(v)
    if U.alphabet is not alphabet or V.alphabet is not alphabet:
        raise AlphabetMismatchError(f"operands must be {alphabet} polynomials")
    terms: dict[Word, Rational] = {}
    for wu, cu in U.terms.items():
        for wv, cv in V.terms.items():
            a, b = (wu, wv) if wu <= wv else (wv, wu)
            add_scaled(terms, word_fn(a, b).terms, cu * cv)
    return Poly._make(alphabet, terms)


# ---------------------------------------------------------------------------
# shuffle on x0/x1
# ---------------------------------------------------------------------------

_SH_MEMO: dict[tuple, Poly] = {}


def shuffle_ordered(u: Word, v: Word) -> Poly:
    key = (u.letters, v.letters)
    hit = _SH_MEMO.get(key)
    if hit is not None:
        return hit
    if u.is_unit:
        out = Poly.of(v)
    elif v.is_unit:
        out = Poly.of(u)
    else:
        a = Poly.of(Word(H2, u.letters[:1]))
        b = Poly.of(Word(H2, v.letters[:1]))
        ut = Word(H2, u.letters[1:])
        vt = Word(H2, v.letters[1:])
        out = a * shuffle_ordered(ut, v) + b * shuffle_ordered(u, vt)
    _SH_MEMO[key] = out
    return out


def shuffle(u: Operand, v: Operand) -> Poly:
    """Plain shuffle product on x0/x1 words."""
    return _bilinear_words(u, v, shuffle_ordered, H2)


# ---------------------------------------------------------------------------
# quasi-shuffle (stuffle) on z-block compositions
# ---------------------------------------------------------------------------

_QS_MEMO: dict[tuple, CompDict] = {}


def _qs_comps(c1: Comp, c2: Comp, lam: Rational) -> CompDict:
    key = (c1, c2, lam)
    hit = _QS_MEMO.get(key)
    if hit is not None:
        return hit
    out: CompDict = {}
    if not c1:
        out[c2] = 1
    elif not c2:
        out[c1] = 1
    else:
        n, u = c1[0], c1[1:]
        m, v = c2[0], c2[1:]
        _dcombine(out, _qs_comps(u, c2, lam), 1, (n,))
        _dcombine(out, _qs_comps(c1, v, lam), 1, (m,))
        if lam:
            _dcombine(out, _qs_comps(u, v, lam), lam, (n + m,))
    _QS_MEMO[key] = out
    return out


def _quasi_word_fn(alphabet: Alphabet, lam: Rational) -> Callable[[Word, Word], Poly]:
    def fn(u: Word, v: Word) -> Poly:
        return _comps_to_poly(_qs_comps(z_decode(u), z_decode(v), lam), alphabet)

    return fn


def quasi_shuffle(u: Operand, v: Operand) -> Poly:
    """Stuffle product z_n u * z_m v = z_n(u*z_m v) + z_m(z_n u*v) + z_{n+m}(u*v)
    on x0/x1 words ending in x1."""
    return _bilinear_words(u, v, _quasi_word_fn(H2, 1), H2)


def quasi_shuffle_lambda(u: Operand, v: Operand, lam: Rational = 1) -> Poly:
    """Deformed stuffle on p/y words ending in y: the overlap term carries lam."""
    return _bilinear_words(u, v, _quasi_word_fn(PY, _lam(lam)), PY)


# ---------------------------------------------------------------------------
# deformed shuffle on p/y and p/d/y
# ---------------------------------------------------------------------------

_SHL_MEMO: dict[tuple, Poly] = {}


def _cons(letter: str, poly: Poly) -> Poly:
    head = Poly.of(Word(poly.alphabet, (letter,)))
    return head * poly


def shuffle_lambda_ordered(u: Word, v: Word, lam: Rational) -> Poly:
    alphabet = u.alphabet
    key = (alphabet.tag, lam, u.letters, v.letters)
    hit = _SHL_MEMO.get(key)
    if hit is not None:
        return hit
    if u.is_unit:
        out = Poly.of(v)
    elif v.is_unit:
        out = Poly.of(u)
    else:
        a, ut = u.letters[0], Word(alphabet, u.letters[1:])
        b, vt = v.letters[0], Word(alphabet, v.letters[1:])
        if a == "y":
            out = _cons("y", shuffle_lambda_ordered(ut, v, lam))
        elif b == "y":
            out = _cons("y", shuffle_lambda_ordered(u, vt, lam))
        elif a == "p" and b == "p":
            out = (
                _cons("p", shuffle_lambda_ordered(ut, v, lam))
                + _cons("p", shuffle_lambda_ordered(u, vt, lam))
                + _cons("p", shuffle_lambda_ordered(ut, vt, lam)).scale(lam)
            )
        elif a == "d" and b == "d":
            if not lam:
                raise WordError("the d/d recursion needs lam != 0")
            out = (
                _cons("d", shuffle_lambda_ordered(ut, vt, lam))
                - shuffle_lambda_ordered(ut, v, lam)
                - shuffle_lambda_ordered(u, vt, lam)
            ).scale(Fraction(1) / lam)
        elif a == "d":  # b == "p"
            out = (
                _cons("d", shuffle_lambda_ordered(ut, v, lam))
                - shuffle_lambda_ordered(ut, vt, lam)
                - shuffle_lambda_ordered(u, vt, lam).scale(lam)
            )
        else:  # a == "p", b == "d"
            out = (
                _cons("d", shuffle_lambda_ordered(u, vt, lam))
                - shuffle_lambda_ordered(ut, vt, lam)
                - shuffle_lambda_ordered(ut, v, lam).scale(lam)
            )
    _SHL_MEMO[key] = out
    return out


def shuffle_lambda(u: Operand, v: Operand, lam: Rational = 1) -> Poly:
    """Deformed shuffle on p/y words, and its unique extension to p/d/y words.

    Leading-y letters factor out on either side; two leading p's shuffle with a
    lam-weighted overlap; the d-cases are forced by pd = dp = 1.  Total letter
    length drops in every recursive call, so the recursion terminates even
    though d-words can grow back under concatenation.
    """
    lam = _lam(lam)
    U, V = as_poly(u), as_poly(v)
    alphabet = U.alphabet
    if alphabet not in (PY, PDY):
        raise AlphabetMismatchError("shuffle_lambda lives on p/y and p/d/y words")

    def fn(a: Word, b: Word) -> Poly:
        return shuffle_lambda_ordered(a, b, lam)

    return _bilinear_words(u, v, fn, alphabet)


# ---------------------------------------------------------------------------
# star-shuffle on x0/x1 (two equivalent recursions)
# ---------------------------------------------------------------------------

_STAR_MEMO: dict[tuple, Poly] = {}


def shuffle_star_ordered(u: Word, v: Word) -> Poly:
    key = (u.letters, v.letters)
    hit = _STAR_MEMO.get(key)
    if hit is not None:
        return hit
    if u.is_unit:
        out = Poly.of(v)
    elif v.is_unit:
        out = Poly.of(u)
    else:
        a, ut = u.letters[0], Word(H2, u.letters[1:])
        b, vt = v.letters[0], Word(H2, v.letters[1:])
        out = _cons(a, shuffle_star_ordered(ut, v)) + _cons(b, shuffle_star_ordered(u, vt))
        swap = {"x0": "x1", "x1": "x0"}
        if ut.is_unit:
            out = out - Poly.of(Word(H2, (swap[a],) + v.letters))
        if vt.is_unit:
            out = out - Poly.of(Word(H2, (swap[b],) + u.letters))
    _STAR_MEMO[key] = out
    return out


def shuffle_star(u: Operand, v: Operand) -> Poly:
    """Star-shuffle: the shuffle recursion with boundary corrections
    -tau(a) b v when u runs out and -tau(b) a u when v runs out."""
    return _bilinear_words(u, v, shuffle_star_ordered, H2)


def shuffle_star_alt_ordered(u: Word, v: Word) -> Poly:
    """Last-letter form: u a x v b = (ua sh vb) - (u sh v tau(b)) a - (u tau(a) sh v) b.

    Defined for nonempty words only; agrees with shuffle_star there.
    """
    if u.is_unit or v.is_unit:
        raise WordError("shuffle_star_alt needs nonempty words")
    swap = {"x0": "x1", "x1": "x0"}
    a, uh = u.letters[-1], Word(H2, u.letters[:-1])
    b, vh = v.letters[-1], Word(H2, v.letters[:-1])
    tail_a = Poly.of(Word(H2, (a,)))
    tail_b = Poly.of(Word(H2, (b,)))
    full = shuffle_ordered(u, v)
    left = shuffle_ordered(uh, Word(H2, vh.letters + (swap[b],))) * tail_a
    right = shuffle_ordered(Word(H2, uh.letters + (swap[a],)), vh) * tail_b
    return full - left - right


def shuffle_star_alt(u: Operand, v: Operand) -> Poly:
    return _bilinear_words(u, v, shuffle_star_alt_ordered, H2)


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

    def fn(w: Word) -> Poly:
        return _comps_to_poly(_t_comp(z_decode(w)), PY)

    return as_poly(x).map_words(fn)


_OOZ_MEMO: dict[tuple, CompDict] = {}


def _ooz_comps(c1: Comp, c2: Comp) -> CompDict:
    key = (c1, c2)
    hit = _OOZ_MEMO.get(key)
    if hit is not None:
        return hit
    out: CompDict = {}
    if not c1:
        out[c2] = 1
    elif not c2:
        out[c1] = 1
    else:
        m, u = c1[0], c1[1:]
        n, v = c2[0], c2[1:]
        if m < 1 or n < 1:
            raise NotInSubalgebraError("ooz_quasi_shuffle needs leading z-parts >= 1")
        for tc, ts in _t_comp(c2).items():
            _dcombine(out, _qs_comps(u, tc, 1), ts, (m,))
        for tc, ts in _t_comp(c1).items():
            _dcombine(out, _qs_comps(tc, v, 1), ts, (n,))
        uv = _qs_comps(u, v, 1)
        _dcombine(out, uv, 1, (m + n,))
        _dcombine(out, uv, -1, (m + n - 1,))
    _OOZ_MEMO[key] = out
    return out


def ooz_quasi_shuffle_ordered(u: Word, v: Word) -> Poly:
    return _comps_to_poly(_ooz_comps(z_decode(u), z_decode(v)), PY)


def ooz_quasi_shuffle(u: Operand, v: Operand) -> Poly:
    """Once-out-of-zeta stuffle on p/y words that are empty or start with p
    and end in y: a single-step T-twist of the plain stuffle."""
    return _bilinear_words(u, v, ooz_quasi_shuffle_ordered, PY)


@dataclass(frozen=True)
class ZWord:
    """A z-indexed word whose parts may be any integers.

    Carrier for the explicit once-out-of-zeta recursion, whose intermediate
    terms can have negative z-indices even when inputs and outputs do not.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def is_unit(self) -> bool:
        return not self.parts


class ZPoly(LinComb):
    """Linear combination of ZWords with exact coefficients; it has no
    alphabet (``alphabet`` is None)."""

    __slots__ = ()

    def __init__(self, terms: Mapping[ZWord, Rational] | None = None):
        super().__init__(None, terms)

    @staticmethod
    def _order(w: ZWord) -> tuple[int, ...]:
        return w.parts

    @classmethod
    def of(cls, parts: Iterable[int], coeff: Rational = 1) -> "ZPoly":
        return cls({ZWord(tuple(parts)): coeff})

    def __repr__(self) -> str:
        return f"ZPoly({self.format_terms(lambda w: f'z{list(w.parts)}')})"


def zpoly_from_poly(x: Operand) -> ZPoly:
    """View a p/y polynomial with z-decodable terms as a ZPoly."""
    return ZPoly._make(None, {ZWord(z_decode(w)): c for w, c in as_poly(x).terms.items()})


def zpoly_to_poly(x: ZPoly) -> Poly:
    """Inverse of zpoly_from_poly; rejects negative z-indices."""
    terms: dict[Word, Rational] = {}
    for w, c in x.terms.items():
        if any(k < 0 for k in w.parts):
            raise NotInSubalgebraError(f"negative z-index in {w}; no p/y word image")
        terms[z_encode(w.parts, PY)] = c
    return Poly._make(PY, terms)


_OOZX_MEMO: dict[tuple, ZPoly] = {}


def ooz_explicit_ordered(u: ZWord, v: ZWord) -> ZPoly:
    key = (u.parts, v.parts)
    hit = _OOZX_MEMO.get(key)
    if hit is not None:
        return hit
    terms: dict[ZWord, Rational] = {}
    if u.is_unit:
        terms[v] = 1
    elif v.is_unit:
        terms[u] = 1
    else:
        uh, m = ZWord(u.parts[:-1]), u.parts[-1]
        vh, n = ZWord(v.parts[:-1]), v.parts[-1]
        for a, b, k in ((uh, v, m), (u, vh, n), (uh, vh, n + m)):
            for w, c in ooz_explicit_ordered(a, b).terms.items():
                add_into(terms, ZWord(w.parts + (k,)), c)
        if vh.is_unit:
            add_into(terms, ZWord(u.parts + (n - 1,)), -1)
            add_into(terms, ZWord(uh.parts + (n + m - 1,)), -1)
        if uh.is_unit:
            add_into(terms, ZWord(v.parts + (m - 1,)), -1)
            add_into(terms, ZWord(vh.parts + (n + m - 1,)), -1)
        if uh.is_unit and vh.is_unit:
            add_into(terms, ZWord((n + m - 1,)), 1)
    out = ZPoly._make(None, terms)
    _OOZX_MEMO[key] = out
    return out


def ooz_explicit(u: ZPoly | ZWord, v: ZPoly | ZWord) -> ZPoly:
    """Closed recursion for the once-out-of-zeta stuffle, peeling last letters.

    All inner products are the product itself; boundary corrections fire when
    a factor shrinks to a single z-letter.  Agrees with ooz_quasi_shuffle on
    words with nonnegative parts and leading part >= 1.
    """
    U = ZPoly({u: 1}) if isinstance(u, ZWord) else u
    V = ZPoly({v: 1}) if isinstance(v, ZWord) else v
    terms: dict[ZWord, Rational] = {}
    for wu, cu in U.terms.items():
        for wv, cv in V.terms.items():
            a, b = (wu, wv) if wu.parts <= wv.parts else (wv, wu)
            add_scaled(terms, ooz_explicit_ordered(a, b).terms, cu * cv)
    return ZPoly._make(None, terms)


# ---------------------------------------------------------------------------
# circle action and transferred products
# ---------------------------------------------------------------------------

def ihara_circ(u: Operand, v: Operand) -> Poly:
    """z_k o (z_j w) = z_{k+j} w and z_k o 1 = 0, left factor a single z-letter
    (extended bilinearly in both slots)."""
    U, V = as_poly(u), as_poly(v)
    if U.alphabet is not V.alphabet:
        raise AlphabetMismatchError("ihara_circ needs a common alphabet")
    alphabet = U.alphabet
    terms: dict[Word, Rational] = {}
    for wu, cu in U.terms.items():
        cu_comp = z_decode(wu)
        if len(cu_comp) != 1:
            raise WordError(f"left factor of ihara_circ must be a single z-letter, got {wu!r}")
        k = cu_comp[0]
        for wv, cv in V.terms.items():
            cv_comp = z_decode(wv)
            if not cv_comp:
                continue
            add_into(terms, z_encode((k + cv_comp[0],) + cv_comp[1:], alphabet), cu * cv)
    return Poly._make(alphabet, terms)


class IsoConsistencyError(WordError):
    pass


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
    U, V = as_poly(u), as_poly(v)
    for x in (U, V):
        if iso_inv(iso(x)) != x:
            raise IsoConsistencyError("iso_inv(iso(x)) != x on an operand")
    return iso_inv(base(iso(U), iso(V)))


def _rs(x: Poly) -> Poly:
    return x.map_words(lambda w: Poly.of(reverse_swap(w)))


def square_classical(u: Operand, v: Operand) -> Poly:
    """tau-transfer of the stuffle to x0/x1 words starting with x0."""
    return transferred_product(quasi_shuffle, _rs, _rs, u, v)


def square_lambda(u: Operand, v: Operand, lam: Rational = 1) -> Poly:
    """tau~-transfer of the deformed stuffle to p/y words starting with p.

    Coincides with shuffle_lambda at the same lam on its whole domain.
    """

    def base(a: Poly, b: Poly) -> Poly:
        return quasi_shuffle_lambda(a, b, lam)

    return transferred_product(base, _rs, _rs, u, v)


def ooz_square(u: Operand, v: Operand) -> Poly:
    """tau~-transfer of the once-out-of-zeta stuffle; domain: p/y words that
    start with p and end in y (so that both the word and its reversal decode)."""
    return transferred_product(ooz_quasi_shuffle, _rs, _rs, u, v)


def clear_caches() -> None:
    for memo in (_SH_MEMO, _QS_MEMO, _SHL_MEMO, _STAR_MEMO, _OOZ_MEMO, _OOZX_MEMO):
        memo.clear()
