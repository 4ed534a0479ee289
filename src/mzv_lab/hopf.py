"""Coalgebra layer: deconcatenation, antipode, transferred Hopf structures,
the opposite square coproduct, and the infinitesimal coproduct.

``Tensor2`` is the two-fold tensor carrier (words x words with rational
coefficients).  Besides the ``LinComb`` arithmetic it has ``of`` (the tensor
of two operands), iteration in display order, ``map_factors`` (a linear map
on each factor) and ``mul_with`` (the componentwise product for a given
product).  Each coproduct builds the term dict of its word pairs by cutting
each word once, with no recursion per letter, so word length is bounded by
memory, not by the recursion limit.  Deconcatenation cuts along z-letter
boundaries, so its domain is the span of z-decodable words (ending in y,
resp. x1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from mzv_lab.maps import _check_z_parts
from mzv_lab.products import (
    _coarsenings,
    _comps_to_poly,
    _iso_checked,
    _lam,
    _linear,
    _rs,
    quasi_shuffle,
    quasi_shuffle_lambda,
    transferred_product,
)
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    Alphabet,
    AlphabetMismatchError,
    LinComb,
    NotInSubalgebraError,
    Poly,
    Rational,
    Word,
    WordError,
    _codec_of,
    _normal_word,
    add_pairs,
    as_poly,
    display_sorted,
    poly_on,
    reverse_swap,
    z_decode,
)

Operand = Union[Word, Poly]
Pair = tuple[Word, Word]
Terms = dict[Pair, Rational]  # a tensor's term dict: word pair -> nonzero coefficient
Linear = Callable[[Poly], Poly]
Coproduct = Callable[[Operand], "Tensor2"]


def _outer_into(terms: dict, left: Poly, right: Poly, c: Rational, alphabet: Alphabet) -> None:
    """terms += c * (left (x) right) in place."""
    Tensor2._check_key((left, right), alphabet)  # on the two factors' alphabets
    rights = right.terms.items()
    add_pairs(terms, (((a, b), ca * cb) for a, ca in left.terms.items() for b, cb in rights), c)


class Tensor2(LinComb):
    """Finite linear combination of word pairs a (x) b."""

    __slots__ = ()

    @staticmethod
    def _check_key(key: Pair, alphabet: Alphabet) -> None:
        a, b = key
        if a.alphabet is not alphabet or b.alphabet is not alphabet:
            raise AlphabetMismatchError("tensor factors must share the alphabet")

    def sorted_texts(self) -> list[list]:
        left, right = zip(*self.terms) if self.terms else ((), ())
        return display_sorted(self.alphabet, self.terms, left, right)

    @classmethod
    def of(cls, left: Operand, right: Operand) -> "Tensor2":
        L, R = as_poly(left), as_poly(right)
        terms: Terms = {}
        _outer_into(terms, L, R, 1, L.alphabet)
        return cls._make(L.alphabet, terms)

    def __iter__(self) -> Iterator[tuple[Word, Word, Rational]]:
        for (a, b), c in self.sorted_terms():
            yield a, b, c

    def map_factors(self, f_left: Linear, f_right: Linear) -> "Tensor2":
        terms: Terms = {}
        for (a, b), c in self.terms.items():
            _outer_into(terms, f_left(Poly.of(a)), f_right(Poly.of(b)), c, self.alphabet)
        return Tensor2._make(self.alphabet, terms)

    def mul_with(self, other: "Tensor2", product: Callable[[Poly, Poly], Poly]) -> "Tensor2":
        """Componentwise product of tensors for an arbitrary algebra product."""
        terms: Terms = {}
        for (a, b), c1 in self.terms.items():
            for (c, d), c2 in other.terms.items():
                left = product(Poly.of(a), Poly.of(c))
                _outer_into(terms, left, product(Poly.of(b), Poly.of(d)), c1 * c2, self.alphabet)
        return Tensor2._make(self.alphabet, terms)

    def __str__(self) -> str:
        return self.format_terms(lambda k: f"{k[0]} (x) {k[1]}")


# ---------------------------------------------------------------------------
# deconcatenation coproduct and friends
# ---------------------------------------------------------------------------

def _z_cuts(w: Word) -> list[int]:
    """Letter positions of the z-letter boundaries of a z-decodable word w."""
    z_decode(w)  # raises unless w is z-decodable
    terminal = w.alphabet.letters[-1]
    return [0] + [j + 1 for j, a in enumerate(w.letters) if a == terminal]


def deconcat(x: Operand) -> Tensor2:
    """Cut a z-decodable word at every z-letter boundary: sum of u (x) v."""
    X = as_poly(x)
    make, alphabet = Word._make, X.alphabet
    _codec_of(alphabet, NotInSubalgebraError)  # a p/d/y operand is refused, zero included
    # (u, v) determines w = uv and the cut, so no two terms share a key
    cuts = ((w.letters, j, c) for w, c in X.terms.items() for j in _z_cuts(w))
    terms = {(make(alphabet, ls[:j]), make(alphabet, ls[j:])): c for ls, j, c in cuts}
    return Tensor2._make(alphabet, terms)


def counit(x: Operand) -> Rational:
    """Coefficient of the empty word."""
    X = as_poly(x)
    return X.coeff(Word._make(X.alphabet, ()))


def _stuffle(alphabet: Alphabet, lam: Fraction) -> Callable[[Operand, Operand], Poly]:
    """The stuffle that deconcatenation makes a bialgebra: the plain one on
    x0/x1 words, the lam-deformed one on p/y words."""
    if alphabet is H2:
        if lam != 1:
            raise WordError("the x0/x1 stuffle is undeformed; lam must be 1")
        return quasi_shuffle
    if alphabet is PY:
        return partial(quasi_shuffle_lambda, lam=lam)
    raise AlphabetMismatchError("no stuffle bialgebra on p/d/y words")


def antipode(x: Operand, lam: Rational = 1) -> Poly:
    """Antipode of the (deformed) stuffle bialgebra with deconcatenation.

    S(1) = 1 and S(w) = -w - sum over proper cuts w = uv of S(u) * v, whose
    closed form is S(z_k1 ... z_kn) = (-1)^n times the sum of
    lam^(n - len J) z_J over the coarsenings J of (kn, ..., k1) (Hoffman,
    "Quasi-shuffle products", 2000, Thm 3.2).  Works on p/y words ending in y
    for any lam, and on x0/x1 words ending in x1 for lam = 1 (the plain
    stuffle).  Like Ihara's S, it takes at most ``maps.MAX_DERIVATION`` z-parts.
    """
    X = as_poly(x)
    _stuffle(X.alphabet, Fraction(lam))  # raises outside the stuffle bialgebras
    X, lam = _check_z_parts(X, "antipode"), _lam(lam)

    def s_comp(c: tuple[int, ...]) -> dict[tuple[int, ...], Rational]:
        out = _coarsenings(c[::-1], lam)
        return {k: -v for k, v in out.items()} if len(c) % 2 else out

    return _linear(X, z_decode, s_comp, _comps_to_poly)


# ---------------------------------------------------------------------------
# packaged Hopf structures and transfer along an isomorphism
# ---------------------------------------------------------------------------

class HopfStructure(NamedTuple):
    """A product/coproduct/counit/antipode bundle over one alphabet."""

    alphabet: Alphabet
    product: Callable[[Operand, Operand], Poly]
    coproduct: Coproduct
    counit: Callable[[Operand], Rational]
    antipode: Callable[[Operand], Poly]
    unit_elem: Poly


def base_hopf(alphabet: Alphabet, lam: Rational = 1) -> HopfStructure:
    """The (deformed) stuffle bialgebra on z-decodable words with deconcatenation."""
    lam = Fraction(lam)
    product = _stuffle(alphabet, lam)
    return HopfStructure(
        alphabet, product, deconcat, counit, partial(antipode, lam=lam), Poly.unit(alphabet)
    )


def transfer_hopf(base: HopfStructure, iso: Linear, iso_inv: Linear) -> HopfStructure:
    """Pull the whole bundle back through a linear isomorphism.

    product  -> iso_inv . m . (iso x iso)   (products.transferred_product)
    coproduct-> (iso_inv x iso_inv) . Delta . iso
    counit   -> eps . iso
    antipode -> iso_inv . S . iso
    The unit transfers to iso_inv(unit); each call checks iso_inv . iso = id
    on its operands.
    """
    checked = partial(_iso_checked, iso, iso_inv)

    def coproduct(x: Operand) -> Tensor2:
        return base.coproduct(iso(checked(x))).map_factors(iso_inv, iso_inv)

    return HopfStructure(
        base.alphabet,
        partial(transferred_product, base.product, iso, iso_inv),
        coproduct,
        lambda x: base.counit(iso(checked(x))),
        lambda x: iso_inv(base.antipode(iso(checked(x)))),
        iso_inv(base.unit_elem),
    )


# ---------------------------------------------------------------------------
# opposite square coproduct and infinitesimal coproduct
# ---------------------------------------------------------------------------

def coproduct_square_op(x: Operand) -> Tensor2:
    """Opposite of the reverse-swap transfer of deconcatenation:
    flip . (rs x rs) . deconcat . rs.  Its domain is spanned by the unit and
    the p/y words that start with p (whose reverse-swaps end in y); on H0
    words, which also end in y, it equals the infinitesimal coproduct."""
    X = poly_on(x, "coproduct_square_op lives on p/y words", PY)
    for w in X.terms:
        if w.letters[:1] == ("y",):
            msg = f"{w!r} does not start with p; not in the domain of coproduct_square_op"
            raise NotInSubalgebraError(msg)
    # reverse-swap is a bijection on words, so the terms map one to one
    rs, terms = reverse_swap, deconcat(_rs(X)).terms
    return Tensor2._make(PY, {(rs(b), rs(a)): c for (a, b), c in terms.items()})


def _d_terms(w: Word) -> Terms:
    """D(w) as a term dict.

    Split letter by letter, D(w) is the sum of m_j w[:j] (x) w[j:] over the
    cuts 0 <= j <= len(w).  A letter's own D puts a cut after it (a (x) 1)
    for a = p, y and before it (1 (x) a) for a = p, and each split subtracts
    the cut between its halves once: m_j = [a_j != d] + [a_(j+1) = p] - 1,
    with a p standing in for each end of the word.  Slices of a normal word
    are normal.
    """
    alphabet, letters = w.alphabet, w.letters
    cuts = [(a != "d") + (b == "p") - 1 for a, b in zip(("p", *letters), (*letters, "p"))]
    return {
        (_normal_word((alphabet, letters[:j])), _normal_word((alphabet, letters[j:]))): m
        for j, m in enumerate(cuts)
        if m
    }


def _split_rule(u: Word, v: Word, du: Terms, dv: Terms) -> Terms:
    """D(uv) = (u (x) 1) D(v) + D(u) (1 (x) v) - u (x) v, on term dicts; a
    new dict."""
    # u * a is injective in a (pd = dp = 1 keeps p/d/y cancellative)
    out = {(u * a, b): c for (a, b), c in dv.items()}
    add_pairs(out, (((a, b * v), c) for (a, b), c in du.items()))
    add_pairs(out, (((u, v), -1),))
    return out


def infinitesimal_coproduct(x: Operand) -> Tensor2:
    """The coproduct determined by D(p) = p x 1 + 1 x p, D(y) = y x 1, D(d) = 0
    and the splitting rule D(uv) = (u x 1) D(v) + D(u) (1 x v) - u x v.

    The rule gives the same answer for every choice of split point (see
    infinitesimal_coproduct_at), so each word's D is read off its letters in
    one pass over its cuts (``_d_terms``), with no recursion.
    """
    X = poly_on(x, "infinitesimal_coproduct lives on p/y or p/d/y words", PY, PDY)
    terms: Terms = {}
    for w, c in X.terms.items():
        add_pairs(terms, _d_terms(w).items(), c)
    return Tensor2._make(X.alphabet, terms)


def infinitesimal_coproduct_at(w: Word, i: int) -> Tensor2:
    """Evaluate the splitting rule at position i (1 <= i < len(w)); used to
    check independence of the split point."""
    if not 1 <= i < len(w):
        raise WordError(f"split position {i} out of range for {w!r}")
    u = Word._make(w.alphabet, w.letters[:i])
    v = Word._make(w.alphabet, w.letters[i:])
    d = [infinitesimal_coproduct(x).terms for x in (u, v)]
    return Tensor2._make(w.alphabet, _split_rule(u, v, *d))


# ---------------------------------------------------------------------------
# coideal check
# ---------------------------------------------------------------------------

def coideal_check(
    predicate: Callable[[Word], bool], coproduct: Coproduct, side: str, samples: Iterable[Word]
) -> bool:
    """Does every sample's coproduct keep the named factor inside the predicate?

    side = "right" checks the right tensor factors (the span sits in C (x) J),
    side = "left" the left ones (J (x) C).  Samples must satisfy the predicate.
    """
    return coideal_witness(predicate, coproduct, side, samples) is None


def coideal_witness(
    predicate: Callable[[Word], bool], coproduct: Coproduct, side: str, samples: Iterable[Word]
) -> tuple[Word, Word] | None:
    """First (sample, offending factor) pair of ``coideal_check``, or None."""
    if side not in ("left", "right"):
        raise WordError(f"side must be 'left' or 'right', got {side!r}")
    pick = (lambda a, b: a) if side == "left" else (lambda a, b: b)
    for w in samples:
        if not predicate(w):
            raise WordError(f"sample {w!r} is outside the candidate coideal")
        for a, b, c in coproduct(Poly.of(w)):
            if c and not predicate(pick(a, b)):
                return (w, pick(a, b))
    return None
