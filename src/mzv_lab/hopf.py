"""Coalgebra layer: deconcatenation, antipode, transferred Hopf structures,
the opposite square coproduct, and the infinitesimal coproduct.

``Tensor2`` is the two-fold tensor carrier (words x words with rational
coefficients).  Coproducts cut along z-letter boundaries, so their domain is
the span of z-decodable words (ending in y, resp. x1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

from mzv_lab.products import (
    IsoConsistencyError,
    quasi_shuffle,
    quasi_shuffle_lambda,
)
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    Alphabet,
    AlphabetMismatchError,
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
Pair = tuple[Word, Word]


def _outer_into(terms: dict, left: Poly, right: Poly, c: Rational, alphabet: Alphabet) -> None:
    """terms += c * (left (x) right) in place."""
    if left.alphabet is not alphabet or right.alphabet is not alphabet:
        raise AlphabetMismatchError("tensor factors must share the alphabet")
    for a, ca in left.terms.items():
        for b, cb in right.terms.items():
            add_into(terms, (a, b), c * ca * cb)


class Tensor2(LinComb):
    """Finite linear combination of word pairs a (x) b."""

    __slots__ = ()

    @staticmethod
    def _check_key(key: Pair, alphabet: Alphabet) -> None:
        a, b = key
        if a.alphabet is not alphabet or b.alphabet is not alphabet:
            raise AlphabetMismatchError("tensor factors must share the alphabet")

    @staticmethod
    def _order(key: Pair) -> tuple:
        return (key[0].sort_key(), key[1].sort_key())

    @classmethod
    def of(cls, left: Operand, right: Operand) -> "Tensor2":
        L, R = as_poly(left), as_poly(right)
        terms: dict[Pair, Rational] = {}
        _outer_into(terms, L, R, 1, L.alphabet)
        return cls._make(L.alphabet, terms)

    def __iter__(self) -> Iterator[tuple[Word, Word, Rational]]:
        for (a, b), c in self.sorted_terms():
            yield a, b, c

    def flip(self) -> "Tensor2":
        return Tensor2._make(self.alphabet, {(b, a): c for (a, b), c in self.terms.items()})

    def map_factors(
        self,
        f_left: Callable[[Poly], Poly],
        f_right: Callable[[Poly], Poly],
    ) -> "Tensor2":
        terms: dict[Pair, Rational] = {}
        for (a, b), c in self.terms.items():
            _outer_into(terms, f_left(Poly.of(a)), f_right(Poly.of(b)), c, self.alphabet)
        return Tensor2._make(self.alphabet, terms)

    def concat_mul(self, other: "Tensor2") -> "Tensor2":
        """Componentwise concatenation product (a x b)(c x d) = ac x bd."""
        self._same_space(other)
        terms: dict[Pair, Rational] = {}
        for (a, b), c1 in self.terms.items():
            for (c, d), c2 in other.terms.items():
                add_into(terms, (a * c, b * d), c1 * c2)
        return Tensor2._make(self.alphabet, terms)

    def mul_with(self, other: "Tensor2", product: Callable[[Poly, Poly], Poly]) -> "Tensor2":
        """Componentwise product of tensors for an arbitrary algebra product."""
        terms: dict[Pair, Rational] = {}
        for (a, b), c1 in self.terms.items():
            for (c, d), c2 in other.terms.items():
                left = product(Poly.of(a), Poly.of(c))
                _outer_into(terms, left, product(Poly.of(b), Poly.of(d)), c1 * c2, self.alphabet)
        return Tensor2._make(self.alphabet, terms)

    def contract(self, product: Callable[[Poly, Poly], Poly]) -> Poly:
        """Multiply the two slots together: sum of c * product(a, b)."""
        terms: dict[Word, Rational] = {}
        for (a, b), c in self.terms.items():
            piece = product(Poly.of(a), Poly.of(b))
            self._same_space(piece)
            add_scaled(terms, piece.terms, c)
        return Poly._make(self.alphabet, terms)

    def __str__(self) -> str:
        return self.format_terms(lambda k: f"{k[0]} (x) {k[1]}")

    def __repr__(self) -> str:
        return f"Tensor2({self.alphabet.tag}: {self})"


# ---------------------------------------------------------------------------
# deconcatenation coproduct and friends
# ---------------------------------------------------------------------------

def deconcat(x: Operand) -> Tensor2:
    """Cut a z-decodable word at every z-letter boundary: sum of u (x) v."""
    X = as_poly(x)
    terms: dict[Pair, Rational] = {}
    for w, c in X.terms.items():
        comp = z_decode(w)
        for i in range(len(comp) + 1):
            add_into(terms, (z_encode(comp[:i], X.alphabet), z_encode(comp[i:], X.alphabet)), c)
    return Tensor2._make(X.alphabet, terms)


def counit(x: Operand) -> Rational:
    """Coefficient of the empty word."""
    X = as_poly(x)
    return X.coeff(Word(X.alphabet))


_ANTIPODE_MEMO: dict[tuple, Poly] = {}


def antipode(x: Operand, lam: Rational = 1) -> Poly:
    """Antipode of the (deformed) stuffle bialgebra with deconcatenation.

    S(1) = 1 and S(w) = -w - sum over proper cuts w = uv of S(u) * v.
    Works on p/y words ending in y for any lam, and on x0/x1 words ending
    in x1 for lam = 1 (the plain stuffle).
    """
    lam = Fraction(lam)
    X = as_poly(x)
    alphabet = X.alphabet
    if alphabet is H2 and lam != 1:
        raise WordError("the x0/x1 stuffle is undeformed; lam must be 1")

    def mul(a: Poly, b: Poly) -> Poly:
        if alphabet is H2:
            return quasi_shuffle(a, b)
        return quasi_shuffle_lambda(a, b, lam)

    def s_word(w: Word) -> Poly:
        key = (alphabet.tag, lam, w.letters)
        hit = _ANTIPODE_MEMO.get(key)
        if hit is not None:
            return hit
        comp = z_decode(w)
        terms: dict[Word, Rational] = {w: -1} if comp else {w: 1}
        for i in range(1, len(comp)):
            u = z_encode(comp[:i], alphabet)
            v = z_encode(comp[i:], alphabet)
            add_scaled(terms, mul(s_word(u), Poly.of(v)).terms, -1)
        out = Poly._make(alphabet, terms)
        _ANTIPODE_MEMO[key] = out
        return out

    return X.map_words(s_word)


# ---------------------------------------------------------------------------
# packaged Hopf structures and transfer along an isomorphism
# ---------------------------------------------------------------------------

@dataclass
class HopfStructure:
    """A product/coproduct/counit/antipode bundle over one alphabet."""

    name: str
    alphabet: Alphabet
    product: Callable[[Operand, Operand], Poly]
    coproduct: Callable[[Operand], Tensor2]
    counit: Callable[[Operand], Rational]
    antipode: Callable[[Operand], Poly]
    unit_elem: Poly = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.unit_elem is None:
            self.unit_elem = Poly.unit(self.alphabet)


def base_hopf(alphabet: Alphabet, lam: Rational = 1) -> HopfStructure:
    """The (deformed) stuffle bialgebra on z-decodable words with deconcatenation."""
    lam = Fraction(lam)
    if alphabet is H2:
        if lam != 1:
            raise WordError("the x0/x1 stuffle is undeformed; lam must be 1")
        prod = quasi_shuffle
        name = "stuffle/deconcat on x0/x1"
    elif alphabet is PY:
        def prod(u, v, _l=lam):
            return quasi_shuffle_lambda(u, v, _l)

        name = f"stuffle(lam={lam})/deconcat on p/y"
    else:
        raise AlphabetMismatchError("no stuffle bialgebra on p/d/y words")
    return HopfStructure(
        name=name,
        alphabet=alphabet,
        product=prod,
        coproduct=deconcat,
        counit=counit,
        antipode=lambda x, _l=lam: antipode(x, _l),
    )


def transfer_hopf(
    base: HopfStructure,
    iso: Callable[[Poly], Poly],
    iso_inv: Callable[[Poly], Poly],
    name: str = "",
) -> HopfStructure:
    """Pull the whole bundle back through a linear isomorphism.

    product  -> iso_inv . m . (iso x iso)
    coproduct-> (iso_inv x iso_inv) . Delta . iso
    counit   -> eps . iso
    antipode -> iso_inv . S . iso
    The unit transfers to iso_inv(unit); each call checks iso_inv . iso = id
    on its operands.
    """

    def check(x: Poly) -> Poly:
        if iso_inv(iso(x)) != x:
            raise IsoConsistencyError("iso_inv(iso(x)) != x on an operand")
        return x

    def product(u: Operand, v: Operand) -> Poly:
        U, V = check(as_poly(u)), check(as_poly(v))
        return iso_inv(base.product(iso(U), iso(V)))

    def coproduct(x: Operand) -> Tensor2:
        X = check(as_poly(x))
        return base.coproduct(iso(X)).map_factors(iso_inv, iso_inv)

    def counit_t(x: Operand) -> Rational:
        return base.counit(iso(check(as_poly(x))))

    def antipode_t(x: Operand) -> Poly:
        return iso_inv(base.antipode(iso(check(as_poly(x)))))

    return HopfStructure(
        name=name or f"transfer of [{base.name}]",
        alphabet=base.alphabet,
        product=product,
        coproduct=coproduct,
        counit=counit_t,
        antipode=antipode_t,
        unit_elem=iso_inv(base.unit_elem),
    )


# ---------------------------------------------------------------------------
# opposite square coproduct and infinitesimal coproduct
# ---------------------------------------------------------------------------

def _rs_poly(x: Poly) -> Poly:
    return x.map_words(lambda w: Poly.of(reverse_swap(w)))


def coproduct_square_op(x: Operand) -> Tensor2:
    """Opposite of the reverse-swap transfer of deconcatenation, on p/y words
    starting with p and ending in y.  Lands in (words starting with p or 1)
    (x) (words in the same p...y span):  flip . (rs x rs) . deconcat . rs."""
    X = as_poly(x)
    if X.alphabet is not PY:
        raise AlphabetMismatchError("coproduct_square_op lives on p/y words")
    return deconcat(_rs_poly(X)).map_factors(_rs_poly, _rs_poly).flip()


def _infinitesimal_letter(alphabet: Alphabet, a: str) -> Tensor2:
    one = Word(alphabet)
    la = Word(alphabet, (a,))
    if a == "p":
        return Tensor2(alphabet, {(la, one): 1, (one, la): 1})
    if a == "y":
        return Tensor2(alphabet, {(la, one): 1})
    # a == "d": forced to 0 by pd = 1 and the splitting rule
    return Tensor2(alphabet)


_INF_MEMO: dict[tuple, Tensor2] = {}


def infinitesimal_coproduct(x: Operand) -> Tensor2:
    """The coproduct determined by D(p) = p x 1 + 1 x p, D(y) = y x 1, D(d) = 0
    and the splitting rule D(uv) = (u x 1) D(v) + D(u) (1 x v) - u x v.

    The rule gives the same answer for every choice of split point (see
    infinitesimal_coproduct_at), so words are split after the first letter.
    """
    X = as_poly(x)
    alphabet = X.alphabet
    if alphabet not in (PY, PDY):
        raise AlphabetMismatchError("infinitesimal_coproduct lives on p/y or p/d/y words")

    def d_word(w: Word) -> Tensor2:
        key = (alphabet.tag, w.letters)
        hit = _INF_MEMO.get(key)
        if hit is not None:
            return hit
        if w.is_unit:
            out = Tensor2.of(Poly.unit(alphabet), Poly.unit(alphabet))
        elif len(w) == 1:
            out = _infinitesimal_letter(alphabet, w.letters[0])
        else:
            u = Word(alphabet, w.letters[:1])
            v = Word(alphabet, w.letters[1:])
            out = _split_rule(u, v, d_word)
        _INF_MEMO[key] = out
        return out

    terms: dict[Pair, Rational] = {}
    for w, c in X.terms.items():
        add_scaled(terms, d_word(w).terms, c)
    return Tensor2._make(alphabet, terms)


def _split_rule(u: Word, v: Word, d: Callable[[Word], Tensor2]) -> Tensor2:
    alphabet = u.alphabet
    one = Poly.unit(alphabet)
    left = Tensor2.of(Poly.of(u), one).concat_mul(d(v))
    right = d(u).concat_mul(Tensor2.of(one, Poly.of(v)))
    return left + right - Tensor2.of(Poly.of(u), Poly.of(v))


def infinitesimal_coproduct_at(w: Word, i: int) -> Tensor2:
    """Evaluate the splitting rule at position i (1 <= i < len(w)); used to
    check independence of the split point."""
    if not 1 <= i < len(w):
        raise WordError(f"split position {i} out of range for {w!r}")
    u = Word(w.alphabet, w.letters[:i])
    v = Word(w.alphabet, w.letters[i:])

    def d(x: Word) -> Tensor2:
        return infinitesimal_coproduct(Poly.of(x))

    return _split_rule(u, v, d)


# ---------------------------------------------------------------------------
# coideal check
# ---------------------------------------------------------------------------

def coideal_check(
    predicate: Callable[[Word], bool],
    coproduct: Callable[[Operand], Tensor2],
    side: str,
    samples: Iterable[Word],
) -> bool:
    """Does every sample's coproduct keep the named factor inside the predicate?

    side = "right" checks the right tensor factors (the span sits in C (x) J),
    side = "left" the left ones (J (x) C).  Samples must satisfy the predicate.
    """
    if side not in ("left", "right"):
        raise WordError(f"side must be 'left' or 'right', got {side!r}")
    pick = (lambda a, b: a) if side == "left" else (lambda a, b: b)
    for w in samples:
        if not predicate(w):
            raise WordError(f"sample {w!r} is outside the candidate coideal")
        for a, b, c in coproduct(Poly.of(w)):
            if c and not predicate(pick(a, b)):
                return False
    return True


def coideal_witness(
    predicate: Callable[[Word], bool],
    coproduct: Callable[[Operand], Tensor2],
    side: str,
    samples: Iterable[Word],
) -> tuple[Word, Word] | None:
    """First (sample, offending factor) pair, or None if the check passes."""
    pick = (lambda a, b: a) if side == "left" else (lambda a, b: b)
    for w in samples:
        for a, b, c in coproduct(Poly.of(w)):
            if c and not predicate(pick(a, b)):
                return (w, pick(a, b))
    return None


def clear_caches() -> None:
    _ANTIPODE_MEMO.clear()
    _INF_MEMO.clear()
