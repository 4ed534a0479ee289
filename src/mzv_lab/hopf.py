"""Coalgebra layer: deconcatenation, antipode, transferred Hopf structures,
the opposite square coproduct, and the infinitesimal coproduct.

``Tensor2`` is the two-fold tensor carrier (words x words with rational
coefficients).  Coproducts cut along z-letter boundaries, so their domain is
the span of z-decodable words (ending in y, resp. x1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

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
    Poly,
    Rational,
    Word,
    WordError,
    as_poly,
    reverse_swap,
    z_decode,
    z_encode,
)

Operand = Union[Word, Poly]
Pair = tuple[Word, Word]


class Tensor2:
    """Finite linear combination of word pairs a (x) b."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Pair, Rational] | None = None):
        clean: dict[Pair, Fraction] = {}
        if terms:
            for (a, b), c in terms.items():
                if a.alphabet is not alphabet or b.alphabet is not alphabet:
                    raise AlphabetMismatchError("tensor factors must share the alphabet")
                c = Fraction(c)
                if c:
                    key = (a, b)
                    clean[key] = clean.get(key, Fraction(0)) + c
                    if not clean[key]:
                        del clean[key]
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor2 is immutable")

    @classmethod
    def of(cls, left: Operand, right: Operand) -> "Tensor2":
        L, R = as_poly(left), as_poly(right)
        terms: dict[Pair, Fraction] = {}
        for a, ca in L.terms.items():
            for b, cb in R.terms.items():
                terms[(a, b)] = terms.get((a, b), Fraction(0)) + ca * cb
        return cls(L.alphabet, terms)

    def __add__(self, other: "Tensor2") -> "Tensor2":
        if self.alphabet is not other.alphabet:
            raise AlphabetMismatchError("tensor alphabets differ")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + c
        return Tensor2(self.alphabet, terms)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + other.scale(-1)

    def scale(self, coeff: Rational) -> "Tensor2":
        coeff = Fraction(coeff)
        if not coeff:
            return Tensor2(self.alphabet)
        return Tensor2(self.alphabet, {k: c * coeff for k, c in self.terms.items()})

    def __rmul__(self, coeff):
        if isinstance(coeff, (int, Fraction)):
            return self.scale(coeff)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor2)
            and self.alphabet is other.alphabet
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __iter__(self) -> Iterator[tuple[Word, Word, Fraction]]:
        def key(item):
            (a, b), _ = item
            return (a.sort_key(), b.sort_key())

        for (a, b), c in sorted(self.terms.items(), key=key):
            yield a, b, c

    def flip(self) -> "Tensor2":
        return Tensor2(self.alphabet, {(b, a): c for (a, b), c in self.terms.items()})

    def map_factors(
        self,
        f_left: Callable[[Poly], Poly],
        f_right: Callable[[Poly], Poly],
    ) -> "Tensor2":
        out = Tensor2(self.alphabet)
        for (a, b), c in self.terms.items():
            piece = Tensor2.of(f_left(Poly.of(a)), f_right(Poly.of(b)))
            out = out + piece.scale(c)
        return out

    def concat_mul(self, other: "Tensor2") -> "Tensor2":
        """Componentwise concatenation product (a x b)(c x d) = ac x bd."""
        if self.alphabet is not other.alphabet:
            raise AlphabetMismatchError("tensor alphabets differ")
        terms: dict[Pair, Fraction] = {}
        for (a, b), c1 in self.terms.items():
            for (c, d), c2 in other.terms.items():
                key = (a * c, b * d)
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Tensor2(self.alphabet, terms)

    def mul_with(self, other: "Tensor2", product: Callable[[Poly, Poly], Poly]) -> "Tensor2":
        """Componentwise product of tensors for an arbitrary algebra product."""
        out = Tensor2(self.alphabet)
        for (a, b), c1 in self.terms.items():
            for (c, d), c2 in other.terms.items():
                piece = Tensor2.of(product(Poly.of(a), Poly.of(c)), product(Poly.of(b), Poly.of(d)))
                out = out + piece.scale(c1 * c2)
        return out

    def contract(self, product: Callable[[Poly, Poly], Poly]) -> Poly:
        """Multiply the two slots together: sum of c * product(a, b)."""
        acc = Poly.zero(self.alphabet)
        for (a, b), c in self.terms.items():
            acc = acc + product(Poly.of(a), Poly.of(b)).scale(c)
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for a, b, c in self:
            body = f"{a} (x) {b}"
            if c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        out = bits[0]
        for t in bits[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"Tensor2({self.alphabet.tag}: {self})"


# ---------------------------------------------------------------------------
# deconcatenation coproduct and friends
# ---------------------------------------------------------------------------

def deconcat(x: Operand) -> Tensor2:
    """Cut a z-decodable word at every z-letter boundary: sum of u (x) v."""
    X = as_poly(x)
    out = Tensor2(X.alphabet)
    for w, c in X.terms.items():
        comp = z_decode(w)
        terms: dict[Pair, Fraction] = {}
        for i in range(len(comp) + 1):
            key = (z_encode(comp[:i], X.alphabet), z_encode(comp[i:], X.alphabet))
            terms[key] = terms.get(key, Fraction(0)) + c
        out = out + Tensor2(X.alphabet, terms)
    return out


def counit(x: Operand) -> Fraction:
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
        if not comp:
            out = Poly.unit(alphabet)
        else:
            out = Poly.of(w, -1)
            for i in range(1, len(comp)):
                u = z_encode(comp[:i], alphabet)
                v = z_encode(comp[i:], alphabet)
                out = out - mul(s_word(u), Poly.of(v))
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
    counit: Callable[[Operand], Fraction]
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

    def counit_t(x: Operand) -> Fraction:
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

    out = Tensor2(alphabet)
    for w, c in X.terms.items():
        out = out + d_word(w).scale(c)
    return out


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
