"""Alphabets, normalized words, and exact-rational linear combinations.

Three working alphabets:

* ``H2``  letters ``x0, x1`` (free),
* ``PY``  letters ``p, y``   (free),
* ``PDY`` letters ``p, d, y`` subject to the rewriting rule ``pd = dp = 1``.

Words are immutable; PDY words are normalized eagerly on construction (the
rewriting system {pd -> 1, dp -> 1} is terminating and locally confluent, so
a single stack pass yields the unique normal form).

Weights: wt(p) = 1, wt(y) = 0 on PY/PDY, and every H2 letter has weight 1.
wt(d) := -1, forced by pd = 1 together with additivity of the grading; no
other choice is consistent.

``Poly`` is the universal carrier of all products and linear maps: a finite
formal sum of words with exact ``int | Fraction`` coefficients (zero
coefficients are never stored; an ``int`` turns into a ``Fraction`` only when
a rational coefficient enters).  It and the other carriers of exact linear
combinations (``hopf.Tensor2``, ``products.ZPoly``) share the arithmetic and
the formatter of ``LinComb``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

Rational = Union[int, Fraction]


class WordError(ValueError):
    """Base class for word/poly domain errors."""


class InvalidLetterError(WordError):
    pass


class AlphabetMismatchError(WordError):
    pass


class NotInSubalgebraError(WordError):
    pass


class EncodingError(WordError):
    pass


@dataclass(frozen=True)
class Alphabet:
    tag: str
    letters: tuple[str, ...]

    def __repr__(self) -> str:
        return self.tag

    def index(self, letter: str) -> int:
        try:
            return self.letters.index(letter)
        except ValueError:
            raise InvalidLetterError(f"letter {letter!r} not in alphabet {self.tag}") from None


H2 = Alphabet("H2", ("x0", "x1"))
PY = Alphabet("PY", ("p", "y"))
PDY = Alphabet("PDY", ("p", "d", "y"))

ALPHABETS = {"H2": H2, "PY": PY, "PDY": PDY}


def _normalize_pdy(letters: tuple[str, ...]) -> tuple[str, ...]:
    # single stack pass; cancels adjacent pd / dp pairs until none remain
    out: list[str] = []
    for a in letters:
        if out and {out[-1], a} == {"p", "d"}:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


class Word:
    """A normalized word over one of the three alphabets.

    Immutable and hashable; ``w1 * w2`` concatenates (renormalizing on PDY).
    Canonical order for display and JSON is (length, letter indices).
    """

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters: Iterable[str] = ()):
        letters = tuple(letters)
        for a in letters:
            if a not in alphabet.letters:
                raise InvalidLetterError(f"letter {a!r} not in alphabet {alphabet.tag}")
        if alphabet is PDY:
            letters = _normalize_pdy(letters)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "_hash", hash((alphabet.tag, letters)))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet is other.alphabet
            and self.letters == other.letters
        )

    def sort_key(self) -> tuple:
        idx = self.alphabet.index
        return (len(self.letters), tuple(idx(a) for a in self.letters))

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Word") -> bool:
        return self.sort_key() <= other.sort_key()

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if isinstance(other, Word):
            if other.alphabet is not self.alphabet:
                raise AlphabetMismatchError(f"{self.alphabet} * {other.alphabet}")
            return Word(self.alphabet, self.letters + other.letters)
        return NotImplemented

    def __str__(self) -> str:
        return "".join(self.letters) if self.letters else "1"

    def __repr__(self) -> str:
        return f"Word({self.alphabet.tag}:{self})"

    @property
    def is_unit(self) -> bool:
        return not self.letters

    @property
    def weight(self) -> int:
        if self.alphabet is H2:
            return len(self.letters)
        return self.letters.count("p") - self.letters.count("d")

    @property
    def depth(self) -> int:
        marker = "x1" if self.alphabet is H2 else "y"
        return self.letters.count(marker)

    def grading(self) -> "Grading":
        return Grading(self.weight, self.depth, len(self.letters))


@dataclass(frozen=True)
class Grading:
    weight: int
    depth: int
    length: int

    def __add__(self, other: "Grading") -> "Grading":
        return Grading(
            self.weight + other.weight,
            self.depth + other.depth,
            self.length + other.length,
        )


def unit(alphabet: Alphabet) -> Word:
    return Word(alphabet, ())


# -- linear combinations ------------------------------------------------------

_EXACT = (int, Fraction)
_set = object.__setattr__


def exact(c) -> Rational:
    """c itself when it is an int or a Fraction, else Fraction(c)."""
    return c if type(c) in _EXACT else Fraction(c)


def add_into(terms: dict, key, c: Rational) -> None:
    """terms[key] += c in place; a coefficient that cancels is deleted."""
    old = terms.get(key)
    if old is not None:
        c += old
    if c:
        terms[key] = c
    elif old is not None:
        del terms[key]


def add_scaled(terms: dict, other: Mapping, c: Rational = 1) -> None:
    """terms += c * other in place, term by term through add_into."""
    one = c == 1
    for key, v in other.items():
        add_into(terms, key, v if one else c * v)


def signed_join(parts: list[str]) -> str:
    """Join signed term texts as "a - b + 2*c"; the empty sum is "0"."""
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in parts[1:])


class LinComb:
    """Finite linear combination of basis keys with exact coefficients.

    ``terms`` maps each key to a nonzero ``int | Fraction``; a coefficient
    stays an ``int`` until a rational one enters.  Subclasses fix the key:
    words (``Poly``), word pairs (``hopf.Tensor2``) or z-indexed words
    (``products.ZPoly``), and its display order (``_order``, a sort key for
    one key).  ``alphabet`` is the space the keys live in, and
    ``+`` and ``-`` need the same one on both sides.  Values are immutable,
    so memoized results are shared freely: accumulation in place writes only
    to a dict its caller created, and ``_make`` wraps that dict without a copy.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            for key, c in terms.items():
                self._check_key(key, alphabet)
                c = exact(c)
                if c:
                    clean[key] = c
        _set(self, "alphabet", alphabet)
        _set(self, "terms", clean)

    @classmethod
    def _make(cls, alphabet, terms: dict):
        """Trusted constructor: ``terms`` is already clean and is kept as is."""
        out = object.__new__(cls)
        _set(out, "alphabet", alphabet)
        _set(out, "terms", terms)
        return out

    @staticmethod
    def _check_key(key, alphabet) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _same_space(self, other: "LinComb") -> None:
        if other.alphabet is not self.alphabet:
            raise AlphabetMismatchError(f"{self.alphabet} vs {other.alphabet}")

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        self._same_space(other)
        terms = dict(self.terms)
        add_scaled(terms, other.terms, sign)
        return self._make(self.alphabet, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._make(self.alphabet, {k: -c for k, c in self.terms.items()})

    def scale(self, coeff: Rational):
        coeff = exact(coeff)
        if coeff == 1:
            return self
        terms = {k: c * coeff for k, c in self.terms.items()} if coeff else {}
        return self._make(self.alphabet, terms)

    def __rmul__(self, coeff):
        if isinstance(coeff, _EXACT):
            return self.scale(coeff)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.alphabet is other.alphabet
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list:
        """(key, coefficient) pairs in the canonical display order."""
        order = self._order
        return sorted(self.terms.items(), key=lambda t: order(t[0]))

    def format_terms(self, body: Callable[[object], str]) -> str:
        """Signed sum in canonical order, key k shown as body(k) with a
        coefficient c != +-1 written in front as "c*"."""
        parts = []
        for k, c in self.sorted_terms():
            b = body(k)
            parts.append(b if c == 1 else f"-{b}" if c == -1 else f"{c}*{b}")
        return signed_join(parts)


class Poly(LinComb):
    """Finite linear combination of words with exact coefficients.

    Never stores a zero coefficient; two Polys are equal iff their term maps
    are equal.  ``p * q`` is the concatenation product, extended bilinearly.
    Scalar multiplication via ``coeff * p``.
    """

    __slots__ = ()

    # the shared arithmetic is bound on Poly as well, so that instrumenting
    # Poly's own methods (perfbench/tracer.py) finds it
    __add__ = LinComb.__add__
    __sub__ = LinComb.__sub__
    __neg__ = LinComb.__neg__
    __rmul__ = LinComb.__rmul__
    __eq__ = LinComb.__eq__
    scale = LinComb.scale
    _order = staticmethod(Word.sort_key)

    @staticmethod
    def _check_key(w: Word, alphabet: Alphabet) -> None:
        if w.alphabet is not alphabet:
            raise AlphabetMismatchError(f"term {w!r} not over {alphabet}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Poly":
        return cls._make(alphabet, {})

    @classmethod
    def unit(cls, alphabet: Alphabet) -> "Poly":
        return cls._make(alphabet, {Word(alphabet): 1})

    @classmethod
    def of(cls, word: Word, coeff: Rational = 1) -> "Poly":
        return cls(word.alphabet, {word: coeff})

    def __mul__(self, other):
        # concatenation product, bilinear
        if isinstance(other, _EXACT):
            return self.scale(other)
        if isinstance(other, Word):
            other = Poly.of(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_space(other)
        terms: dict[Word, Rational] = {}
        for wu, cu in self.terms.items():
            for wv, cv in other.terms.items():
                add_into(terms, wu * wv, cu * cv)
        return Poly._make(self.alphabet, terms)

    def __iter__(self) -> Iterator[tuple[Word, Rational]]:
        return iter(self.sorted_terms())

    def coeff(self, word: Word) -> Rational:
        return self.terms.get(word, 0)

    def map_words(self, f: "Callable[[Word], Poly]") -> "Poly":
        """Linear extension of a word-level map into the same alphabet."""
        terms: dict[Word, Rational] = {}
        for w, c in self.terms.items():
            piece = f(w)
            self._same_space(piece)
            add_scaled(terms, piece.terms, c)
        return Poly._make(self.alphabet, terms)

    def __str__(self) -> str:
        return self.format_terms(str)

    def __repr__(self) -> str:
        return f"Poly({self.alphabet.tag}: {self})"


def as_poly(x: Word | Poly) -> Poly:
    return Poly.of(x) if isinstance(x, Word) else x


# -- subalgebra membership --------------------------------------------------

_SPACES = {
    "H1": (PY, None, "y"),     # empty or ends in y
    "Hm1": (PY, "p", None),    # empty or starts with p
    "H0": (PY, "p", "y"),      # empty, or starts with p and ends in y
    "h1": (H2, None, "x1"),
    "hm1": (H2, "x0", None),
    "h0": (H2, "x0", "x1"),
}


def membership(word: Word, space: str) -> bool:
    """Boundary-letter membership tests for the six distinguished subalgebras."""
    try:
        alphabet, first, last = _SPACES[space]
    except KeyError:
        raise WordError(f"unknown space {space!r}; expected one of {sorted(_SPACES)}") from None
    if word.alphabet is not alphabet:
        raise AlphabetMismatchError(f"{space} is a space of {alphabet} words, got {word.alphabet}")
    if word.is_unit:
        return True
    if first is not None and word.letters[0] != first:
        return False
    if last is not None and word.letters[-1] != last:
        return False
    return True


def poly_membership(poly: Poly, space: str) -> bool:
    return all(membership(w, space) for w in poly.terms)


# -- z-block codecs ----------------------------------------------------------

def z_encode(comp: Iterable[int], alphabet: Alphabet) -> Word:
    """Encode a composition as a word of z-blocks.

    PY:  z_k = p^k y   (k >= 0);   H2:  z_k = x0^(k-1) x1   (k >= 1).
    The empty composition encodes to the unit word.
    """
    comp = tuple(comp)
    letters: list[str] = []
    if alphabet is PY:
        for k in comp:
            if k < 0:
                raise EncodingError(f"PY z-block needs k >= 0, got {k}")
            letters.extend(["p"] * k)
            letters.append("y")
    elif alphabet is H2:
        for k in comp:
            if k < 1:
                raise EncodingError(f"H2 z-block needs k >= 1, got {k}")
            letters.extend(["x0"] * (k - 1))
            letters.append("x1")
    else:
        raise EncodingError(f"no z-block codec on alphabet {alphabet.tag}")
    return Word(alphabet, letters)


def z_decode(word: Word) -> tuple[int, ...]:
    """Inverse of z_encode on H1 (PY) / h1 (H2) words."""
    if word.alphabet is PY:
        terminal, count_letter, offset = "y", "p", 0
    elif word.alphabet is H2:
        terminal, count_letter, offset = "x1", "x0", 1
    else:
        raise NotInSubalgebraError(f"no z-block codec on alphabet {word.alphabet.tag}")
    if word.letters and word.letters[-1] != terminal:
        raise NotInSubalgebraError(f"{word!r} does not end in {terminal}; not z-decodable")
    parts: list[int] = []
    run = 0
    for a in word.letters:
        if a == count_letter:
            run += 1
        else:
            parts.append(run + offset)
            run = 0
    return tuple(parts)


def zp(comp: Iterable[int], alphabet: Alphabet = PY, coeff: Rational = 1) -> Poly:
    return Poly.of(z_encode(comp, alphabet), coeff)


# -- letter-level morphisms --------------------------------------------------

def phi(word: Word) -> Word:
    """Alphabet isomorphism PY -> H2: p -> x0, y -> x1."""
    if word.alphabet is not PY:
        raise AlphabetMismatchError("phi acts on PY words")
    table = {"p": "x0", "y": "x1"}
    return Word(H2, tuple(table[a] for a in word.letters))


def phi_inv(word: Word) -> Word:
    if word.alphabet is not H2:
        raise AlphabetMismatchError("phi_inv acts on H2 words")
    table = {"x0": "p", "x1": "y"}
    return Word(PY, tuple(table[a] for a in word.letters))


_SWAP = {"x0": "x1", "x1": "x0", "p": "y", "y": "p"}


def reverse_swap(word: Word) -> Word:
    """Reverse the word and swap the two weight-bearing letters.

    On x0/x1 this exchanges x0 and x1; on p/y it exchanges p and y.  Either
    way the result is an anti-automorphism involution of the word algebra.
    Undefined on p/d/y words (d has no partner).
    """
    if word.alphabet is PDY:
        raise AlphabetMismatchError("reverse_swap is not defined on p/d/y words")
    return Word(word.alphabet, tuple(_SWAP[a] for a in reversed(word.letters)))


def embed_J(word: Word) -> Word:
    """Injective algebra morphism H2 -> PY on letters: x0 -> p, x1 -> py.

    Maps h1 into H0 and renders the two z-block codecs consistent:
    embed_J(x0^(k-1) x1) = p^k y.
    """
    if word.alphabet is not H2:
        raise AlphabetMismatchError("embed_J acts on H2 words")
    letters: list[str] = []
    for a in word.letters:
        letters.append("p")
        if a == "x1":
            letters.append("y")
    return Word(PY, letters)


def block_map(word: Word) -> Word:
    """Send an H0 word with all z-parts >= 1 to the H2 word of the same parts.

    Classical weight of the output equals PY-weight + depth of the input.
    """
    comp = z_decode(word)
    if word.alphabet is not PY or not membership(word, "H0"):
        raise NotInSubalgebraError(f"block_map needs an H0 word, got {word!r}")
    if any(k < 1 for k in comp):
        raise EncodingError(f"zero z-part in {word!r}; p^0 y blocks have no H2 image")
    return z_encode(comp, H2)


def weight_projection(poly: Poly, w: int) -> Poly:
    """Keep exactly the terms whose word has weight w."""
    return Poly(poly.alphabet, {word: c for word, c in poly.terms.items() if word.weight == w})


# -- enumeration helpers (deterministic: by weight, then canonical order) ----

def iter_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """All normalized words of the exact letter length, in canonical order."""
    for letters in itertools.product(alphabet.letters, repeat=length):
        if alphabet is PDY and _normalize_pdy(letters) != letters:
            continue
        yield Word(alphabet, letters)


def iter_zcomps(total: int, depth: int, first_min: int, rest_min: int) -> Iterator[tuple[int, ...]]:
    """Compositions (k1..kn) with sum == total, n == depth, k1 >= first_min,
    kj >= rest_min for j >= 2.  Lexicographic order."""
    if depth == 0:
        if total == 0:
            yield ()
        return

    def rec(remaining: int, slots: int, lo: int) -> Iterator[tuple[int, ...]]:
        if slots == 1:
            if remaining >= lo:
                yield (remaining,)
            return
        for k in range(lo, remaining - rest_min * (slots - 1) + 1):
            for tail in rec(remaining - k, slots - 1, rest_min):
                yield (k,) + tail

    yield from rec(total, depth, first_min)
