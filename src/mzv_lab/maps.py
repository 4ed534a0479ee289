"""Linear and multiplicative maps: dualities, derivations, binomial
transforms, and the circle-action exponential-style bijection.

All maps act on Word or Poly and return Poly; word-level recursions are
memoized where they are not already cheap.
"""

from __future__ import annotations

from itertools import product as iterprod
from math import comb
from typing import Callable, NamedTuple, Union

from mzv_lab.products import _comps_to_poly, _rs, ihara_circ
from mzv_lab.words import (
    H2,
    PY,
    Alphabet,
    AlphabetMismatchError,
    NotInSubalgebraError,
    Poly,
    Rational,
    Word,
    WordError,
    add_into,
    as_poly,
    z_decode,
)

Operand = Union[Word, Poly]


def tau(x: Operand) -> Poly:
    """Reverse-and-swap involution on x0/x1 words (x0 <-> x1)."""
    X = as_poly(x)
    if X.alphabet is not H2:
        raise AlphabetMismatchError("tau acts on x0/x1 words")
    return _rs(X)


def tau_tilde(x: Operand) -> Poly:
    """Reverse-and-swap involution on p/y words (p <-> y).

    Unlike tau it does not preserve the weight grading: weight goes to
    depth-count complement, only the letter length survives.
    """
    X = as_poly(x)
    if X.alphabet is not PY:
        raise AlphabetMismatchError("tau_tilde acts on p/y words")
    return _rs(X)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def _derivation_letter(n: int) -> dict[str, Poly]:
    binom = Poly(H2, {Word(H2, ("x0",)): 1, Word(H2, ("x1",)): 1})
    middle = Poly.unit(H2)
    for _ in range(n - 1):
        middle = middle * binom
    image = Poly.of(Word(H2, ("x0",))) * middle * Poly.of(Word(H2, ("x1",)))
    return {"x0": image, "x1": -image}


def derivation(x: Operand, n: int) -> Poly:
    """The n-th derivation on x0/x1 words: on letters,
    x0 -> x0 (x0+x1)^(n-1) x1 and x1 -> minus that, extended by Leibniz."""
    if n < 1:
        raise WordError(f"derivation index must be >= 1, got {n}")
    X = as_poly(x)
    if X.alphabet is not H2:
        raise AlphabetMismatchError("derivation acts on x0/x1 words")
    letter_image = _derivation_letter(n)

    def d_word(w: Word) -> Poly:
        terms: dict[Word, Rational] = {}
        for i, a in enumerate(w.letters):
            prefix, suffix = w.letters[:i], w.letters[i + 1:]
            for x, c in letter_image[a].terms.items():
                add_into(terms, Word._make(H2, prefix + x.letters + suffix), c)
        return Poly._make(H2, terms)

    return X.map_words(d_word)


# ---------------------------------------------------------------------------
# binomial transforms on z-parts
# ---------------------------------------------------------------------------

def _binom_transform(
    comp: tuple[int, ...],
    first_lo: int,
    rest_lo: int,
    signed: bool,
) -> dict[tuple[int, ...], int]:
    """sum over r with first_lo <= r1 <= k1, rest_lo <= rj <= kj of
    C(k1-first_lo, r1-first_lo) prod C(kj-rest_lo, rj-rest_lo) z_r,
    with the sign (-1)^(sum k - sum r) when signed."""
    if not comp:
        return {(): 1}
    if comp[0] < first_lo or any(k < rest_lo for k in comp[1:]):
        raise NotInSubalgebraError(
            f"composition {comp} outside the transform domain "
            f"(first part >= {first_lo}, later parts >= {rest_lo})"
        )
    ranges = [range(first_lo, comp[0] + 1)]
    ranges.extend(range(rest_lo, k + 1) for k in comp[1:])
    total = sum(comp)
    out: dict[tuple[int, ...], int] = {}
    for r in iterprod(*ranges):
        coeff = comb(comp[0] - first_lo, r[0] - first_lo)
        for k, rj in zip(comp[1:], r[1:]):
            coeff *= comb(k - rest_lo, rj - rest_lo)
        if signed and (total - sum(r)) % 2:
            coeff = -coeff
        add_into(out, r, coeff)
    return out


def _binom_map(alphabet: Alphabet, first_lo: int, rest_lo: int, signed: bool):
    def apply(x: Operand) -> Poly:
        X = as_poly(x)
        if X.alphabet is not alphabet:
            raise AlphabetMismatchError(f"map acts on {alphabet} words")

        def on_word(w: Word) -> Poly:
            images = _binom_transform(z_decode(w), first_lo, rest_lo, signed)
            return _comps_to_poly(images, alphabet)

        return X.map_words(on_word)

    return apply


# x0/x1 side: z-parts k1 >= 2, kj >= 1
map_U = _binom_map(H2, 2, 1, signed=False)
map_U_inv = _binom_map(H2, 2, 1, signed=True)

# p/y side: z-parts k1 >= 1, kj >= 0
map_V = _binom_map(PY, 1, 0, signed=False)
map_V_inv = _binom_map(PY, 1, 0, signed=True)


def dual_family_1(x: Operand) -> Poly:
    """Conjugate tau_tilde by the p/y binomial transform: Vinv . tau~ . V."""
    return map_V_inv(tau_tilde(map_V(x)))


def dual_family_2(x: Operand) -> Poly:
    """Conjugate tau by the x0/x1 binomial transform: Uinv . tau . U."""
    return map_U_inv(tau(map_U(x)))


# ---------------------------------------------------------------------------
# circle-action bijection
# ---------------------------------------------------------------------------

_IHARA_MEMO: dict[tuple, Poly] = {}


def _ihara_word(w: Word, inverse: bool) -> Poly:
    key = (w.letters, inverse)
    hit = _IHARA_MEMO.get(key)
    if hit is not None:
        return hit
    z_decode(w)  # raises unless w ends in y
    if not w.letters:
        out = Poly.unit(PY)
    else:
        cut = w.letters.index("y") + 1
        head = Poly.of(Word._make(PY, w.letters[:cut]))
        tail = _ihara_word(Word._make(PY, w.letters[cut:]), inverse)
        circ = ihara_circ(head, tail)
        out = head * tail + (-circ if inverse else circ)
    _IHARA_MEMO[key] = out
    return out


def ihara_S(x: Operand) -> Poly:
    """S(z_k w) = z_k S(w) + z_k o S(w) on p/y words ending in y."""
    X = as_poly(x)
    if X.alphabet is not PY:
        raise AlphabetMismatchError("ihara_S acts on p/y words")
    return X.map_words(lambda w: _ihara_word(w, inverse=False))


def ihara_S_inv(x: Operand) -> Poly:
    """Inverse bijection: S^-1(z_k w) = z_k S^-1(w) - z_k o S^-1(w)."""
    X = as_poly(x)
    if X.alphabet is not PY:
        raise AlphabetMismatchError("ihara_S_inv acts on p/y words")
    return X.map_words(lambda w: _ihara_word(w, inverse=True))


# ---------------------------------------------------------------------------
# registry for the command line
# ---------------------------------------------------------------------------

class LinearMap(NamedTuple):
    name: str
    alphabet: Alphabet
    apply: Callable[[Operand], Poly]


_REGISTRY: dict[str, LinearMap] = {
    "tau": LinearMap("tau", H2, tau),
    "tautilde": LinearMap("tautilde", PY, tau_tilde),
    "U": LinearMap("U", H2, map_U),
    "Uinv": LinearMap("Uinv", H2, map_U_inv),
    "V": LinearMap("V", PY, map_V),
    "Vinv": LinearMap("Vinv", PY, map_V_inv),
    "S": LinearMap("S", PY, ihara_S),
    "Sinv": LinearMap("Sinv", PY, ihara_S_inv),
    "dual1": LinearMap("dual1", PY, dual_family_1),
    "dual2": LinearMap("dual2", H2, dual_family_2),
}


# the largest derivation index get_map serves: dn:<n> builds the 2^(n-1) words
# of (x0+x1)^(n-1), which at n = 16 take about 0.7 s and 46 MB
MAX_DERIVATION = 16


def get_map(name: str) -> LinearMap:
    """Look up a named map; dn:<n> selects the n-th derivation, 1 <= n <= MAX_DERIVATION."""
    if name.startswith("dn:"):
        try:
            n = int(name[3:])
        except ValueError:
            raise WordError(f"bad derivation index in {name!r}") from None
        if n < 1:
            raise WordError(f"derivation index must be >= 1, got {n}")
        if n > MAX_DERIVATION:
            raise WordError(f"derivation index must be <= {MAX_DERIVATION}, got {n}")
        return LinearMap(name, H2, lambda x, _n=n: derivation(x, _n))
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY) + ["dn:<n>"])
        raise WordError(f"unknown map {name!r}; known: {known}") from None


def clear_caches() -> None:
    _IHARA_MEMO.clear()
