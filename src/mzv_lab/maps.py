"""Linear and multiplicative maps: dualities, derivations, binomial
transforms, and the circle-action exponential-style bijection.

All maps act on Word or Poly and return Poly.  The reverse-swap involutions
map words one to one; every other map runs through ``products._linear``: each
term is decoded once into its key (letters or z-parts), the images of its
tuple kernel are summed in one tuple dict, and the words are built once.
Ihara's S and its inverse are coarsening sums from the product driver (and its
memo); no map keeps a table of its own.
"""

from __future__ import annotations

from functools import partial
from itertools import product as iterprod
from math import comb, prod
from typing import Callable, NamedTuple, Union

from mzv_lab.products import _coarsenings, _comps_to_poly, _letters, _letters_to_poly, _linear, _rs
from mzv_lab.words import (
    H2,
    PY,
    Alphabet,
    NotInSubalgebraError,
    Poly,
    Word,
    WordError,
    add_pairs,
    check_range,
    poly_on,
    z_decode,
)

Operand = Union[Word, Poly]


def tau(x: Operand) -> Poly:
    """Reverse-and-swap involution on x0/x1 words (x0 <-> x1)."""
    return _rs(poly_on(x, "tau acts on x0/x1 words", H2))


def tau_tilde(x: Operand) -> Poly:
    """Reverse-and-swap involution on p/y words (p <-> y).

    Unlike tau it does not preserve the weight grading: weight goes to
    depth-count complement, only the letter length survives.
    """
    return _rs(poly_on(x, "tau_tilde acts on p/y words", PY))


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def derivation(x: Operand, n: int) -> Poly:
    """The n-th derivation on x0/x1 words: on letters,
    x0 -> x0 (x0+x1)^(n-1) x1 and x1 -> minus that, extended by Leibniz."""
    _check_derivation_index(n)
    X = poly_on(x, "derivation acts on x0/x1 words", H2)
    # the words of x0 (x0+x1)^(n-1) x1, each with coefficient 1
    images = [("x0", *m, "x1") for m in iterprod(H2.letters, repeat=n - 1)]

    def d_word(letters: tuple[str, ...]) -> dict[tuple[str, ...], int]:
        out: dict[tuple[str, ...], int] = {}
        for i, a in enumerate(letters):
            prefix, suffix, sign = letters[:i], letters[i + 1:], 1 if a == "x0" else -1
            add_pairs(out, ((prefix + m + suffix, sign) for m in images))
        return out

    return _linear(X, _letters, d_word, _letters_to_poly)


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
    lows = (first_lo,) + (rest_lo,) * (len(comp) - 1)
    if any(k < lo for k, lo in zip(comp, lows)):
        raise NotInSubalgebraError(
            f"composition {comp} outside the transform domain "
            f"(first part >= {first_lo}, later parts >= {rest_lo})"
        )
    total, out = sum(comp), {}
    for r in iterprod(*(range(lo, k + 1) for k, lo in zip(comp, lows))):  # distinct r
        coeff = prod(comb(k - lo, rj - lo) for k, lo, rj in zip(comp, lows, r))
        out[r] = -coeff if signed and (total - sum(r)) % 2 else coeff
    return out


# the most terms one binomial transform builds, counted before any is built: a
# composition k yields prod (k_j - lo_j + 1) of them; 2^17 of them take about
# 1 s and 90 MB in one process (2 cores, Python 3.11).  The suites build at
# most 16 per composition, the benchmark's algebra rounds 270.
MAX_BINOMIAL_TERMS = 2**17


def _binom_map(name: str, alphabet: Alphabet, first_lo: int, rest_lo: int, signed: bool):
    kernel = partial(_binom_transform, first_lo=first_lo, rest_lo=rest_lo, signed=signed)

    def apply(x: Operand) -> Poly:
        X = poly_on(x, f"map acts on {alphabet} words", alphabet)
        terms = sum(
            prod(k - rest_lo + 1 for k in c[1:]) * (c[0] - first_lo + 1) if c else 1
            for c in map(z_decode, X.terms)
        )
        if terms > MAX_BINOMIAL_TERMS:
            raise WordError(f"{name} builds at most {MAX_BINOMIAL_TERMS} terms, got {terms}")
        return _linear(X, z_decode, kernel, _comps_to_poly)

    return apply


# x0/x1 side: z-parts k1 >= 2, kj >= 1
map_U = _binom_map("U", H2, 2, 1, signed=False)
map_U_inv = _binom_map("Uinv", H2, 2, 1, signed=True)

# p/y side: z-parts k1 >= 1, kj >= 0
map_V = _binom_map("V", PY, 1, 0, signed=False)
map_V_inv = _binom_map("Vinv", PY, 1, 0, signed=True)


def dual_family_1(x: Operand) -> Poly:
    """Conjugate tau_tilde by the p/y binomial transform: Vinv . tau~ . V."""
    return map_V_inv(tau_tilde(map_V(x)))


def dual_family_2(x: Operand) -> Poly:
    """Conjugate tau by the x0/x1 binomial transform: Uinv . tau . U."""
    return map_U_inv(tau(map_U(x)))


# ---------------------------------------------------------------------------
# circle-action bijection
# ---------------------------------------------------------------------------

def _ihara(x: Operand, name: str, merge: int) -> Poly:
    # the sum of merge^(len k - len J) z_J over the coarsenings J of each z-word z_k
    X = _check_z_parts(poly_on(x, f"{name} acts on p/y words", PY), name)
    return _linear(X, z_decode, partial(_coarsenings, lam=merge), _comps_to_poly)


def ihara_S(x: Operand) -> Poly:
    """S(z_k w) = z_k S(w) + z_k o S(w) on p/y words ending in y: the sum of
    z_J over the coarsenings J of the z-parts."""
    return _ihara(x, "ihara_S", 1)


def ihara_S_inv(x: Operand) -> Poly:
    """Inverse bijection: S^-1(z_k w) = z_k S^-1(w) - z_k o S^-1(w), the
    coarsening sum with sign (-1)^(len k - len J)."""
    return _ihara(x, "ihara_S_inv", -1)


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


# the largest derivation index get_map serves, and the most z-parts S, S^-1 and
# the antipode take: dn:<n> builds the 2^(n-1) words of (x0+x1)^(n-1), and each
# coarsening sum of n parts the 2^(n-1) coarsenings; dn:16 of one letter takes
# 0.26 s and 45 MB in one process (2 cores, Python 3.11)
MAX_DERIVATION = 16


def _check_z_parts(X: Poly, name: str) -> Poly:
    """X, once no word of it has more than MAX_DERIVATION z-parts (its y or x1 letters)."""
    if (parts := max((w.depth for w in X.terms), default=0)) > MAX_DERIVATION:
        raise WordError(f"{name} takes at most {MAX_DERIVATION} z-parts, got {parts}")
    return X


def _check_derivation_index(n: int) -> None:
    check_range("derivation index", n, 1, MAX_DERIVATION)


def get_map(name: str) -> LinearMap:
    """Look up a named map; dn:<n> selects the n-th derivation, 1 <= n <= MAX_DERIVATION."""
    if name.startswith("dn:"):
        try:
            n = int(name[3:])
        except ValueError:
            raise WordError(f"bad derivation index in {name!r}") from None
        _check_derivation_index(n)  # before the operand is parsed
        return LinearMap(name, H2, lambda x, _n=n: derivation(x, _n))
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY) + ["dn:<n>"])
        raise WordError(f"unknown map {name!r}; known: {known}") from None

