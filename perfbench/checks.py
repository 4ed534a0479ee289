"""Reference computations written from the definitions, apart from mzv_lab.

Nothing here imports the package.  Words are tuples of letters; a linear
combination is a dict word -> Fraction.  The CLI's text and JSON encodings
are decoded here by a parser of the benchmark's own.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

Word = tuple[str, ...]
Lin = dict[Word, Fraction]

# z_k = x0^(k-1) x1 on the "h" alphabet and z_k = p^k y on the "H" alphabet
LETTER = {"h": ("x0", "x1"), "H": ("p", "y")}


def z_letters(comp, alphabet: str) -> Word:
    a, b = LETTER[alphabet]
    out: list[str] = []
    for k in comp:
        out.extend([a] * (k - 1 if alphabet == "h" else k))
        out.append(b)
    return tuple(out)


def z_parts(word: Word, alphabet: str) -> tuple[int, ...]:
    a, b = LETTER[alphabet]
    parts, run = [], 0
    for letter in word:
        if letter == a:
            run += 1
        elif letter == b:
            parts.append(run + 1 if alphabet == "h" else run)
            run = 0
        else:
            raise ValueError(f"letter {letter!r} outside the {alphabet} alphabet")
    if run:
        raise ValueError(f"word {word} does not end in {b}")
    return tuple(parts)


def z_text(comp) -> str:
    return "".join(f"z{{{k}}}" for k in comp)


def weight(word: Word, alphabet: str) -> int:
    """Length on x0/x1 words; the number of p (minus d) on p/y/d words."""
    if alphabet == "h":
        return len(word)
    return word.count("p") - word.count("d")


def reverse_swap(word: Word) -> Word:
    swap = {"x0": "x1", "x1": "x0", "p": "y", "y": "p"}
    return tuple(swap[c] for c in reversed(word))


def dual_comp(comp, alphabet: str) -> tuple[int, ...]:
    return z_parts(reverse_swap(z_letters(comp, alphabet)), alphabet)


# ---------------------------------------------------------------------------
# decoding CLI output
# ---------------------------------------------------------------------------

def _word_of(body: str) -> Word:
    if body == "1":
        return ()
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "z":
            j = body.index("}", i)
            k = int(body[i + 2 : j])
            out.extend(("x0",) * (k - 1) + ("x1",))  # z-blocks are printed on x0/x1 only
            i = j + 1
        elif c == "x":
            out.append(body[i : i + 2])
            i += 2
        elif c in "pdy":
            out.append(c)
            i += 1
        else:
            raise ValueError(f"cannot read {body!r}")
    return tuple(out)


def _signed_terms(text: str, width: int):
    """Split 'a + b - c' (each term `width` space-separated tokens) into
    (sign, tokens) pairs."""
    tokens = text.strip().split(" ")
    sign, i, out = 1, 0, []
    while i < len(tokens):
        group = tokens[i : i + width]
        if group[0].startswith("-"):
            sign, group[0] = -sign, group[0][1:]
        out.append((sign, group))
        i += width
        if i < len(tokens):
            sign = {"+": 1, "-": -1}[tokens[i]]
            i += 1
    return out


def _coeff_body(term: str) -> tuple[Fraction, str]:
    if "*" in term:
        c, body = term.split("*", 1)
        return Fraction(c), body
    return Fraction(1), term


def parse_poly_text(text: str) -> Lin:
    if text.strip() == "0":
        return {}
    out: Lin = {}
    for sign, (term,) in _signed_terms(text, 1):
        c, body = _coeff_body(term)
        w = _word_of(body)
        out[w] = out.get(w, Fraction(0)) + sign * c
    return out


def parse_tensor_text(text: str) -> dict[tuple[Word, Word], Fraction]:
    if text.strip() == "0":
        return {}
    out: dict[tuple[Word, Word], Fraction] = {}
    for sign, (left, cross, right) in _signed_terms(text, 3):
        if cross != "(x)":
            raise ValueError(f"not a tensor term: {left} {cross} {right}")
        c, body = _coeff_body(left)
        key = (_word_of(body), _word_of(right))
        out[key] = out.get(key, Fraction(0)) + sign * c
    return out


def parse_json(text: str):
    doc = json.loads(text)
    if doc["type"] == "poly":
        return {tuple(t["word"]): Fraction(t["coeff"]) for t in doc["terms"]}
    if doc["type"] == "tensor":
        return {
            (tuple(t["left"]), tuple(t["right"])): Fraction(t["coeff"]) for t in doc["terms"]
        }
    raise ValueError(f"unexpected JSON type {doc['type']!r}")


def decode(text: str, as_json: bool, tensor: bool = False):
    if as_json:
        return parse_json(text)
    return parse_tensor_text(text) if tensor else parse_poly_text(text)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def shuffle_count(a: int, b: int) -> int:
    """Shuffles of words of lengths a and b: C(a+b, a)."""
    return comb(a + b, a)


def stuffle_count(r: int, s: int, lam: Fraction = Fraction(1)) -> Fraction:
    """Quasi-shuffles of depths r and s, each merge weighted by lam: k merges
    leave r+s-k letters in C(r+s-k, r) C(r, k) ways.  At lam = 1 this is the
    Delannoy number D(r, s)."""
    return sum(lam**k * comb(r + s - k, r) * comb(r, k) for k in range(min(r, s) + 1))


def divisor_counts(n: int) -> list[int]:
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            out[m] += 1
    return out


# ---------------------------------------------------------------------------
# q-series from the model definitions
# ---------------------------------------------------------------------------

def _geom(m: int, k: int, shift: int, n: int) -> list[int]:
    """q^shift (1 - q^m)^(-k) through q^n, for any integer k."""
    out = [0] * (n + 1)
    j = 0
    while shift + m * j <= n:
        if k >= 0:
            c = comb(k - 1 + j, j) if k else int(j == 0)
        else:
            c = (-1) ** j * comb(-k, j) if j <= -k else 0
        out[shift + m * j] = c
        j += 1
    return out


def _factor(model: str, position: int, m: int, k: int, n: int) -> list[int]:
    if model in ("SZ", "SZstar"):
        return _geom(m, k, m * k, n)
    if model == "BZ":
        return _geom(m, k, m * (k - 1), n)
    return _geom(m, k, m if position == 0 else 0, n)  # OOZ


def _mul(a: list, b: list, n: int) -> list:
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(n + 1 - i):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def naive_zeta(model: str, comp, n: int) -> list[int]:
    """Sum over every chain m1 > m2 > ... (>= for SZstar) with m1 <= n of the
    product of the model's factors, through q^n.  The outermost factor has
    q-order >= m1 in all four models, so larger m1 add nothing below q^(n+1)."""
    comp = tuple(comp)
    strict = model != "SZstar"
    total = [0] * (n + 1)
    total[0] = int(not comp)

    def walk(pos: int, top: int, series: list[int]) -> None:
        if pos == len(comp):
            for i, c in enumerate(series):
                total[i] += c
            return
        hi = top - 1 if strict else top
        for m in range(1, hi + 1):
            term = _mul(series, _factor(model, pos, m, comp[pos], n), n)
            if any(term):
                walk(pos + 1, m, term)

    if comp:
        one = [1] + [0] * n
        for m1 in range(1, n + 1):
            walk(1, m1, _mul(one, _factor(model, 0, m1, comp[0], n), n))
    return total


def series_mul(a, b) -> list:
    n = min(len(a), len(b)) - 1
    return _mul(list(a[: n + 1]), list(b[: n + 1]), n)
