"""q-series evaluators, a Rota-Baxter style evaluator, and a float MZV oracle
with a proven error bound.

Four q-models, each summing over chains m_1 > m_2 > ... > m_n >= 1 (the
starred model relaxes to >=) with per-index factors:

* ``SZ``     factor q^(mk) (1-q^m)^-k           z-parts k1 >= 1, kj >= 0
* ``SZstar`` same factor, non-strict chains      z-parts k1 >= 1, kj >= 0
* ``BZ``     factor q^((k-1)m) (1-q^m)^-k       z-parts k1 >= 2, kj >= 1
* ``OOZ``    first factor q^m (1-q^m)^-k1, inner factors (1-q^m)^-kj,
             z-parts k1 >= 1, inner kj any integer

In every model the outermost factor has q-order >= m_1, so truncating the
chain at m_1 <= N is exact through q^N.  The dynamic programming runs on
plain int coefficient lists (all four models have integer expansions) and
wraps the result in ``QPoly`` objects, which keep those ints and turn to
``Fraction`` only when a rational coefficient enters; suffix sums are cached
across evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb
from typing import Iterable, Sequence, Union

from mzv_lab.words import (
    H2,
    NotInSubalgebraError,
    Poly,
    Rational,
    Word,
    WordError,
    as_poly,
    exact,
    reverse_swap,
    signed_join,
    z_decode,
    z_encode,
)

Comp = tuple[int, ...]


class QPoly:
    """Truncated q-expansion with exact ``int | Fraction`` coefficients.

    coeffs[k] is the coefficient of q^k, k = 0..order.  Binary operations
    truncate to the smaller order; equality compares through the common order
    (a shorter expansion cannot contradict a longer one).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Rational] = ()):
        if order < 0:
            raise WordError(f"order must be >= 0, got {order}")
        cs = [exact(c) for c in coeffs]
        if len(cs) > order + 1:
            raise WordError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def zero(cls, order: int) -> "QPoly":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "QPoly":
        return cls(order, (1,))

    def __add__(self, other: "QPoly") -> "QPoly":
        n = min(self.order, other.order)
        return QPoly(n, [a + b for a, b in zip(self.coeffs, other.coeffs)][: n + 1])

    def __sub__(self, other: "QPoly") -> "QPoly":
        n = min(self.order, other.order)
        return QPoly(n, [a - b for a, b in zip(self.coeffs, other.coeffs)][: n + 1])

    def __neg__(self) -> "QPoly":
        return self.scale(-1)

    def scale(self, coeff: Rational) -> "QPoly":
        coeff = exact(coeff)
        return QPoly(self.order, [c * coeff for c in self.coeffs])

    def __rmul__(self, coeff):
        if isinstance(coeff, (int, Fraction)):
            return self.scale(coeff)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(0, n - i + 1):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return QPoly(n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        bits: list[str] = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                body = str(c)
            else:
                mono = "q" if k == 1 else f"q^{k}"
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                elif c.denominator == 1:
                    body = f"{c}{mono}"
                else:
                    body = f"{c}*{mono}"
            bits.append(body)
        return signed_join(bits)

    def __repr__(self) -> str:
        return f"QPoly[{self.order}]({self})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# integer-list series helpers (internal)
# ---------------------------------------------------------------------------

IntSeries = list[int]


def _ser_zero(n: int) -> IntSeries:
    return [0] * (n + 1)


def _ser_mul(a: Sequence[int], b: Sequence[int], n: int) -> IntSeries:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai and i <= n:
            top = n - i
            for j, bj in enumerate(b[: top + 1]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _ser_geom_power(m: int, k: int, n: int) -> IntSeries:
    """(1 - q^m)^(-k) through q^n, any integer k (negative k means the
    polynomial (1-q^m)^|k|)."""
    out = [0] * (n + 1)
    if k >= 0:
        for j in range(0, n // m + 1):
            out[m * j] = comb(k - 1 + j, j) if k > 0 else (1 if j == 0 else 0)
    else:
        kk = -k
        for j in range(0, min(kk, n // m) + 1):
            out[m * j] = (-1) ** j * comb(kk, j)
    return out


def _ser_shift(a: Sequence[int], s: int, n: int) -> IntSeries:
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai and i + s <= n:
            out[i + s] = ai
    return out


# ---------------------------------------------------------------------------
# the four models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Model:
    tag: str
    strict: bool
    first_min: int
    rest_min: int | None  # None: any integer allowed

    def factor(self, position: int, m: int, k: int, n: int) -> IntSeries:
        """Series of the per-index factor at summation index m, through q^n.
        position 0 is the outermost index (largest m)."""
        if self.tag in ("SZ", "SZstar"):
            if m * k > n:
                return _ser_zero(n)
            return _ser_shift(_ser_geom_power(m, k, n), m * k, n)
        if self.tag == "BZ":
            if m * (k - 1) > n:
                return _ser_zero(n)
            return _ser_shift(_ser_geom_power(m, k, n), m * (k - 1), n)
        # OOZ
        if position == 0:
            if m > n:
                return _ser_zero(n)
            return _ser_shift(_ser_geom_power(m, k, n), m, n)
        return _ser_geom_power(m, k, n)

    def check(self, comp: Comp) -> None:
        if not comp:
            return
        if comp[0] < self.first_min:
            raise NotInSubalgebraError(
                f"{self.tag} needs first z-part >= {self.first_min}, got {comp}"
            )
        if self.rest_min is not None and any(k < self.rest_min for k in comp[1:]):
            raise NotInSubalgebraError(
                f"{self.tag} needs later z-parts >= {self.rest_min}, got {comp}"
            )


MODELS: dict[str, Model] = {
    "SZ": Model("SZ", strict=True, first_min=1, rest_min=0),
    "SZstar": Model("SZstar", strict=False, first_min=1, rest_min=0),
    "BZ": Model("BZ", strict=True, first_min=2, rest_min=1),
    "OOZ": Model("OOZ", strict=True, first_min=1, rest_min=None),
}

# cumulative suffix sums: (tag, suffix, n) -> list over m = 0..n of series
# cum[m] = sum over chains with top index <= m, using inner-position factors
_SUFFIX_CACHE: dict[tuple, list[IntSeries]] = {}
_EVAL_CACHE: dict[tuple, IntSeries] = {}


def _suffix_cum(model: Model, suffix: Comp, n: int) -> list[IntSeries]:
    key = (model.tag, suffix, n)
    hit = _SUFFIX_CACHE.get(key)
    if hit is not None:
        return hit
    if not suffix:
        out = [[1] + [0] * n for _ in range(n + 1)]
    else:
        k, rest = suffix[0], suffix[1:]
        inner = _suffix_cum(model, rest, n)
        out = [_ser_zero(n)]
        for m in range(1, n + 1):
            bound = inner[m - 1] if model.strict else inner[m]
            term = _ser_mul(model.factor(1, m, k, n), bound, n)
            out.append([a + b for a, b in zip(out[m - 1], term)])
    _SUFFIX_CACHE[key] = out
    return out


def _eval_model(tag: str, comp: Comp, n: int) -> IntSeries:
    model = MODELS[tag]
    model.check(comp)
    key = (tag, comp, n)
    hit = _EVAL_CACHE.get(key)
    if hit is not None:
        return hit
    if not comp:
        out = [1] + [0] * n
    else:
        k, rest = comp[0], comp[1:]
        inner = _suffix_cum(model, rest, n)
        out = _ser_zero(n)
        for m in range(1, n + 1):
            bound = inner[m - 1] if model.strict else inner[m]
            term = _ser_mul(model.factor(0, m, k, n), bound, n)
            out = [a + b for a, b in zip(out, term)]
    _EVAL_CACHE[key] = out
    return out


def zeta_SZ(comp: Iterable[int], order: int) -> QPoly:
    return QPoly(order, _eval_model("SZ", tuple(comp), order))


def zeta_SZ_star(comp: Iterable[int], order: int) -> QPoly:
    return QPoly(order, _eval_model("SZstar", tuple(comp), order))


def zeta_BZ(comp: Iterable[int], order: int) -> QPoly:
    return QPoly(order, _eval_model("BZ", tuple(comp), order))


def zeta_OOZ(comp: Iterable[int], order: int) -> QPoly:
    return QPoly(order, _eval_model("OOZ", tuple(comp), order))


_ZETAS = {"SZ": zeta_SZ, "SZstar": zeta_SZ_star, "BZ": zeta_BZ, "OOZ": zeta_OOZ}


def eval_word(model: str, x: Union[Word, Poly], order: int) -> QPoly:
    """Evaluate a z-decodable word (or combination) in the named model.

    BZ reads x0/x1 words; the other models read p/y words.
    """
    if model not in _ZETAS:
        raise WordError(f"unknown model {model!r}; expected one of {sorted(_ZETAS)}")
    zeta = _ZETAS[model]
    coeffs = [0] * (order + 1)
    for w, c in as_poly(x).terms.items():
        coeffs = [a + c * b for a, b in zip(coeffs, zeta(z_decode(w), order).coeffs)]
    return QPoly(order, coeffs)


# ---------------------------------------------------------------------------
# Rota-Baxter style evaluator for the OOZ model
# ---------------------------------------------------------------------------

BiSeries = dict[tuple[int, int], int]  # (t-degree, q-degree) -> coeff, i + j <= N


def _bi_mul(a: BiSeries, b: BiSeries, n: int) -> BiSeries:
    out: BiSeries = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i + j <= n:
                key = (i, j)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _bi_one_minus_t_power(k: int, n: int) -> BiSeries:
    # (1 - t)^(-k) truncated at total degree n, any integer k
    out: BiSeries = {}
    if k >= 0:
        for s in range(0, n + 1):
            c = comb(k - 1 + s, s) if k > 0 else (1 if s == 0 else 0)
            if c:
                out[(s, 0)] = c
    else:
        for s in range(0, min(-k, n) + 1):
            out[(s, 0)] = (-1) ** s * comb(-k, s)
    return out


def _bi_summation(a: BiSeries, n: int, strict: bool) -> BiSeries:
    """Apply f(t) -> sum over m >= 1 (strict) or m >= 0 of f(t q^m):
    t^i q^j -> t^i q^(j + i m) summed, i.e. t^i q^(j + [strict] i) / (1 - q^i)."""
    out: BiSeries = {}
    for (i, j), c in a.items():
        if i == 0:
            raise WordError("summation operator applied to a t-degree-0 term")
        start = j + i if strict else j
        jj = start
        while i + jj <= n:
            key = (i, jj)
            out[key] = out.get(key, 0) + c
            jj += i
    return {k: c for k, c in out.items() if c}


def rota_baxter_eval_OOZ(comp: Iterable[int], order: int) -> QPoly:
    """Evaluate the OOZ model by nesting summation operators instead of chains.

    Build h = t (1-t)^-k1, repeatedly apply the strict summation operator and
    multiply by (1-t)^-kj for the outer indices, finish with the non-strict
    operator, and substitute t = q.  Agrees with zeta_OOZ on its whole domain.
    """
    comp = tuple(comp)
    MODELS["OOZ"].check(comp)
    n = order
    if not comp:
        return QPoly.one(n)
    h: BiSeries = {(1, 0): 1}
    h = _bi_mul(h, _bi_one_minus_t_power(comp[0], n), n)
    for k in comp[1:]:
        h = _bi_summation(h, n, strict=True)
        h = _bi_mul(h, _bi_one_minus_t_power(k, n), n)
    g = _bi_summation(h, n, strict=False)
    coeffs = [0] * (n + 1)
    for (i, j), c in g.items():
        coeffs[i + j] += c
    return QPoly(n, coeffs)


# ---------------------------------------------------------------------------
# float oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloatResult:
    value: float
    tail_bound: float
    cutoff: int

    def to_json(self) -> dict:
        return {"value": self.value, "tail_bound": self.tail_bound, "cutoff": self.cutoff}


def _li_half(s: Comp, cutoff: int) -> tuple[Fraction, Fraction]:
    """Li_s(1/2), the sum over n_1 > ... > n_d of 2^-n_1 / prod n_i^s_i, exact
    through n_1 = N, and a bound on the rest: at n_1 = m at most m^(d-1) chains
    add at most 2^-m each: a geometric series bounds them once the (falling)
    ratio of these terms is below 1, and before that Li_s(1/2) <= ln 2 < 1 does.
    N is the first index whose bound is below 1e-17, capped at cutoff."""
    if not s:
        return Fraction(1), Fraction(0)
    d, n, num, den = len(s), 0, 1, 1  # the tail bound is num/den
    while n < cutoff and num * 10**17 >= den:
        n += 1
        a, b = (n + 1) ** (d - 1), (n + 2) ** (d - 1)
        if 2 * a > b:
            num, den = 2 * a * a, 2 ** (n + 1) * (2 * a - b)
    # int numerators over lcm(1..N)^(weight of s[i+1:]): exact, with no gcds
    lcm = math.lcm(*range(1, n + 1))
    below = [0] * (d - 1) + [1]  # chains of s[i+1:] with indices below m
    total = 0
    for m in range(1, n + 1):
        total += below[0] * (lcm // m) ** s[0] << (n - m)
        for i in range(1, d):  # ascending, so below[i] still excludes m
            below[i - 1] += below[i] * (lcm // m) ** s[i]
    return Fraction(total, lcm ** sum(s) << n), Fraction(num, den)


def zeta_classical_float(comp: Iterable[int], cutoff: int = 1_000_000) -> FloatResult:
    """Classical multiple zeta value with a proven error bound.

    Hoelder convolution at 1/2 (Borwein, Bradley, Broadhurst and Lisonek,
    Trans. AMS 353, 2001): over the splits w = uv of the x0/x1 word of comp,
    zeta(w) = sum Li_tau(u)(1/2) Li_v(1/2), tau the reverse-and-swap duality.
    Each factor lies in [0, 1] and is truncated from below, so a product errs
    by at most the sum of its two tails.  ``tail_bound`` adds all tails and
    |value| 2^-52 for the rounding to float.  ``cutoff`` caps each truncation
    index.  Needs k1 >= 2, kj >= 1 and depth <= 4.
    """
    comp = tuple(comp)
    if not comp:
        return FloatResult(1.0, 0.0, cutoff)
    if comp[0] < 2 or any(k < 1 for k in comp[1:]):
        raise NotInSubalgebraError(
            f"classical float oracle needs k1 >= 2 and kj >= 1, got {comp}"
        )
    if len(comp) > 4:
        raise WordError("classical float oracle supports depth <= 4")
    letters = z_encode(comp, H2).letters
    total, err = Fraction(0), Fraction(0)
    for j in range(len(letters) + 1):
        a, err_a = _li_half(z_decode(reverse_swap(Word(H2, letters[:j]))), cutoff)
        b, err_b = _li_half(z_decode(Word(H2, letters[j:])), cutoff)
        total += a * b
        err += err_a + err_b
    value = float(total)
    bound = err + abs(Fraction(value)) / 2**52
    return FloatResult(value, math.nextafter(float(bound), math.inf), cutoff)


# ---------------------------------------------------------------------------
# numeric limit diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    model: str
    comp: Comp
    target: float
    rows: tuple[tuple[float, float], ...]  # (q, scaled value)

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(abs(v - self.target) for _, v in self.rows)


def _model_value_at(model: Model, comp: Comp, q: float, eps: float = 1e-12) -> float:
    cutoff = max(len(comp) + 1, int(math.log(eps) / math.log(q)) + 1)
    qm = [q**m for m in range(1, cutoff + 1)]
    t = [1.0] * cutoff
    for pos, k in enumerate(reversed(comp)):
        if model.tag in ("SZ", "SZstar"):
            factor = [x**k / (1.0 - x) ** k for x in qm]
        elif model.tag == "BZ":
            factor = [x ** (k - 1) / (1.0 - x) ** k for x in qm]
        elif pos == len(comp) - 1:
            factor = [x / (1.0 - x) ** k for x in qm]
        else:
            factor = [(1.0 - x) ** float(-k) for x in qm]
        prefix = list(accumulate(t, initial=0.0))[0 if model.strict else 1 :]
        t = [f * p for f, p in zip(factor, prefix)] if pos else factor
    return math.fsum(t)


def limit_scaling_check(
    model: str,
    comp: Iterable[int],
    q_values: Iterable[float] = (0.9, 0.95, 0.99),
) -> ScalingReport:
    """Evaluate (1-q)^weight * model-sum at the given q and report the drift
    toward the classical nested-sum value.  Diagnostic, not a proof."""
    comp = tuple(comp)
    if model not in MODELS or model == "SZstar":
        raise WordError(f"limit scaling supports SZ, BZ, OOZ; got {model!r}")
    m = MODELS[model]
    m.check(comp)
    target = zeta_classical_float(comp, cutoff=200_000).value
    weight = sum(comp)
    rows = []
    for q in q_values:
        scaled = (1.0 - q) ** weight * _model_value_at(m, comp, q)
        rows.append((q, scaled))
    return ScalingReport(model, comp, target, tuple(rows))


def clear_caches() -> None:
    _SUFFIX_CACHE.clear()
    _EVAL_CACHE.clear()
