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
chain at m_1 <= N is exact through q^N.  Both exact routes work on plain int
lists (the expansions are integral).  The chain sum is one pass over the
summation index with one running series per distinct suffix of the
compositions evaluated together: O(suffixes N) ints and about N^2/2 updates
per suffix and unit of |k| (binomial rows, about N^2 ln N / 2, once |k|
passes the order).  The Rota-Baxter route keeps a series in t and q
as (N+1)(N+2)/2 ints, with about N^2/2 additions per operator and unit of
|k|.  ``QPoly`` keeps the ints until a rational enters; chain sums are cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Union

from mzv_lab.words import (
    H2,
    PY,
    AlphabetMismatchError,
    NotInSubalgebraError,
    Poly,
    Rational,
    Word,
    WordError,
    as_poly,
    exact,
    reverse_swap,
    signed_sum,
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
        _check_order(order)
        cs = [exact(c) for c in coeffs]
        if len(cs) > order + 1:
            raise WordError(f"{len(cs)} coefficients exceed order {order}")
        cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _make(cls, order: int, coeffs: Iterable[Rational]) -> "QPoly":
        """Trusted: exactly order + 1 ``int | Fraction`` coefficients."""
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def one(cls, order: int) -> "QPoly":
        return cls(order, (1,))

    def __add__(self, other: "QPoly") -> "QPoly":
        n = min(self.order, other.order)
        return QPoly._make(n, [a + b for a, b in zip(self.coeffs, other.coeffs)][: n + 1])

    def __sub__(self, other: "QPoly") -> "QPoly":
        n = min(self.order, other.order)
        return QPoly._make(n, [a - b for a, b in zip(self.coeffs, other.coeffs)][: n + 1])

    def __neg__(self) -> "QPoly":
        return self.scale(-1)

    def scale(self, coeff: Rational) -> "QPoly":
        coeff = exact(coeff)
        return QPoly._make(self.order, [c * coeff for c in self.coeffs])

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
            if a:
                out[i:] = [c + a * b for c, b in zip(out[i:], other.coeffs)]
        return QPoly._make(n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        bodies = []  # the text of |c| q^k for each nonzero c, whose sign goes to signed_sum
        for k, c in enumerate(self.coeffs):
            if c:
                a, mono = abs(c), "q" if k == 1 else f"q^{k}"
                star = "" if a.denominator == 1 else "*"
                bodies.append(str(a) if not k else mono if a == 1 else f"{a}{star}{mono}")
        return signed_sum(bodies, (1 if c > 0 else -1 for c in self.coeffs if c))

    def __repr__(self) -> str:
        return f"QPoly[{self.order}]({self})"

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# the four models
# ---------------------------------------------------------------------------

class Model(NamedTuple):
    tag: str
    strict: bool
    first_min: int
    rest_min: int | None  # None: any integer allowed

    def shift(self, position: int, k: int) -> int:
        """s such that the factor at summation index m is q^(sm) (1-q^m)^-k.
        position 0 is the outermost index (largest m)."""
        if self.tag in ("SZ", "SZstar"):
            return k
        if self.tag == "BZ":
            return k - 1
        return 1 if position == 0 else 0  # OOZ

    def check(self, comp: Comp) -> Comp:
        """comp itself, when it lies in the model's domain."""
        if comp and comp[0] < self.first_min:
            bound = f"first z-part >= {self.first_min}"
        elif self.rest_min is not None and any(k < self.rest_min for k in comp[1:]):
            bound = f"later z-parts >= {self.rest_min}"
        else:
            return comp
        raise NotInSubalgebraError(f"{self.tag} needs {bound}, got {comp}")


MODELS: dict[str, Model] = {
    "SZ": Model("SZ", strict=True, first_min=1, rest_min=0),
    "SZstar": Model("SZstar", strict=False, first_min=1, rest_min=0),
    "BZ": Model("BZ", strict=True, first_min=2, rest_min=1),
    "OOZ": Model("OOZ", strict=True, first_min=1, rest_min=None),
}

_EVAL_CACHE: dict[tuple, list[int]] = {}


def _check_order(order: int) -> None:
    if order < 0:
        raise WordError(f"order must be >= 0, got {order}")


def _times_geometric(t: list[int], m: int, k: int) -> None:
    """t <- t (1-q^m)^-k in place, truncated at len(t): k stride-m prefix
    sums, or -k stride-m differences when k < 0; when |k| >= len(t), each
    residue class times the binomial row C(k-1+j, j) of (1-x)^-k instead."""
    size = len(t)
    if size <= m:  # no q^m term survives the truncation
        return
    if abs(k) >= size:
        rising = range(1, (size - 1) // m + 1)
        row = list(accumulate(rising, lambda c, j: c * (k + j - 1) // j, initial=1))
        for r in range(m):
            col = t[r::m]
            t[r::m] = [sum(map(mul, row, col[i::-1])) for i in range(len(col))]
    elif k < 0:
        for _ in range(-k):
            t[m:] = map(sub, t[m:], t[:-m])
    elif k and m * m < size:  # narrow stride: one running sum per residue class
        for r in range(m):
            col = t[r::m]
            for _ in range(k):
                col = accumulate(col)
            t[r::m] = col
    else:  # wide stride: fewer than m blocks of m entries
        for _ in range(k):
            for b in range(m, size, m):
                t[b : b + m] = map(add, t[b : b + m], t[b - m : b])


def _eval_models(tag: str, comps: Iterable[Comp], n: int) -> list[list[int]]:
    """The chain sums of several compositions, in one pass over m = 1..n.
    A level node is a distinct suffix comp[j:] with the shift of its head
    factor (OOZ's outermost one differs): the sum over chains of the suffix
    with top index <= m.  Strict chains update longer suffixes first, so a
    child still stops below m; non-strict ones shorter first, so it includes
    m.  The outermost factor has q-order >= m_1 >= m + j on a strict chain (m
    otherwise), so a node is kept through the cap of its smallest j (n at 0)."""
    model = MODELS[tag]
    comps = [model.check(comp) for comp in comps]
    _check_order(n)
    todo = list(dict.fromkeys(c for c in comps if (tag, c, n) not in _EVAL_CACHE))
    leaf = [1] + [0] * n
    depth: dict[tuple[Comp, int], int] = {}  # node -> smallest j it is used at
    for comp in todo:
        for j, k in enumerate(comp):
            node = (comp[j:], model.shift(j, k))
            depth[node] = min(depth.get(node, j), j)
    series = {node: [0] * (n + 1) for node in depth}
    plan = []
    for suffix, s in sorted(depth, key=lambda node: len(node[0]), reverse=model.strict):
        below = series[(suffix[1:], model.shift(1, suffix[1]))] if suffix[1:] else leaf
        j = depth[(suffix, s)]
        plan.append((series[(suffix, s)], below, suffix[0], s, j, j * model.strict))
    for m in range(1, n + 1):
        for acc, below, k, s, j, cut in plan:
            lo, cap = m * s, n - m - cut if j else n
            if lo <= cap:
                t = below[: cap + 1 - lo]
                _times_geometric(t, m, k)
                acc[lo : cap + 1] = map(add, acc[lo : cap + 1], t)
    for comp in todo:
        _EVAL_CACHE[(tag, comp, n)] = series[(comp, model.shift(0, comp[0]))] if comp else leaf
    return [_EVAL_CACHE[(tag, comp, n)] for comp in comps]


def _eval_model(tag: str, comp: Comp, n: int) -> list[int]:
    return _eval_models(tag, (comp,), n)[0]


def zeta_SZ(comp: Iterable[int], order: int) -> QPoly:
    return QPoly._make(order, _eval_model("SZ", tuple(comp), order))


def zeta_SZ_star(comp: Iterable[int], order: int) -> QPoly:
    return QPoly._make(order, _eval_model("SZstar", tuple(comp), order))


def zeta_BZ(comp: Iterable[int], order: int) -> QPoly:
    return QPoly._make(order, _eval_model("BZ", tuple(comp), order))


def zeta_OOZ(comp: Iterable[int], order: int) -> QPoly:
    return QPoly._make(order, _eval_model("OOZ", tuple(comp), order))


_ZETAS = {"SZ": zeta_SZ, "SZstar": zeta_SZ_star, "BZ": zeta_BZ, "OOZ": zeta_OOZ}


def eval_word(model: str, x: Union[Word, Poly], order: int) -> QPoly:
    """Evaluate a z-decodable word (or combination) in the named model, the
    uncached terms in one shared pass.  BZ reads x0/x1 words, the other models
    p/y words; a word on the other alphabet raises ``AlphabetMismatchError``."""
    if model not in _ZETAS:
        raise WordError(f"unknown model {model!r}; expected one of {sorted(_ZETAS)}")
    x = as_poly(x)
    alphabet = H2 if model == "BZ" else PY
    if x.alphabet is not alphabet:
        raise AlphabetMismatchError(f"{model} reads {alphabet!r} words, got {x.alphabet!r}")
    terms = [(MODELS[model].check(z_decode(w)), c) for w, c in x.terms.items()]
    coeffs = [0] * (order + 1)
    for (_, c), series in zip(terms, _eval_models(model, [comp for comp, _ in terms], order)):
        coeffs = [a + c * b for a, b in zip(coeffs, series)]
    return QPoly._make(order, coeffs)


# ---------------------------------------------------------------------------
# Rota-Baxter style evaluator for the OOZ model
# ---------------------------------------------------------------------------

def _rb_times_power(rows: list[list[int]], k: int) -> None:
    """h <- h (1-t)^-k in place: k running sums down the rows, or -k
    differences (last row first) when k < 0; when |k| >= len(rows), row i
    becomes the sum of C(k-1+j, j) row(i-j) over j instead, last row first."""
    if abs(k) >= len(rows):
        binom = [1]
        for j in range(1, len(rows)):
            binom.append(binom[-1] * (k - 1 + j) // j)
        for i in range(len(rows) - 1, 0, -1):
            row = rows[i]
            for j in range(1, i + 1):
                row[:] = map(add, row, map(binom[j].__mul__, rows[i - j]))
        return
    op, sweep = (add, range(1, len(rows))) if k > 0 else (sub, range(len(rows) - 1, 0, -1))
    for _ in range(abs(k)):
        for i in sweep:
            rows[i][:] = map(op, rows[i], rows[i - 1])


def _rb_summation(rows: list[list[int]], strict: bool) -> None:
    """f(t) -> sum over m >= 1 (strict) or m >= 0 of f(t q^m) in place: row i
    is shifted by i (strict only), then gets one stride-i prefix sum along q.
    Row 0 stays 0.  Apart from ``_times_geometric``, so the routes share no code."""
    for i in range(1, len(rows)):
        row, size = rows[i], len(rows[i])
        if strict:
            row[:] = ([0] * i + row)[:size]
        if i * i < size:  # narrow stride: one running sum per residue class
            for r in range(i):
                row[r::i] = accumulate(row[r::i])
        else:  # wide stride: fewer than i blocks of i entries
            for b in range(i, size, i):
                row[b : b + i] = map(add, row[b : b + i], row[b - i : b])


def rota_baxter_eval_OOZ(comp: Iterable[int], order: int) -> QPoly:
    """Evaluate the OOZ model by nesting summation operators instead of chains.

    Build h = t (1-t)^-k1, repeatedly apply the strict summation operator and
    multiply by (1-t)^-kj for the outer indices, finish with the non-strict
    operator, and substitute t = q.  h is kept as triangular int rows, row i
    holding t^i q^j for i + j <= N: (N+1)(N+2)/2 ints, and about N^2 / 2
    additions per operator or unit of |kj|.  Agrees with zeta_OOZ everywhere.
    """
    comp, n = tuple(comp), order
    MODELS["OOZ"].check(comp)
    _check_order(n)
    if not comp:
        return QPoly.one(n)
    rows = [[0] * (n + 1 - i) for i in range(n + 1)]
    if n:
        rows[1][0] = 1  # h = t
    _rb_times_power(rows, comp[0])
    for k in comp[1:]:
        _rb_summation(rows, strict=True)
        _rb_times_power(rows, k)
    _rb_summation(rows, strict=False)
    coeffs = [0] * (n + 1)
    for i, row in enumerate(rows):  # t = q
        coeffs[i:] = map(add, coeffs[i:], row)
    return QPoly._make(n, coeffs)


# ---------------------------------------------------------------------------
# float oracle
# ---------------------------------------------------------------------------

class FloatResult(NamedTuple):
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
        a, err_a = _li_half(z_decode(reverse_swap(Word._make(H2, letters[:j]))), cutoff)
        b, err_b = _li_half(z_decode(Word._make(H2, letters[j:])), cutoff)
        total += a * b
        err += err_a + err_b
    value = float(total)
    bound = err + abs(Fraction(value)) / 2**52
    return FloatResult(value, math.nextafter(float(bound), math.inf), cutoff)


# ---------------------------------------------------------------------------
# numeric limit diagnostics
# ---------------------------------------------------------------------------

class ScalingReport(NamedTuple):
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
        s = model.shift(len(comp) - 1 - pos, k)
        factor = [x**s / (1.0 - x) ** k for x in qm]
        prefix = list(accumulate(t, initial=0.0))[0 if model.strict else 1 :]
        t = [f * p for f, p in zip(factor, prefix)] if pos else factor
    return math.fsum(t)


def limit_scaling_check(
    model: str,
    comp: Iterable[int],
    q_values: Iterable[float] = (0.9, 0.95, 0.99),
) -> ScalingReport:
    """Evaluate (1-q)^weight * model-sum at each given q in (0, 1) and report
    the drift toward the classical nested-sum value.  Diagnostic, not a proof."""
    comp = tuple(comp)
    if model not in MODELS or model == "SZstar":
        raise WordError(f"limit scaling supports SZ, BZ, OOZ; got {model!r}")
    m = MODELS[model]
    m.check(comp)
    q_values = tuple(q_values)
    for q in q_values:
        if not 0 < q < 1:
            raise WordError(f"limit scaling needs 0 < q < 1, got {q!r}")
    target = zeta_classical_float(comp, cutoff=200_000).value
    weight = sum(comp)
    rows = []
    for q in q_values:
        scaled = (1.0 - q) ** weight * _model_value_at(m, comp, q)
        rows.append((q, scaled))
    return ScalingReport(model, comp, target, tuple(rows))


def clear_caches() -> None:
    _EVAL_CACHE.clear()
