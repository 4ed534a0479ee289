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
chain at m_1 <= N is exact through q^N.  Every q-series value is one packed
int, coefficient i in slot i of W bits (Kronecker substitution), W a sign bit
more than a bound on its coefficients, in whole bytes: each running series of
the chain sum (``_eval_models``) and each ``QPoly``, the cached chain sums
among them.  The chain sum is one pass over the summation index with one
running series per distinct suffix of the compositions evaluated together;
each step is a few big-int operations (``_times_row``) on at most about N W
bits, with no Python loop over coefficients.  Orders run up to
``MAX_ORDER``, and ``_check_size`` bounds the digits of a composition's
coefficients and the work of either route.  The Rota-Baxter route keeps a
series in t and q as (N+1)(N+2)/2 plain ints, with about N^2/2 additions per
operator and unit of |k|, and shares no kernel with the chain sum.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial, partialmethod
from itertools import accumulate
from operator import add, sub
from typing import Iterable, NamedTuple, Sequence, Union

from mzv_lab.words import (
    H2,
    PY,
    Alphabet,
    AlphabetMismatchError,
    Memo,
    NotInSubalgebraError,
    Poly,
    Rational,
    Word,
    WordError,
    _Frozen,
    as_poly,
    check_range,
    clear_caches,  # re-exported: it empties every Memo, _EVAL_CACHE among them
    exact,
    reverse_swap,
    signed_sum,
    z_decode,
    z_encode,
)

Comp = tuple[int, ...]


class QPoly(_Frozen):
    """Truncated q-expansion with exact ``int | Fraction`` coefficients.

    The coefficient of q^k, k = 0..order, is c_k / den, den > 0, with c_k in
    slot k of width bits of num, reduced mod 2^((order+1) width), and each
    |c_k| < 2^(width-1).  So a result's width (``_width``) needs a bound on its
    coefficients only.  A combination sum k_j s_j of QPolys at a common den
    (``+``, ``-``, ``scale``, ``eval_word``: ``_combine``) has them at most
    sum |k_j| (2^(w_j-1) - 1); a product's, through q^n, at most
    (n+1) (2^(w_a-1) - 1) (2^(w_b-1) - 1), which takes at most
    w_a + w_b + bits(n+1) - 1 bits with the sign.  ``coeffs`` unpacks at each
    access.  Binary operations truncate to the smaller order; equality
    compares through the common order (a shorter expansion cannot contradict
    a longer one).
    """

    __slots__ = _fields = ("order", "num", "width", "den")

    def __new__(cls, order: int, coeffs: Iterable[Rational] = ()) -> "QPoly":
        _check_order(order)
        cs = [exact(c) for c in coeffs]
        if len(cs) > order + 1:
            raise WordError(f"{len(cs)} coefficients exceed order {order}")
        den = math.lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (den // c.denominator) for c in cs]
        width = _width(max(map(abs, nums), default=0))
        return cls._make(order, _repack(_pack(nums, 1, width), order + 1, width, width), width, den)

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        """The coefficients of q^0..q^order: ints, and Fractions where not integral."""
        cs, den = _unpack(self.num, self.order + 1, self.width), self.den
        return tuple(c // den if c % den == 0 else Fraction(c, den) for c in cs)

    def _plus(self, sign: int, other: "QPoly") -> "QPoly":
        return _combine(min(self.order, other.order), [(self, 1), (other, sign)])

    __add__, __sub__ = partialmethod(_plus, 1), partialmethod(_plus, -1)

    def __neg__(self) -> "QPoly":
        return self.scale(-1)

    def scale(self, coeff: Rational) -> "QPoly":
        return _combine(self.order, [(self, exact(coeff))])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        n = min(self.order, other.order)
        width = _width((n + 1) * ((1 << self.width - 1) - 1) * ((1 << other.width - 1) - 1))
        num = _repack(self.num, n + 1, self.width, width) * _repack(other.num, n + 1, other.width, width)
        return QPoly._make(n, _repack(num, n + 1, width, width), width, self.den * other.den)

    __rmul__ = __mul__  # a scalar times a series: the scalar branch above

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        return not self.num

    def __str__(self) -> str:
        bodies, cs = [], self.coeffs  # the text of |c| q^k for each nonzero c; signed_sum adds signs
        for k, c in enumerate(cs):
            if c:
                a, mono = abs(c), "q" if k == 1 else f"q^{k}"
                star = "" if a.denominator == 1 else "*"
                bodies.append(str(a) if not k else mono if a == 1 else f"{a}{star}{mono}")
        return signed_sum(bodies, (1 if c > 0 else -1 for c in cs if c))

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
    alphabet: Alphabet  # the words eval_word reads

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
    "SZ": Model("SZ", strict=True, first_min=1, rest_min=0, alphabet=PY),
    "SZstar": Model("SZstar", strict=False, first_min=1, rest_min=0, alphabet=PY),
    "BZ": Model("BZ", strict=True, first_min=2, rest_min=1, alphabet=H2),
    "OOZ": Model("OOZ", strict=True, first_min=1, rest_min=None, alphabet=PY),
}

# 8 192 series: all 21 suites at their default bounds keep 951, and characters alone keeps
# 3 848 at --max-weight 8 and 5 992 at 9, the ceiling; at 2 048 it ran 3.5 times slower.
# An entry's value, a QPoly of width w through q^n, takes about 92 + (n+1) w / 7.5 bytes
# (64 for the QPoly, 30-bit digits in 4 bytes): 165 at order 30 and 1 414 at 300 in
# characters (mean w 18 and 33)
_EVAL_CACHE: Memo = Memo(8192)

# the largest q-order either route evaluates: the largest at which both answer
# the depth-4 (2,1,-1,1) within 10 s under a 1 GB address-space cap.  As whole
# processes at 4 000 the chain sum takes about 3 s and the Rota-Baxter route
# 6 s; at 5 000 the latter takes 10 s (2 cores, Python 3.11).
MAX_ORDER = 4_000


def _check_order(order: int) -> None:
    check_range("order", order, 0, MAX_ORDER)


# the most work either route may spend on one composition, in the units of
# _check_size's estimate (about bytes of int data touched).  Measured like
# MAX_ORDER, as whole processes under a 1 GB address-space cap (2 cores,
# Python 3.11): the 24 of 28 inputs on both routes that took over 1 s spent
# 1.1e-10 to 2.8e-10 s per unit, so this much takes at most about 10 s.  The
# largest estimate that must answer is the Rota-Baxter route's (2,1,-1,1) at
# order 4 000, 1.5e10 in 3.8 s; (6000) at 4 000 on the chain sum is 3.0e11.
MAX_WORK = 35 * 10**9

_LOG2_E = math.log2(math.e)


def _check_size(comp: Comp, n: int, shifts: Iterable[int], rota_baxter: bool = False) -> None:
    """Refuse comp at order n, before any series is built, when the answer's
    coefficients may have more digits than ``sys.get_int_max_str_digits()``
    lets str() write, or when the route's estimated work passes ``MAX_WORK``.

    The digit bound.  The factor of part k at index m is q^(sm) (1-q^m)^-k,
    with s >= 0 the part's shift (``Model.shift``; the Rota-Baxter route's t
    in h = t (1-t)^-k1 is OOZ's), and a chain reaches q^i only when m_1 <= i,
    so through q^n at most (n+1)^d chains count.  In each chain the factor of
    k_j reaches q^n only through its x^i, i <= J_j = n - s_j, of (1-x)^-k_j
    (no chain reaches q^n when some J_j < 0: the answer is 0).  Those
    coefficients have absolute sum C(|k|+J, J) for k >= 0, and
    sum_{i<=J} C(|k|, i) <= C(|k|+J, J) for k < 0 (Vandermonde).  A
    coefficient of a product is at most the product of its factors' absolute
    sums, so every coefficient of the answer is at most
    (n+1)^d prod_j C(|k_j|+J_j, J_j), and C(a+J, J) <= (e (a+J)/t)^t with
    t = min(a, J), since t! >= (t/e)^t.  The float sum of these logarithms errs
    far less than the sqrt(2 pi t) that Stirling leaves in each part.

    The work estimate.  A coefficient takes about W = bits/8 bytes.  The chain
    sum passes over about n (J_j + 1) slots per part, 1 + min(|k_j|, log2(n+1))
    times (the doublings, differences or row terms of ``_times_row``), each
    slot W + 64 bytes with the per-step overhead; the Rota-Baxter route makes
    n^2/2 int additions per operator and per unit of |k_j| (a binomial row
    costs about n/3 units), each W + 128 bytes with the per-int overhead."""
    bits = steps = 0.0
    for k, s in zip(comp, shifts):
        if s > n:
            return
        a, top = abs(k), n - s
        t = min(a, top)
        bits += math.log2(n + 1) + (t and t * (math.log2(a + top) - math.log2(t) + _LOG2_E))
        if rota_baxter:
            steps += n / 2 * (2 + min(a, n / 3))
        else:
            steps += (top + 1) * (1 + min(a, math.log2(n + 1)))
    limit, digits = sys.get_int_max_str_digits(), math.ceil(bits * math.log10(2))
    if limit and digits > limit:
        raise WordError(
            f"coefficients may reach {digits} digits at order {n}, past str()'s limit of {limit}"
        )
    work = n * steps * (bits / 8 + (128 if rota_baxter else 64))
    if work > MAX_WORK:
        raise WordError(f"estimated work {work:.1e} at order {n} passes the limit of {MAX_WORK:.1e}")


# ---------------------------------------------------------------------------
# packed series: coefficient c_i in slot i of width bits of one int, sum c_i
# 2^(i width).  Sums, shifts by whole slots and multiples act on the c_i
# exactly, and carries run only upward, so the low L slots of a result depend
# only on the low L slots of its operands; they read back while each c_i lies
# in [-2^(width-1), 2^(width-1)).
# ---------------------------------------------------------------------------

def _truncate(t: int, size: int, width: int) -> int:
    """t with the same low size slots and nothing from slot size + 1 up:
    t mod 2^(size width), which leaves one unit in slot size when the low
    slots read as a negative number."""
    if t.bit_length() < size * width:  # then nothing is at or above slot size
        return t
    return t & (1 << size * width) - 1


def _width(bound: int) -> int:
    """The bits of a bound on |coefficients| and a sign bit, in whole bytes."""
    return (bound.bit_length() + 8) // 8 * 8


def _bias(size: int, nbytes: int, slot: int) -> int:
    """2^(8 nbytes - 1) in each of size slots of slot bytes."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80" + bytes(slot - nbytes)) * size, "little")


def _biased(t: int, size: int, width: int, nbytes: int) -> bytes:
    """The bytes of the low size slots of t at width, each plus 2^(8 nbytes - 1)."""
    slot = width // 8
    return ((t + _bias(size, nbytes, slot)) & (1 << size * width) - 1).to_bytes(size * slot, "little")


def _pack(coeffs: list[int], stride: int, width: int) -> int:
    """sum c_j 2^(j stride width), for |c_j| < 2^(width-1), built as bytes."""
    nbytes, half = width // 8, 1 << width - 1
    raw = bytes((stride - 1) * nbytes).join((c + half).to_bytes(nbytes, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _bias(len(coeffs), nbytes, stride * nbytes)


def _unpack(t: int, size: int, width: int) -> list[int]:
    """The low size slots of t, each read in [-2^(width-1), 2^(width-1))."""
    nbytes, half = width // 8, 1 << width - 1
    raw = _biased(t, size, width, nbytes)
    return [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, len(raw), nbytes)]


def _repack(t: int, size: int, width: int, new: int) -> int:
    """The low size slots of t at width in slots of new bits, reduced mod
    2^(size new), each slot fitting both: biased into [0, 2^min(width, new)),
    the slots move by one strided copy per byte."""
    if new == width:
        return t & (1 << size * width) - 1
    keep, slot, stride = min(width, new) // 8, width // 8, new // 8
    raw, out = _biased(t, size, width, keep), bytearray(size * stride)
    for j in range(keep):
        out[j::stride] = raw[j::slot]
    return int.from_bytes(out, "little") - _bias(size, keep, stride) & (1 << size * new) - 1


def _combine(order: int, terms: Sequence[tuple[QPoly, Rational]]) -> QPoly:
    """sum c s over the terms (s, c), series of orders >= order at any width
    and den, through q^order, at one den and width."""
    den = math.lcm(*(s.den * c.denominator for s, c in terms))
    ks = [c.numerator * (den // (s.den * c.denominator)) for s, c in terms]
    common = math.gcd(den, *ks)
    ks = [k // common for k in ks]
    width = _width(sum(abs(k) * ((1 << s.width - 1) - 1) for k, (s, _) in zip(ks, terms)))
    num = sum(k * _repack(s.num, order + 1, s.width, width) for k, (s, _) in zip(ks, terms) if k)
    return QPoly._make(order, _repack(num, order + 1, width, width), width, den // common)


def _row(k: int, top: int) -> tuple[list[int], list[int]]:
    """The coefficients C(k-1+j, j) of (1-x)^-k for j = 0..top (for k < 0 these
    are (-1)^j C(|k|, j), zero past |k|), and the prefix sums of their sizes."""
    row = list(accumulate(range(1, top + 1), lambda c, j: c * (k + j - 1) // j, initial=1))
    return row, list(accumulate(map(abs, row)))


def _times_row(t: int, m: int, k: int, size: int, width: int, row: list[int]) -> int:
    """t (1-q^m)^-k in its low size slots, for a packed t; row is ``_row(k)``,
    and what lands above those slots is the caller's to cut.  The fewest
    big-int steps: per unit of k > 0, ceil(log2(size/m)) doublings
    t += t << 2^r m slots; for k < 0, -k differences t -= t << m slots; once
    that count passes the top = (size-1)//m row terms that reach a kept slot,
    one shifted multiple of t per term (one product with the packed row when
    t is a constant).  Needs k != 0 and m < size."""
    top = (size - 1) // m  # the highest power of q^m that reaches a kept slot
    if k > 0 and k * top.bit_length() <= top:
        for _ in range(k):
            for r in range(top.bit_length()):
                shift = m << r  # slots; only the low size - shift of t reach a kept slot
                t += _truncate(t, size - shift, width) << shift * width
        return t
    if 0 < -k <= top:
        for _ in range(-k):
            t -= t << m * width
        return t
    if t.bit_length() < width:  # a constant: one pass over the packed row
        return t * _pack(row[: top + 1], m, width)
    out = t
    for j in range(1, top + 1):
        if row[j]:
            out += row[j] * t << j * m * width
    return out


def _eval_models(tag: str, comps: Sequence[Comp], n: int) -> list[QPoly]:
    """The chain sums of several compositions, in one pass over m = 1..n.
    A level node is a distinct suffix comp[j:] with the shift of its head
    factor (OOZ's outermost one differs): the sum over chains of the suffix
    with top index <= m.  Strict chains update longer suffixes first, so a
    child still stops below m; non-strict ones shorter first, so it includes
    m.  The outermost factor has q-order >= m_1 >= m + j on a strict chain (m
    otherwise), so a node is kept through the cap of its smallest j (n at 0),
    and no one reads a node's slots above its cap again.  Each running series
    is packed; whatever lands above its kept slots is never read.

    The width comes from a bound.  At step m a node adds q^(sm) (1-q^m)^-k
    times its child's series, whose kept slots meet the factor through
    q^(mJ), J = (cap - sm) // m.  The coefficients of (1-x)^-k through x^J
    have absolute sum norms[J] (``_row``), so with B(leaf) = 1,
    B(node) = B(child) * sum over m of norms[J] bounds every kept slot of the
    node's series.  It also bounds every step in between: a partial product
    applies fewer units of |k|, fewer doublings or fewer row terms, whose
    absolute sums are no larger.  width is ``_width`` of the largest B of the
    pass.  Each composition's series is returned and cached as the ``QPoly``
    that ``zeta_*`` return, at den 1 and w the width of its largest
    coefficient: B is loose, by about 25 bits at order 300.  Trusted: the
    callers (``zeta_*``, ``eval_word``) check the model's domain."""
    model = MODELS[tag]
    _check_order(n)
    got = {c: _EVAL_CACHE.get((tag, c, n)) for c in comps}  # a store below may evict these
    todo = [c for c, hit in got.items() if hit is None]
    if not todo:
        return [got[comp] for comp in comps]
    depth: dict[tuple[Comp, int], int] = {}  # node -> smallest j it is used at, children first
    for comp in todo:
        shifts = [model.shift(j, k) for j, k in enumerate(comp)]
        _check_size(comp, n, shifts)
        for j in reversed(range(len(comp))):
            node = (comp[j:], shifts[j])
            depth[node] = min(depth.get(node, j), j)
    rows, plan = {}, []
    bound, slot = {(): 1}, {(): len(depth)}  # the leaf, the empty suffix: 1 in the last slot
    for node, j in depth.items():
        (suffix, s), k = node, node[0][0]
        child = (suffix[1:], model.shift(1, suffix[1])) if suffix[1:] else ()
        # only x^J, J <= n - s, of (1-x)^-k reach a kept slot: a part past the order builds no row
        row, norms = rows.get((k, s)) or rows.setdefault((k, s), _row(k, n - s))
        # J = (cap - sm) // m = top // m - c: cap is n at j = 0, else n - m - j (strict);
        # c >= 1, since a first part has shift >= 1
        top, c = (n, s) if not j else (n - j * model.strict, s + 1)
        bound[node] = bound[child] * sum(norms[top // m - c] for m in range(1, top // c + 1))
        slot[node] = len(plan)
        plan.append((len(plan), slot[child], k, s, j, j * model.strict, row))
    if model.strict:  # longer suffixes first, so a child still stops below m
        plan.reverse()
    width = _width(max(bound.values()))
    series = [0] * len(depth) + [1]
    for m in range(1, n + 1):
        for at, below, k, s, j, cut, row in plan:
            lo, cap = m * s, n - m - cut if j else n
            if lo <= cap:
                size = cap + 1 - lo
                t = _truncate(series[below], size, width)
                if t and k and m < size:  # t = 0 has a bound of 0: its row need not fit
                    t = _truncate(_times_row(t, m, k, size, width, row), size, width)
                series[at] += t << lo * width if lo else t  # a shift by 0 copies t
    for comp in todo:
        node = (comp, model.shift(0, comp[0])) if comp else ()
        t = series[slot[node]]
        own = _width(max(map(abs, _unpack(t, n + 1, width))))
        got[comp] = _EVAL_CACHE[(tag, comp, n)] = QPoly._make(n, _repack(t, n + 1, width, own), own, 1)
    return [got[comp] for comp in comps]


def _zeta(tag: str, comp: Iterable[int], order: int) -> QPoly:
    """The chain sum of comp in the model tag, through q^order: the cached value."""
    return _eval_models(tag, (MODELS[tag].check(tuple(comp)),), order)[0]


# one function per model, each also a module attribute by its own name
_ZETAS = {tag: partial(_zeta, tag) for tag in MODELS}
zeta_SZ, zeta_SZ_star, zeta_BZ, zeta_OOZ = _ZETAS.values()


def eval_word(model: str, x: Union[Word, Poly], order: int) -> QPoly:
    """Evaluate a z-decodable word (or combination) in the named model, the
    uncached terms in one shared pass.  BZ reads x0/x1 words, the other models
    p/y words; a word on the other alphabet raises ``AlphabetMismatchError``."""
    if model not in MODELS:
        raise WordError(f"unknown model {model!r}; expected one of {sorted(MODELS)}")
    x, m = as_poly(x), MODELS[model]
    if x.alphabet is not m.alphabet:
        raise AlphabetMismatchError(f"{model} reads {m.alphabet!r} words, got {x.alphabet!r}")
    series = _eval_models(model, [m.check(z_decode(w)) for w in x.terms], order)
    return _combine(order, list(zip(series, x.terms.values())))


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
    Row 0 stays 0.  Apart from the chain sum's packed kernel, so the routes
    share no code."""
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
    _check_size(comp, n, (1,) + (0,) * (len(comp) - 1), rota_baxter=True)  # h = t (1-t)^-k1
    if not comp:
        return QPoly(n, (1,))
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
    return QPoly(n, coeffs)


# ---------------------------------------------------------------------------
# float oracle
# ---------------------------------------------------------------------------

class FloatResult(NamedTuple):
    value: float
    tail_bound: float
    cutoff: int


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
    index.  Needs k1 >= 2 and kj >= 1.
    """
    comp = tuple(comp)
    if not comp:
        return FloatResult(1.0, 0.0, cutoff)
    if comp[0] < 2 or any(k < 1 for k in comp[1:]):
        raise NotInSubalgebraError(
            f"classical float oracle needs k1 >= 2 and kj >= 1, got {comp}"
        )
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
