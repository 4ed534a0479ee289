"""The named verification suites: their registry, their runner and report,
and golden-file export.

``SUITES`` maps each suite's name, in registry order, to a function
``(max_weight, order) -> Iterator[Case]``.  A suite registers once, through
``@suite(name, max_weight=..., order=...)``, with its default bounds: a bound
the caller leaves out (None) takes that default, while 0 is a bound like any
other.  Most cases come from two family helpers: ``word_cases`` (per word of a
domain, one case per check) and ``pair_cases`` (per canonical pair u <= v
whose lengths, depths and weights sum within bounds, one case per check).  A
check is a function of the operands that returns the two sides of its
identity, lhs and rhs.  A q-series suite evaluates through ``_at_order``,
which sums the words of its domain in one chain-sum pass per model before
the first value.

``run_suite`` runs a suite (or "all" of them) into a ``SuiteReport``, a case
that raises counting as a failure; ``export_vectors`` writes each case's
inputs and both computed sides as JSON lines, through ``value_json``.  Both
check the bounds, then the name, before any suite starts.

Suites reach the math layers through module attributes (``products.shuffle``,
``qseries.eval_word``, ...), never through names imported from them, so a
wrapper installed on a module attribute before a run sees every call.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from fractions import Fraction
from functools import partial
from math import inf
from operator import le
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from mzv_lab import hopf, maps, products, qseries
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    Alphabet,
    Poly,
    Word,
    WordError,
    _ZCODECS,
    add_pairs,
    as_poly,
    check_range,
    format_poly,
    format_tensor,
    format_word,
    iter_words,
    iter_zcomps,
    membership,
    poly_json,
    poly_membership,
    tensor_json,
    weight_projection,
    z_decode,
    z_encode,
    zp,
)

Composition = tuple[int, ...]
Check = Callable[..., tuple[object, object]]


class Case(NamedTuple):
    case_id: str
    inputs: dict
    run: Callable[[], tuple[object, object]]


SUITES: dict[str, Callable[[int | None, int | None], Iterator[Case]]] = {}


def suite(name: str, max_weight: int | None = None, order: int | None = None):
    """Register the decorated ``fn(max_weight, order)`` as suite ``name``,
    with these defaults for the bounds a caller leaves out."""

    def register(fn):
        SUITES[name] = lambda mw, od: fn(
            max_weight if mw is None else mw, order if od is None else od
        )
        return fn

    return register


# ---------------------------------------------------------------------------
# case families
# ---------------------------------------------------------------------------

def word_cases(
    words: Iterable[Word], checks: Mapping[str, Check], extra: Mapping = {}
) -> Iterator[Case]:
    """Per word w, one case per check: id "<tag>-<w>", inputs {"w", **extra}."""
    for w in words:
        text = format_word(w)
        inputs = {"w": text, **extra}
        for tag, check in checks.items():
            yield Case(f"{tag}-{text}", inputs, partial(check, w))


def pair_cases(
    words: Sequence[Word],
    checks: Mapping[str, Check],
    extra: Mapping = {},
    *,
    max_len: float = inf,
    max_depth: float = inf,
    max_weight: float = inf,
) -> Iterator[Case]:
    """Per pair u <= v (by position in words) whose lengths, depths and
    weights sum to at most these bounds, one case per check: id
    "<tag>-<u>-<v>", inputs {"u", "v", **extra}.  Where lengths or weights
    never fall along words, the scan for u's partners ends at the last v
    within that bound, found by bisection."""
    graded = [(w, format_word(w), len(w), w.depth, w.weight) for w in words]
    ends = [len(graded)] * len(graded)
    for col, bound in ((2, max_len), (4, max_weight)):
        column = [g[col] for g in graded]
        if bound < inf and all(map(le, column, column[1:])):
            ends = [min(e, bisect_right(column, bound - g[col])) for e, g in zip(ends, graded)]
    for i, (u, tu, lu, du, wu) in enumerate(graded):
        for v, tv, lv, dv, wv in graded[i : ends[i]]:
            if lu + lv <= max_len and du + dv <= max_depth and wu + wv <= max_weight:
                inputs = {"u": tu, "v": tv, **extra}
                for tag, check in checks.items():
                    yield Case(f"{tag}-{tu}-{tv}", inputs, partial(check, u, v))


def _at_order(order: int, prefetch: Mapping[str, list[Word]]) -> Callable[[str, object], object]:
    """``q(model, x)``: a model's value of a word or Poly, truncated at order.
    Before its first value, q evaluates the sum of each prefetch model's words
    with one ``eval_word``: one chain-sum pass visits each distinct suffix
    once, and the cases find those series cached instead of making a pass
    each.  A q-suite prefetches the h0 words within its bounds: at its
    default bounds, every word its cases evaluate; a word outside them costs
    a pass of its own.  A sum the evaluator refuses leaves each case to
    evaluate its own words."""
    todo = dict(prefetch)

    def q(model: str, x: Word | Poly) -> qseries.QPoly:
        while todo:
            tag, words = todo.popitem()
            try:
                qseries.eval_word(tag, Poly(qseries.MODELS[tag].alphabet, dict.fromkeys(words, 1)), order)
            except WordError:  # each case evaluates its own words, and fails alone
                pass
        return qseries.eval_word(model, x, order)

    return q


def _commutes(mul: Callable) -> Check:
    return lambda u, v: (mul(u, v), mul(v, u))


def _equals(expected: object, f: Callable, *args) -> tuple[object, object]:
    return f(*args), expected


def _example(case_id: str, inputs: dict, expected: object, f: Callable, *args) -> Case:
    """A worked example: f(*args) against its known value."""
    return Case(case_id, inputs, partial(_equals, expected, f, *args))


def _monoid_laws(
    words: list[Word], max_len: int, mul: Callable, tags: tuple[str, str], extra: Mapping = {}
) -> Iterator[Case]:
    """Per word u, its unit law, then associativity on each triple (u, v, w)
    of total length at most max_len."""
    texts = [format_word(w) for w in words]
    unit_tag, assoc_tag = tags
    for u, tu in zip(words, texts):
        yield Case(f"{unit_tag}-{tu}", {"u": tu, **extra}, partial(_unit_law, mul, u))
        for v, tv in zip(words, texts):
            for w, tw in zip(words, texts):
                if len(u) + len(v) + len(w) <= max_len:
                    yield Case(
                        f"{assoc_tag}-{tu}-{tv}-{tw}",
                        {"u": tu, "v": tv, "w": tw, **extra},
                        partial(_assoc_law, mul, u, v, w),
                    )


def _unit_law(mul: Callable, u: Word) -> tuple[Poly, Poly]:
    return mul(Poly.unit(u.alphabet), Poly.of(u)), Poly.of(u)


def _assoc_law(mul: Callable, u: Word, v: Word, w: Word) -> tuple[Poly, Poly]:
    return mul(mul(u, v), Poly.of(w)), mul(Poly.of(u), mul(v, w))


# ---------------------------------------------------------------------------
# word enumeration (by weight, then canonical order)
# ---------------------------------------------------------------------------

def h0_words(alphabet: Alphabet, max_weight: int, max_depth: int) -> list[Word]:
    """The words of h0 (x0/x1 words starting x0 and ending x1) or of H0 (p/y
    words starting p and ending y), plus the unit, weight ascending; depth is
    capped because trailing zero parts of p/y words are weightless."""
    least = _ZCODECS[alphabet].least
    out = [Word(alphabet)]
    for w in range(1, max_weight + 1):
        for depth in range(1, max_depth + 1):
            for comp in iter_zcomps(w, depth, least + 1, least):
                out.append(z_encode(comp, alphabet))
    return out


def words_by_length(alphabet: Alphabet, max_len: int, pred=None) -> list[Word]:
    out = []
    for n in range(0, max_len + 1):
        for w in iter_words(alphabet, n):
            if pred is None or pred(w):
                out.append(w)
    return out


def _recode(x: Word | Poly, alphabet: Alphabet) -> Poly:
    # the same z-parts, written in the z-blocks of alphabet
    return Poly(alphabet, {z_encode(z_decode(w), alphabet): c for w, c in as_poly(x).terms.items()})


# ---------------------------------------------------------------------------
# the suites, in registry order
# ---------------------------------------------------------------------------

@suite("classical-products", max_weight=4)
def _classical(mw: int, order: int | None) -> Iterator[Case]:
    z2, z22, inputs = zp((2,), H2), 2 * zp((2, 2), H2), {"u": "z{2}", "v": "z{2}"}
    yield _example("stuffle-z2-z2", inputs, z22 + zp((4,), H2), products.quasi_shuffle, z2, z2)
    yield _example("shuffle-x0x1-x0x1", inputs, z22 + 4 * zp((3, 1), H2), products.shuffle, z2, z2)
    words = words_by_length(H2, min(mw, 4), lambda w: membership(w, "h1"))
    yield from pair_cases(words, {
        "stuffle-comm": _commutes(products._quasi_word_fn(H2, 1)),
        "shuffle-comm": _commutes(products.shuffle_ordered),
    }, max_len=mw)
    small = [w for w in words if len(w) <= 3]
    tags = ("stuffle-unit", "stuffle-assoc")
    yield from _monoid_laws(small, min(mw + 2, 6), products.quasi_shuffle, tags)


@suite("thm-derivation", max_weight=8)
def _derivation(mw: int, order: int | None) -> Iterator[Case]:
    z2, expected = zp((2,), H2), 2 * zp((2, 2), H2) + zp((2, 1, 1), H2)
    inputs = {"u": "z{2}", "v": "z{2}"}
    yield _example("square-example", inputs, expected, products.square_classical, z2, z2)
    yield from word_cases(h0_words(H2, mw, mw), {
        "derivation2": lambda w: (maps.derivation(w, 2), _hoffman_ohno(w, 2)),
    })


@suite("hoffman-ohno", max_weight=8)
def _hoffman(mw: int, order: int | None) -> Iterator[Case]:
    yield from word_cases(h0_words(H2, mw, mw), {
        "derivation1": lambda w: (maps.derivation(w, 1), _hoffman_ohno(w, 1)),
        "membership": lambda w: (poly_membership(_hoffman_ohno(w, 1), "h0"), True),
    })
    # numeric spot checks on the words of depth <= 2 up to weight 5 (their
    # relations reach depth 3): the sample the export pins
    samples = [w for w in h0_words(H2, min(mw, 5), 2) if not w.is_unit]
    yield from word_cases(
        samples, {"float": lambda w: (_hoffman_float_ok(w), True)}, {"tolerance": "1e-4"}
    )


def _hoffman_ohno(w: Word, n: int) -> Poly:
    # w sh z1 - w * z1 (Hoffman) or w sq z2 - w * z2 (Hoffman-Ohno): derivation n of w,
    # so in h0, and for n = 1 in ker zeta
    zn, mul = zp((n,), H2), products.shuffle if n == 1 else products.square_classical
    return mul(w, zn) - products.quasi_shuffle(w, zn)


def _hoffman_float_ok(w: Word) -> bool:
    total = 0.0
    for term, c in _hoffman_ohno(w, 1).terms.items():
        total += float(c) * qseries.zeta_classical_float(z_decode(term), 10_000_000).value
    return abs(total) < 1e-4


def _square_vs_shuffle(lam: int, mw: int) -> Iterator[Case]:
    words = words_by_length(PY, mw - 2, lambda w: membership(w, "H0"))
    return pair_cases(words, {
        f"square-vs-shuffle-{lam}": lambda u, v: (
            products.square_lambda(u, v, lam),
            products.shuffle_lambda(u, v, lam),
        ),
    }, {"lambda": str(lam)}, max_len=mw)


@suite("thm-szdual", max_weight=8)
def _szdual(mw: int, order: int | None) -> Iterator[Case]:
    return _square_vs_shuffle(1, mw)


@suite("thm-oozdual", max_weight=8)
def _oozdual(mw: int, order: int | None) -> Iterator[Case]:
    return _square_vs_shuffle(-1, mw)


@suite("zhao-duality", max_weight=5, order=30)
def _zhao(mw: int, order: int) -> Iterator[Case]:
    words = h0_words(PY, mw, 5)
    q = _at_order(order, {"SZ": words})
    return word_cases(words, {
        "sz-tau~": lambda w: (q("SZ", maps.tau_tilde(w)), q("SZ", w)),
    }, {"order": order})


@suite("bradley-duality", max_weight=5, order=30)
def _bradley(mw: int, order: int) -> Iterator[Case]:
    words = h0_words(H2, mw, mw)
    q = _at_order(order, {"BZ": words})
    return word_cases(words, {
        "bz-tau": lambda w: (q("BZ", maps.tau(w)), q("BZ", w)),
    }, {"order": order})


@suite("ooz-szstar-duality", max_weight=5, order=30)
def _ooz_szstar(mw: int, order: int) -> Iterator[Case]:
    words = h0_words(PY, mw, 5)
    q = _at_order(order, {"OOZ": words, "SZstar": words})
    return word_cases(words, {
        "ooz-szstar": lambda w: (q("OOZ", w), q("SZstar", maps.tau_tilde(w))),
    }, {"order": order})


@suite("model-transfers", max_weight=5, order=30)
def _transfers(mw: int, order: int) -> Iterator[Case]:
    h_words, p_words = h0_words(H2, mw, mw), h0_words(PY, mw, 5)
    q = _at_order(order, {"BZ": h_words, "OOZ": p_words, "SZ": p_words})

    def ooz_bz_u(w: Word) -> tuple[object, object]:
        return qseries.zeta_OOZ(z_decode(w), order), q("BZ", maps.map_U(w))

    for w in h_words:
        inputs = {"comp": list(z_decode(w)), "order": order}
        yield Case(f"ooz-bz-U-{format_word(w)}", inputs, partial(ooz_bz_u, w))
    yield from word_cases(p_words, {
        "ooz-sz-V": lambda w: (q("OOZ", w), q("SZ", maps.map_V(w))),
    }, {"order": order})


@suite("ooz-duality-families", max_weight=5, order=30)
def _ooz_families(mw: int, order: int) -> Iterator[Case]:
    p_words = h0_words(PY, mw, 5)
    q = _at_order(order, {"OOZ": p_words})
    yield from word_cases(p_words, {
        "ooz-dual1": lambda w: (q("OOZ", maps.dual_family_1(w)), q("OOZ", w)),
    }, {"order": order})
    yield from word_cases(h0_words(H2, mw, mw), {
        "ooz-dual2": lambda w: (
            q("OOZ", _recode(maps.dual_family_2(w), PY)), q("OOZ", _recode(w, PY))
        ),
    }, {"order": order})


@suite("qseries-spot-values")
def _spot(mw: int | None, order: int | None) -> Iterator[Case]:
    # (id, evaluator, composition, its coefficients of q^0 .. q^order)
    for case_id, zeta, comp, coeffs in (
        ("sz-2", qseries.zeta_SZ, (2,), (0, 0, 1, 2, 4)),
        ("ooz-3", qseries.zeta_OOZ, (3,), (0, 1, 4, 7, 14)),
        ("ooz-1-divisors", qseries.zeta_OOZ, (1,), (0, 1, 2, 2, 3, 2, 4)),
    ):
        n = len(coeffs) - 1
        yield _example(case_id, {"comp": list(comp), "order": n}, qseries.QPoly(n, coeffs), zeta, comp, n)


@suite("characters", max_weight=5, order=30)
def _characters(mw: int, order: int) -> Iterator[Case]:
    zmax = min(5, mw)
    words = [w for w in h0_words(PY, mw, 4) if not w.is_unit and w.depth <= zmax - 1]
    # each term of a product of u and v has their weight and at most their depth
    values = h0_words(PY, mw, zmax)
    q = _at_order(order, {"SZ": values, "SZstar": values, "OOZ": values})

    def character(model: str, mul: Callable) -> Check:
        # the model's value of a product is the product of the two values
        return lambda u, v: (q(model, mul(u, v)), q(model, u) * q(model, v))

    return pair_cases(words, {
        "sz-stuffle": character("SZ", lambda u, v: products.quasi_shuffle_lambda(u, v, 1)),
        "sz-shuffle": character("SZ", lambda u, v: products.shuffle_lambda(u, v, 1)),
        "sz-double-shuffle": lambda u, v: (
            q(
                "SZ", products.shuffle_lambda(u, v, 1) - products.quasi_shuffle_lambda(u, v, 1)
            ).is_zero(),
            True,
        ),
        "szstar-stuffle": character("SZstar", lambda u, v: products.quasi_shuffle_lambda(u, v, -1)),
        "ooz-stuffle": character("OOZ", lambda u, v: products.ooz_quasi_shuffle(u, v)),
        "ooz-shuffle": character("OOZ", lambda u, v: products.shuffle_lambda(u, v, -1)),
    }, {"order": order}, max_depth=zmax, max_weight=mw)


@suite("ihara-s", max_weight=6)
def _ihara(mw: int, order: int | None) -> Iterator[Case]:
    words = h0_words(PY, mw, min(mw, 6))
    yield _example("s-z2z1", {"w": "ppypy"}, zp((2, 1)) + zp((3,)), maps.ihara_S, zp((2, 1)))
    expected = zp((1, 1, 1)) + zp((1, 2)) + zp((2, 1)) + zp((3,))
    yield _example("s-z1z1z1", {"w": "pypypy"}, expected, maps.ihara_S, zp((1, 1, 1)))
    yield from word_cases(words, {
        "s-roundtrip": lambda w: (maps.ihara_S(maps.ihara_S_inv(w)), Poly.of(w)),
        "s-roundtrip-rev": lambda w: (maps.ihara_S_inv(maps.ihara_S(w)), Poly.of(w)),
    })

    def square(lam: int) -> Check:
        # a side of the square: the lam-shuffle is the lam-square, the tau~-conjugate lam-stuffle
        return lambda u, v: (products.shuffle_lambda(u, v, lam), products.square_lambda(u, v, lam))

    yield from pair_cases([w for w in words if not w.is_unit], {
        "s-homomorphism": lambda u, v: (
            maps.ihara_S(products.quasi_shuffle_lambda(u, v, -1)),
            products.quasi_shuffle_lambda(maps.ihara_S(u), maps.ihara_S(v), 1),
        ),
        "square-top": square(-1),
        "square-bottom": square(1),
    }, max_depth=min(mw, 6), max_weight=mw)


@suite("pdy-shuffle", max_weight=6)
def _pdy(mw: int, order: int | None) -> Iterator[Case]:
    d = Poly.of(Word(PDY, ("d",)))
    for lam in (1, -1, 2):
        for v, expected in (("d", d.scale(Fraction(-1, lam))), ("p", d.scale(-lam))):
            inputs, args = {"u": "d", "v": v, "lambda": str(lam)}, (d, Word(PDY, (v,)), lam)
            yield _example(f"d{v}-{lam}", inputs, expected, products.shuffle_lambda, *args)
    words = words_by_length(PDY, min(mw - 1, 4))
    short = [w for w in words if len(w) <= 2]
    for lam in (1, -1, 2):
        extra = {"lambda": str(lam)}
        ordered = partial(products.shuffle_lambda_ordered, lam=Fraction(lam))
        yield from pair_cases(words, {f"comm-{lam}": _commutes(ordered)}, extra, max_len=mw)
        shuffle = partial(products.shuffle_lambda, lam=lam)
        yield from _monoid_laws(short, mw, shuffle, (f"unit-{lam}", f"assoc-{lam}"), extra)


@suite("infinitesimal", max_weight=7)
def _infinitesimal(mw: int, order: int | None) -> Iterator[Case]:
    py, one = Word(PY, ("p", "y")), Word(PY)
    expected = hopf.Tensor2(PY, {(py, one): 1, (one, py): 1})
    yield _example("d-py", {"w": "py"}, expected, hopf.infinitesimal_coproduct, Poly.of(py))
    pdy_words = words_by_length(PDY, min(mw - 2, 5))
    yield from word_cases([w for w in pdy_words if len(w) >= 2], {
        "split-independent": lambda w: (
            all(
                hopf.infinitesimal_coproduct_at(w, i) == hopf.infinitesimal_coproduct(Poly.of(w))
                for i in range(1, len(w))
            ),
            True,
        ),
    })
    yield from word_cases(pdy_words, {
        "coassoc": lambda w: (_coassoc_holds(hopf.infinitesimal_coproduct, Poly.of(w)), True),
    })

    def bialgebra(lam: int) -> Check:
        shuffle = partial(products.shuffle_lambda, lam=lam)
        return lambda u, v: (
            hopf.infinitesimal_coproduct(shuffle(u, v)),
            hopf.infinitesimal_coproduct(Poly.of(u)).mul_with(
                hopf.infinitesimal_coproduct(Poly.of(v)), shuffle
            ),
        )

    short = [w for w in pdy_words if len(w) <= 2]
    for lam in (1, -1, 2):
        checks = {f"bialgebra-{lam}": bialgebra(lam)}
        yield from pair_cases(short, checks, {"lambda": str(lam)}, max_len=4)
    h0 = words_by_length(PY, mw, lambda w: membership(w, "H0"))
    yield from word_cases(h0, {
        "square-op-vs-infinitesimal": lambda w: (
            hopf.coproduct_square_op(Poly.of(w)),
            hopf.infinitesimal_coproduct(Poly.of(w)),
        ),
    })
    inputs = {"space": "H0", "side": "right", "max_len": mw}
    args = (partial(membership, space="H0"), hopf.coproduct_square_op, "right", h0)
    yield _example("right-coideal", inputs, True, hopf.coideal_check, *args)


def _coassoc_holds(coproduct, x: Poly) -> bool:
    left: dict = {}
    right: dict = {}
    for (a, b), c in coproduct(x).terms.items():
        add_pairs(left, (((*k, b), c2) for k, c2 in coproduct(Poly.of(a)).terms.items()), c)
        add_pairs(right, (((a, *k), c2) for k, c2 in coproduct(Poly.of(b)).terms.items()), c)
    return left == right


@suite("ooz-explicit-vs-recursive", max_weight=6)
def _ooz_explicit(mw: int, order: int | None) -> Iterator[Case]:
    words = [w for w in h0_words(PY, mw, mw - 1) if not w.is_unit]
    return pair_cases(words, {
        "explicit": lambda u, v: (products.ooz_explicit(u, v), products.ooz_quasi_shuffle(u, v)),
    }, max_depth=mw, max_weight=mw)


@suite("star-shuffle", max_weight=8)
def _star(mw: int, order: int | None) -> Iterator[Case]:
    x0 = Word(H2, ("x0",))
    x1 = Word(H2, ("x1",))
    for v, expected in (
        (x1, 2 * Poly.of(x1 * x1) - 2 * Poly.of(x0 * x1)),
        (x0, Poly.of(x1 * x0) + Poly.of(x0 * x1) - Poly.of(x0 * x0) - Poly.of(x1 * x1)),
    ):
        inputs = {"u": "x1", "v": str(v)}
        yield _example(f"star-x1-{v}", inputs, expected, products.shuffle_star, Poly.of(x1), Poly.of(v))
    words = [w for w in words_by_length(H2, mw - 1) if not w.is_unit]
    yield from pair_cases(words, {
        "alt": lambda u, v: (products.shuffle_star_alt(u, v), products.shuffle_star(u, v)),
    }, max_len=mw)


@suite("thm-szsdual", max_weight=6)
def _szsdual(mw: int, order: int | None) -> Iterator[Case]:
    def block_top(u: Word, v: Word) -> tuple[Poly, Poly]:
        # the top-weight block of the OOZ square is the star-shuffle, read in x0/x1
        return (
            _recode(weight_projection(products.ooz_square(u, v), u.weight + v.weight), H2),
            products.shuffle_star(_recode(u, H2), _recode(v, H2)),
        )

    py = z_encode((1,), PY)
    yield Case("worked-top", {"u": "py", "v": "py"}, partial(block_top, py, py))
    words = [w for w in h0_words(PY, mw, mw) if not w.is_unit and all(k >= 1 for k in z_decode(w))]
    yield from pair_cases(words, {"block-top": block_top}, max_depth=mw, max_weight=mw)


@suite("hopf-axioms", max_weight=6)
def _hopf(mw: int, order: int | None) -> Iterator[Case]:
    py_words = words_by_length(PY, mw, lambda w: membership(w, "H1"))
    pm1_words = words_by_length(PY, mw, lambda w: membership(w, "Hm1"))
    h2m1_words = words_by_length(H2, mw, lambda w: membership(w, "hm1"))
    structures: list[tuple[str, hopf.HopfStructure, list[Word]]] = []
    for lam in (1, -1):
        tilde = hopf.transfer_hopf(hopf.base_hopf(PY, lam), maps.tau_tilde, maps.tau_tilde)
        structures.append((f"base-lam{lam}", hopf.base_hopf(PY, lam), py_words))
        structures.append((f"tau~-transfer-lam{lam}", tilde, pm1_words))
    tau = hopf.transfer_hopf(hopf.base_hopf(H2, 1), maps.tau, maps.tau)
    structures.append(("tau-transfer", tau, h2m1_words))
    laws = {
        "counit": lambda H, w: (_counit_laws(H, w), True),
        "coassoc": lambda H, w: (_coassoc_holds(H.coproduct, Poly.of(w)), True),
        "antipode": lambda H, w: (_antipode_laws(H, w), True),
    }
    for tag, H, domain in structures:
        for w in domain:
            text = format_word(w)
            inputs = {"structure": tag, "w": text}
            for law, check in laws.items():
                yield Case(f"{law}-{tag}-{text}", inputs, partial(check, H, w))


def _counit_laws(H: hopf.HopfStructure, w: Word) -> bool:
    left: dict = {}
    right: dict = {}
    pairs = H.coproduct(Poly.of(w)).terms.items()
    add_pairs(left, ((b, c * H.counit(Poly.of(a))) for (a, b), c in pairs))
    add_pairs(right, ((a, c * H.counit(Poly.of(b))) for (a, b), c in pairs))
    return left == right == {w: 1}


def _antipode_laws(H: hopf.HopfStructure, w: Word) -> bool:
    x = Poly.of(w)
    left: dict = {}
    right: dict = {}
    for (a, b), c in H.coproduct(x).terms.items():
        add_pairs(left, H.product(H.antipode(Poly.of(a)), Poly.of(b)).terms.items(), c)
        add_pairs(right, H.product(Poly.of(a), H.antipode(Poly.of(b))).terms.items(), c)
    target = H.unit_elem.scale(H.counit(x)).terms
    return left == right == target


@suite("rota-baxter", max_weight=5, order=15)
def _rota(mw: int, order: int) -> Iterator[Case]:
    def both_routes(comp: Composition) -> tuple[object, object]:
        return qseries.rota_baxter_eval_OOZ(comp, order), qseries.zeta_OOZ(comp, order)

    comps: list[Composition] = [()]
    for w in range(1, mw + 1):
        for depth in range(1, min(w + 1, 6)):
            comps.extend(iter_zcomps(w, depth, 1, 0))
    for comp in comps:
        yield Case(
            f"rb-{'-'.join(map(str, comp)) or 'unit'}",
            {"comp": list(comp), "order": order},
            partial(both_routes, comp),
        )


@suite("float-oracle")
def _float(mw: int | None, order: int | None) -> Iterator[Case]:
    yield Case(
        "zeta-2",
        {"comp": [2], "reference": "1.644934", "tolerance": "1e-5"},
        lambda: (abs(qseries.zeta_classical_float((2,), 1_000_000).value - 1.644934) < 1e-5, True),
    )

    def within(c1: Composition, c2: Composition) -> tuple[bool, bool]:
        r1 = qseries.zeta_classical_float(c1, 1_000_000)
        r2 = qseries.zeta_classical_float(c2, 1_000_000)
        return abs(r1.value - r2.value) <= r1.tail_bound + r2.tail_bound, True

    for lhs, rhs in (((2, 1), (3,)), ((2, 1, 1), (4,))):
        case_id = f"zeta-{''.join(map(str, lhs))}-vs-{''.join(map(str, rhs))}"
        yield Case(case_id, {"lhs": list(lhs), "rhs": list(rhs)}, partial(within, lhs, rhs))


# ---------------------------------------------------------------------------
# running, reporting and export
# ---------------------------------------------------------------------------

class Failure(NamedTuple):
    case_id: str
    inputs: dict
    lhs: str
    rhs: str


class SuiteReport(NamedTuple):
    suite: str
    cases: int
    failures: list[Failure]
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        failures = [dict(zip(("case", "inputs", "lhs", "rhs"), f)) for f in self.failures]
        return {**self._asdict(), "failures": failures}

    def text(self) -> str:
        status = "ok" if self.passed else "FAILED"
        out = (
            f"suite {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {self.wall_time:.2f}s [{status}]"
        )
        for f in self.failures:
            out += f"\n  {f.case_id}: inputs={f.inputs}\n    lhs = {f.lhs}\n    rhs = {f.rhs}"
        return out


def value_json(x: object) -> str:
    if isinstance(x, Poly):
        return poly_json(x)
    if isinstance(x, hopf.Tensor2):
        return tensor_json(x)
    if isinstance(x, qseries.QPoly):
        return json.dumps({"type": "qseries", **x.to_json()})
    return json.dumps(x if isinstance(x, bool) else str(x))


def value_text(x: object) -> str:
    if isinstance(x, Poly):
        return format_poly(x)
    if isinstance(x, hopf.Tensor2):
        return format_tensor(x)
    return str(x)


# the largest --max-weight: the largest at which every suite builds its cases within 1 s and
# 100 MB.  ooz-explicit-vs-recursive builds 85 120 in 0.7 s and 72 MB at 9, 369 638 in 4.2 s
# and 260 MB at 10, and at 11 exhausts a 1 GB address space (2 cores, Python 3.11)
MAX_WEIGHT = 9


def _suite_cases(
    name: str, max_weight: int | None, order: int | None, others: str = ""
) -> list[Case]:
    """The cases of the suite registered as name.  A bound below 0 or above
    its ceiling (``MAX_WEIGHT``, ``qseries.MAX_ORDER``), then an unknown name,
    is a usage error; the latter lists the registered suites, then others:
    the text naming what else the caller accepts."""
    bounds = (("--max-weight", max_weight, MAX_WEIGHT), ("--order", order, qseries.MAX_ORDER))
    for flag, value, ceiling in bounds:
        if value is not None:
            check_range(flag, value, 0, ceiling)
    if name not in SUITES:
        raise WordError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}{others}")
    # max_weight 0 means "enumerate nothing" (header-only exports)
    if max_weight == 0:
        return []
    return list(SUITES[name](max_weight, order))


def _failure(case: Case) -> Failure | None:
    try:
        lhs, rhs = case.run()
        if lhs == rhs:
            return None
        lhs, rhs = value_text(lhs), value_text(rhs)
    except Exception as exc:  # the case fails alone; the other cases still run
        lhs, rhs = f"raised {type(exc).__name__}: {exc}", "not evaluated"
    return Failure(case.case_id, case.inputs, lhs, rhs)


def run_suite(name: str, max_weight: int | None = None, order: int | None = None) -> SuiteReport:
    """Run a named verification suite; bounds default to the values the
    acceptance criteria prescribe.  "all" runs every suite, in registry order,
    and names each failure "<suite>/<case>"."""
    start = time.perf_counter()
    if name == "all":
        reports = [run_suite(sub, max_weight, order) for sub in SUITES]
        cases = sum(r.cases for r in reports)
        failures = [
            f._replace(case_id=f"{r.suite}/{f.case_id}") for r in reports for f in r.failures
        ]
    else:
        run = _suite_cases(name, max_weight, order, " or 'all'")
        cases = len(run)
        failures = [f for f in map(_failure, run) if f]
    return SuiteReport(name, cases, failures, time.perf_counter() - start)


def export_vectors(
    suite: str, path: str, max_weight: int | None = None, order: int | None = None
) -> int:
    """Write one JSON line per case (inputs plus both computed sides) after a
    header line; returns the number of cases written."""
    cases = _suite_cases(suite, max_weight, order)
    header = {"suite": suite, "max_weight": max_weight, "order": order, "cases": len(cases)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for case in cases:
            lhs, rhs = case.run()
            head = json.dumps({"case": case.case_id, "inputs": case.inputs})[:-1]
            fh.write(f'{head}, "lhs": {value_json(lhs)}, "rhs": {value_json(rhs)}}}\n')
    return len(cases)
