"""q-series models against a naive chain-enumeration oracle, plus the
Rota-Baxter route and the floating-point classical evaluator.

The oracle below expands every summand factor by schoolbook polynomial
arithmetic and walks the index chains explicitly; it shares no code with the
suffix-cached evaluators in mzv_lab.qseries.
"""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab import qseries
from mzv_lab.qseries import (
    QPoly,
    eval_word,
    limit_scaling_check,
    rota_baxter_eval_OOZ,
    zeta_BZ,
    zeta_OOZ,
    zeta_SZ,
    zeta_SZ_star,
    zeta_classical_float,
)
from mzv_lab.words import H2, PY, NotInSubalgebraError, Poly, Word, WordError, z_encode


# -- naive oracle --------------------------------------------------------------

def _mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(0, n - i + 1):
                if b[j]:
                    out[i + j] += x * b[j]
    return out


def _factor(tag, pos, m, k, n):
    # numerator shift
    if tag in ("SZ", "SZstar"):
        shift = m * k
    elif tag == "BZ":
        shift = (k - 1) * m
    else:  # OOZ
        shift = m if pos == 0 else 0
    if shift > n:
        return [0] * (n + 1)
    out = [0] * (n + 1)
    out[shift] = 1
    if k >= 0:
        geom = [1 if j % m == 0 else 0 for j in range(n + 1)]
        for _ in range(k):
            out = _mul(out, geom, n)
    else:
        binom = [0] * (n + 1)
        binom[0] = 1
        if m <= n:
            binom[m] = -1
        for _ in range(-k):
            out = _mul(out, binom, n)
    return out


def brute_model(tag, comp, n):
    strict = tag != "SZstar"
    total = [0] * (n + 1)

    def rec(pos, upper, acc):
        if pos == len(comp):
            for i, c in enumerate(acc):
                total[i] += c
            return
        top = upper - 1 if (strict and pos > 0) else upper
        for m in range(1, top + 1):
            nxt = _mul(acc, _factor(tag, pos, m, comp[pos], n), n)
            if any(nxt):
                rec(pos + 1, m, nxt)

    if comp:
        rec(0, n, [1] + [0] * n)
    else:
        total[0] = 1
    return total


GRID = [
    (2,),
    (3,),
    (1,),
    (1, 1),
    (2, 1),
    (1, 0),
    (2, 0, 1),
    (3, 2),
    (2, 1, 1),
    (1, 0, 0),
]


@pytest.mark.parametrize("tag", ["SZ", "SZstar", "OOZ"])
@pytest.mark.parametrize("comp", GRID)
def test_models_match_naive_chains(tag, comp):
    n = 12
    got = {"SZ": zeta_SZ, "SZstar": zeta_SZ_star, "OOZ": zeta_OOZ}[tag](comp, n)
    assert [int(c) for c in got.coeffs] == brute_model(tag, comp, n)


@pytest.mark.parametrize("comp", [(2,), (3,), (2, 1), (4, 2), (2, 1, 1)])
def test_bz_matches_naive_chains(comp):
    n = 12
    assert [int(c) for c in zeta_BZ(comp, n).coeffs] == brute_model("BZ", comp, n)


@pytest.mark.parametrize("comp", [(2, -1), (1, -2), (3, 0, -1), (2, -1, 1)])
def test_ooz_negative_inner_parts_match_naive_chains(comp):
    n = 12
    assert [int(c) for c in zeta_OOZ(comp, n).coeffs] == brute_model("OOZ", comp, n)


ooz_comps = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.lists(st.integers(min_value=-2, max_value=3), max_size=2),
).map(lambda t: (t[0],) + tuple(t[1]))


@given(ooz_comps)
@settings(max_examples=30, deadline=None)
def test_rota_baxter_agrees_with_chain_evaluator(comp):
    assert rota_baxter_eval_OOZ(comp, 10) == zeta_OOZ(comp, 10)


# -- pinned expansions -----------------------------------------------------------

def test_pinned_series():
    assert str(zeta_SZ((2,), 4)) == "q^2 + 2q^3 + 4q^4"
    assert str(zeta_OOZ((3,), 4)) == "q + 4q^2 + 7q^3 + 14q^4"
    assert [int(c) for c in zeta_OOZ((1,), 6).coeffs] == [0, 1, 2, 2, 3, 2, 4]


def test_model_domain_errors():
    with pytest.raises(NotInSubalgebraError):
        zeta_SZ((0, 2), 5)  # leading part must be >= 1
    with pytest.raises(NotInSubalgebraError):
        zeta_SZ((2, -1), 5)  # SZ inner parts are >= 0
    with pytest.raises(NotInSubalgebraError):
        zeta_BZ((1,), 5)  # BZ needs leading part >= 2
    with pytest.raises(NotInSubalgebraError):
        zeta_OOZ((-1,), 5)
    zeta_OOZ((2, -1), 5)  # inner parts of OOZ may be any integer


def test_eval_word_is_linear_and_checks_domain():
    x = 2 * Poly.of(z_encode((2,), PY)) - Poly.of(z_encode((1, 1), PY))
    got = eval_word("SZ", x, 10)
    want = zeta_SZ((2,), 10).scale(2) - zeta_SZ((1, 1), 10)
    assert got == want
    assert eval_word("BZ", z_encode((2,), H2), 8) == zeta_BZ((2,), 8)
    with pytest.raises(NotInSubalgebraError):
        eval_word("BZ", z_encode((1,), H2), 8)
    with pytest.raises(WordError):
        eval_word("nope", z_encode((2,), PY), 8)


# -- QPoly ------------------------------------------------------------------------

def test_qpoly_arithmetic_truncates():
    a = QPoly(3, (0, 1, 0, 0))
    b = QPoly(3, (1, 0, 2, 0))
    assert (a * b).coeffs == (0, 1, 0, 2)
    assert (a + b).coeffs == (1, 1, 2, 0)
    assert (a - a).is_zero()
    assert (2 * a).coeffs == (0, 2, 0, 0)


def test_qpoly_keeps_ints_until_a_rational_enters():
    a, b = zeta_SZ((2, 1), 12), eval_word("OOZ", Poly.of(z_encode((2, 0), PY), 3), 12)
    ints = [a, b, a + b, a - b, a * b, a.scale(-2), 3 * a]
    assert all(type(c) is int for x in ints for c in x.coeffs)
    half = a.scale(Fraction(1, 2))
    rationals = [half, half + b, half - b, half * b, a.scale(0.5), QPoly(2, (0.25,))]
    assert all(type(c) in (int, Fraction) for x in rationals for c in x.coeffs)
    assert half * b == (a * b).scale(Fraction(1, 2)) and a.scale(0.5) == half
    assert QPoly(3, (3, -1)) == QPoly(3, (Fraction(3), Fraction(-1)))


def test_qpoly_eq_compares_common_order():
    assert QPoly(2, (0, 1, 1)) == QPoly(5, (0, 1, 1, 9, 9, 9))
    assert QPoly(2, (0, 1, 1)) != QPoly(5, (0, 1, 2, 9, 9, 9))


def test_qpoly_str_and_json():
    assert str(QPoly(3, (0, 0, 0, 0))) == "0"
    assert str(QPoly(2, (1, -1, Fraction(1, 2)))) == "1 - q + 1/2*q^2"
    j = QPoly(2, (0, Fraction(1, 3), 2)).to_json()
    assert j == {"order": 2, "coeffs": ["0", "1/3", "2"]}


def test_qpoly_rejects_bad_order():
    with pytest.raises(WordError):
        QPoly(-1, ())


# -- float oracle -------------------------------------------------------------------

def test_float_zeta2_against_pi():
    r = zeta_classical_float((2,), 1_000_000)
    assert abs(r.value - math.pi**2 / 6) <= r.tail_bound + 1e-9
    assert r.cutoff == 1_000_000


def test_float_zeta3():
    r = zeta_classical_float((3,))
    assert abs(r.value - 1.2020569031595943) <= r.tail_bound + 1e-9


def test_float_stuffle_relation_within_bounds():
    a = zeta_classical_float((2, 1))
    b = zeta_classical_float((3,))
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


def test_float_domain():
    with pytest.raises(WordError):
        zeta_classical_float((1,))  # divergent
    with pytest.raises(WordError):
        zeta_classical_float((2, 0))
    with pytest.raises(WordError):
        zeta_classical_float((2, 1, 1, 1, 1))  # depth cap


def test_float_json_schema_has_error_bound():
    j = zeta_classical_float((2,), 100_000).to_json()
    assert set(j) >= {"value", "tail_bound", "cutoff"}
    assert isinstance(j["value"], float)


# -- scaling diagnostics ---------------------------------------------------------------

def test_limit_scaling_errors_shrink_toward_q_1():
    for tag, comp in [("SZ", (2,)), ("BZ", (3,)), ("OOZ", (2, 1))]:
        rep = limit_scaling_check(tag, comp)
        errs = list(rep.errors)
        assert len(errs) == 3
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.1


def test_limit_scaling_rejects_szstar():
    with pytest.raises(WordError):
        limit_scaling_check("SZstar", (2,))


def test_clear_caches_runs():
    qseries.clear_caches()
    assert str(zeta_SZ((2,), 4)) == "q^2 + 2q^3 + 4q^4"


# -- Hoelder-convolution oracle: known values, a plain nested sum, no numpy -------------

_PI = Decimal("3.14159265358979323846264338327950288419716939937510")
_ZETA3 = Decimal("1.20205690315959428539973816151144999076498629234049")


def _known_values():
    with localcontext() as ctx:
        ctx.prec = 45
        return [
            ((2,), _PI**2 / 6),
            ((3,), _ZETA3),
            ((2, 1), _ZETA3),
            ((4,), _PI**4 / 90),
            ((2, 1, 1), _PI**4 / 90),
            ((3, 1), _PI**4 / 360),
            ((2, 2), _PI**4 / 120),
        ]


@pytest.mark.parametrize("comp, exact", _known_values())
def test_float_known_values_within_proven_bound(comp, exact):
    r = zeta_classical_float(comp)
    with localcontext() as ctx:
        ctx.prec = 45
        assert abs(Decimal(r.value) - exact) <= Decimal(r.tail_bound) <= Decimal("1e-12")


def _nested_sum(comp, cutoff=2000):
    """Sum over chains cutoff >= m_1 > ... > m_n >= 1 of 1/prod m_j^k_j, and a
    bound on the chains left out (m_1 > cutoff).

    The inner sum below m is at most (1 + ln m)^(n-1), and
    x^-k1 (1 + ln x)^(n-1) decreases past the cutoff, so the tail is at most
    I_(n-1), where I_0 = M^(1-k1)/(k1-1) and, integrating by parts,
    I_j = (1 + ln M)^j M^(1-k1)/(k1-1) + j/(k1-1) I_(j-1).
    """
    ms = range(1, cutoff + 1)
    t = [m ** -comp[-1] for m in ms]
    for k in comp[-2::-1]:
        below, acc = [], 0.0
        for x in t:
            below.append(acc)
            acc += x
        t = [b * m**-k for b, m in zip(below, ms)]
    k1 = comp[0]
    base = cutoff ** (1 - k1) / (k1 - 1)
    tail = base
    for j in range(1, len(comp)):
        tail = (1 + math.log(cutoff)) ** j * base + j / (k1 - 1) * tail
    return sum(t), tail


@pytest.mark.parametrize(
    "comp", [(2,), (3,), (5,), (2, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (3, 1, 2, 1)]
)
def test_float_agrees_with_plain_nested_sum(comp):
    r = zeta_classical_float(comp)
    partial, tail = _nested_sum(comp)
    # the truncated sum undershoots by at most its tail; 1e-12 covers its float rounding
    assert -1e-12 <= r.value - partial <= tail + 1e-12


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, mzv_lab.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
