"""q-series models against a naive chain-enumeration oracle, plus the
Rota-Baxter route and the floating-point classical evaluator.

The oracle below expands every summand factor by schoolbook polynomial
arithmetic and walks the index chains explicitly; it shares no code with the
streaming chain-sum evaluator in mzv_lab.qseries.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab import maps, qseries
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
from mzv_lab.suites import h0_words
from mzv_lab.words import (
    H2,
    PY,
    AlphabetMismatchError,
    NotInSubalgebraError,
    Poly,
    WordError,
    signed_sum,
    z_encode,
)


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


@st.composite
def model_comps(draw):
    tag = draw(st.sampled_from(["SZ", "SZstar", "BZ", "OOZ"]))
    first, rest = {"SZ": (1, 0), "SZstar": (1, 0), "BZ": (2, 1), "OOZ": (1, -2)}[tag]
    head = draw(st.integers(min_value=first, max_value=first + 2))
    tail = draw(st.lists(st.integers(min_value=rest, max_value=3), max_size=2))
    return tag, (head, *tail), draw(st.integers(min_value=0, max_value=20))


@given(model_comps())
@settings(max_examples=60, deadline=None)
def test_every_model_matches_naive_chains(case):
    tag, comp, n = case
    qseries.clear_caches()
    assert list(qseries._ZETAS[tag](comp, n).coeffs) == brute_model(tag, comp, n)


# -- high orders: both stride paths of the chain sum ------------------------------

def test_ooz_zeta1_counts_divisors_through_q300():
    divisors = [0] + [sum(1 for d in range(1, k + 1) if k % d == 0) for k in range(1, 301)]
    assert list(zeta_OOZ((1,), 300).coeffs) == divisors


@pytest.mark.parametrize("comp", [(2, 1, 1), (1, 2, 1), (1, 1, 2, 1), (2, 1, 1, 1)])
def test_dualities_hold_at_high_order(comp):
    w = z_encode(comp, PY)
    n = 120
    assert eval_word("SZ", maps.tau_tilde(w), n) == eval_word("SZ", w, n)  # Zhao
    assert eval_word("OOZ", w, n) == eval_word("SZstar", maps.tau_tilde(w), n)
    x = z_encode((comp[0] + 1,) + comp[1:], H2)
    assert eval_word("BZ", maps.tau(x), n + 1) == eval_word("BZ", x, n + 1)  # Bradley


@pytest.mark.parametrize("comp", [(1,), (3, 1), (2, -1, 2), (1, 0, -2, 1), (2, 2, -1)])
def test_rota_baxter_agrees_with_chain_evaluator_at_order_60(comp):
    assert rota_baxter_eval_OOZ(comp, 60) == zeta_OOZ(comp, 60)


@pytest.mark.parametrize("comp", [(2, 1, -1, 1), (1, 0, -2, 1)])
def test_rota_baxter_agrees_with_chain_evaluator_at_order_1000(comp):
    assert rota_baxter_eval_OOZ(comp, 1000) == zeta_OOZ(comp, 1000)


# -- parts past the order: the binomial rows of the chain sum --------------------

@pytest.mark.parametrize(
    "comp, order, head",
    [
        # q (1-q)^-k + q^2 + q^3 through q^3, k = 200000
        ("(200000)", "3", "q + 200001q^2 + 20000100001q^3\n"),
        ("(1,-200000)", "300", "q^2 - 199998q^3 + 19999700004q^4 - 1333293334099996q^5 + "),
    ],
    ids=["200000-order-3", "1,-200000-order-300"],
)
def test_qeval_of_a_huge_part_answers_within_10_s(comp, order, head):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["-m", "mzv_lab.cli", "qeval", "--model", "OOZ", "--comp", comp, "--order", order]
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=10)
    assert out.returncode == 0 and out.stderr == "" and out.stdout.startswith(head)


def test_a_huge_negative_part_matches_the_rota_baxter_route():
    assert zeta_OOZ((1, -200000), 6) == rota_baxter_eval_OOZ((1, -200000), 6)


def test_rota_baxter_route_of_a_huge_part_answers_within_10_s():
    # the binomial row along t: one pass per part, not |k| sweeps
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["-m", "mzv_lab.cli", "qeval", "--model", "OOZ", "--comp", "(1,-200000)", "--order", "300"]
    outs = [
        subprocess.run([sys.executable, *argv, *route], env=env, capture_output=True, text=True, timeout=10)
        for route in (["--evaluator", "rota-baxter"], [])
    ]
    assert [(o.returncode, o.stderr) for o in outs] == [(0, ""), (0, "")]
    assert outs[0].stdout == outs[1].stdout
    assert outs[0].stdout.startswith("q^2 - 199998q^3 + 19999700004q^4 - ")


# -- the size ceiling: coefficient digits and estimated work ----------------------

_ZETA = {"SZ": zeta_SZ, "SZstar": zeta_SZ_star, "BZ": zeta_BZ, "OOZ": zeta_OOZ}


@given(
    st.sampled_from(sorted(_ZETA)),
    st.lists(st.integers(min_value=-40, max_value=60), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_digit_bound_is_never_below_the_answers_digits(tag, comp, n):
    model = qseries.MODELS[tag]
    comp = (max(comp[0], model.first_min),) + tuple(
        k if model.rest_min is None else max(k, model.rest_min) for k in comp[1:]
    )
    qseries.clear_caches()
    got = _ZETA[tag](comp, n)
    digits = max(len(str(abs(c))) for c in got.coeffs)
    routes = [_ZETA[tag]] + [rota_baxter_eval_OOZ] * (tag == "OOZ")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "get_int_max_str_digits", lambda: digits - 1)  # each route must refuse
        for route in routes if digits > 1 else ():
            qseries.clear_caches()
            with pytest.raises(WordError, match=rf"^coefficients may reach \d+ digits at order {n}, past str\(\)'s limit of {digits - 1}$"):
                route(comp, n)
        mp.setattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no digit limit
        for route in routes:
            qseries.clear_caches()
            assert route(comp, n) == got


def test_both_routes_share_the_work_ceiling(monkeypatch):
    for route in (zeta_OOZ, rota_baxter_eval_OOZ):
        monkeypatch.setattr(qseries, "MAX_WORK", 0)
        qseries.clear_caches()
        with pytest.raises(WordError, match=r"^estimated work \S+ at order 50 passes the limit of 0\.0e\+00$") as exc:
            route((2, 1, -1), 50)
        work = float(str(exc.value).split()[2])
        monkeypatch.setattr(qseries, "MAX_WORK", work * 0.9)
        with pytest.raises(WordError, match=r"^estimated work "):
            route((2, 1, -1), 50)
        monkeypatch.setattr(qseries, "MAX_WORK", work * 1.1)
        assert list(route((2, 1, -1), 50).coeffs) == brute_model("OOZ", (2, 1, -1), 50)


_TEN_149, _TEN_150, _TEN_400 = (f"(1{'0' * e})" for e in (149, 150, 400))


def _qeval(*args):
    # a whole process under a 1 GB address-space cap, killed after 10 s
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "mzv_lab.cli", "qeval", *args]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=10, preexec_fn=_cap_memory)


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1_000_000 * 1024, 1_000_000 * 1024))


def _short_id(value):
    # 10^e for a huge part, and the outcome for an error text
    if str(value).startswith("(10000"):
        return f"10^{value.count('0')}"
    return "refused" if str(value).startswith(("coefficients", "estimated")) else value or "answered"


@pytest.mark.parametrize("model, comp", [("SZ", _TEN_400), ("BZ", _TEN_400), ("SZ", "(1,6000)")], ids=_short_id)
def test_qeval_of_a_part_past_the_order_answers_0_within_10_s(model, comp):
    # a factor q^(sm) (1-q^m)^-k whose shift s passes the order reaches no q^i,
    # i <= n: the answer is 0 however large k is, neither ceiling applies, and
    # no binomial row of k is built
    out = _qeval("--model", model, "--comp", comp, "--order", "4000")
    assert (out.returncode, out.stdout, out.stderr) == (0, "0\n", "")


@pytest.mark.parametrize(
    "evaluator, comp, order, err",
    [
        (evaluator, comp, order, err)
        for evaluator in ("chain", "rota-baxter")
        for comp, order, err in [
            (_TEN_149, "30", ""),
            (_TEN_150, "30", "coefficients may reach 4322 digits at order 30, past str()'s limit of 4300"),
            (_TEN_400, "30", "coefficients may reach 11572 digits at order 30, past str()'s limit of 4300"),
        ]
    ]
    + [
        ("chain", "(400)", "2000", ""),
        ("chain", "(6000)", "4000", "estimated work 3.0e+11 at order 4000 passes the limit of 3.5e+10"),
        ("chain", "(20000)", "4000", "coefficients may reach 4853 digits at order 4000, past str()'s limit of 4300"),
        ("chain", "(200000)", "4000", "coefficients may reach 8570 digits at order 4000, past str()'s limit of 4300"),
        ("rota-baxter", "(50)", "1000", ""),
        ("rota-baxter", "(400)", "2000", "estimated work 2.7e+11 at order 2000 passes the limit of 3.5e+10"),
    ],
    ids=_short_id,
)
def test_qeval_answers_or_refuses_a_huge_part_within_10_s(evaluator, comp, order, err):
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("the messages name str()'s default limit of 4300 digits")
    out = _qeval("--model", "OOZ", "--comp", comp, "--order", order, "--evaluator", evaluator)
    if err:
        assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {err}\n")
    else:
        assert (out.returncode, out.stderr) == (0, "") and out.stdout.startswith("q + ")


# -- the packed chain sum: wide slots, mixed signs, the slot width ---------------

def test_packed_chain_sum_of_a_negative_part_past_64_bits():
    # (1-q^m)^60 inside: coefficients of both signs, wider than a machine word
    comp = (2, -60, 2)
    assert list(zeta_OOZ(comp, 16).coeffs) == brute_model("OOZ", comp, 16)
    got = zeta_OOZ(comp, 200)
    assert max(map(abs, got.coeffs)).bit_length() > 64 and min(got.coeffs) < 0
    assert got == rota_baxter_eval_OOZ(comp, 200)


@pytest.mark.parametrize("tag, comp, n", [("BZ", (5, 11), 11), ("SZ", (1, 9, 3), 12), ("BZ", (2, 30), 31)])
def test_packed_chain_sum_of_a_child_that_stays_zero(tag, comp, n):
    # the inner suffix starts past the order, so its series stays 0 and the
    # slots are narrow: the outer node packs no row of its wide binomials
    qseries.clear_caches()
    assert list(_ZETA[tag](comp, n).coeffs) == brute_model(tag, comp, n)


def test_packed_chain_sum_of_a_high_weight_sz_value():
    # SZ(10, 10) through q^200 has 77-bit coefficients; OOZ = SZ . V sums it
    # with the 109 other compositions of V(z_(10,10)), against the other route
    assert list(zeta_SZ((10, 10), 40).coeffs) == brute_model("SZ", (10, 10), 40)
    assert max(map(abs, zeta_SZ((10, 10), 200).coeffs)).bit_length() > 64
    w = z_encode((10, 10), PY)
    assert eval_word("SZ", maps.map_V(w), 200) == rota_baxter_eval_OOZ((10, 10), 200)


@pytest.mark.parametrize(
    "comp, n",
    # (200000) through q^3: the bound is within a bit of the largest coefficient
    [((1,), 1), ((200000,), 3), ((3,), 60), ((2, -60, 2), 200), ((1, -200000), 300), ((3, 1, -1, 2), 250)],
)
def test_slot_width_covers_the_largest_coefficient_and_a_sign(comp, n):
    qseries.clear_caches()
    got = zeta_OOZ(comp, n)
    width = qseries._EVAL_CACHE[("OOZ", comp, n)].width  # the width the pass chose
    want = rota_baxter_eval_OOZ(comp, n).coeffs  # the other route
    assert got.width == width and width % 8 == 0 and got.coeffs == want
    assert max(map(abs, want)).bit_length() + 1 <= width


def test_ihara_s_turns_sz_values_into_szstar_values():
    # a >= chain is a > chain with runs of equal indices merged: SZstar = SZ . S,
    # and SZ = SZstar . S^-1, on the 252 H0 words up to weight 5
    words = h0_words(PY, 5, 5)
    assert len(words) == 252
    for w in words:
        assert eval_word("SZstar", w, 30) == eval_word("SZ", maps.ihara_S(w), 30)
        assert eval_word("SZ", w, 30) == eval_word("SZstar", maps.ihara_S_inv(w), 30)


@given(st.integers(1, 30), st.integers(-30, 30), st.integers(0, 25))
@settings(max_examples=30, deadline=None)
def test_both_routes_agree_when_parts_pass_the_order(k1, k2, n):
    qseries.clear_caches()
    assert zeta_OOZ((k1, k2), n) == rota_baxter_eval_OOZ((k1, k2), n)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("comp", [(), (1,), (2, -1), (1, 0, -2, 1)])
def test_both_routes_at_orders_0_and_1(comp, n):
    want = tuple(brute_model("OOZ", comp, n))
    assert rota_baxter_eval_OOZ(comp, n).coeffs == zeta_OOZ(comp, n).coeffs == want


def test_rota_baxter_route_shares_no_code_with_the_chain_sum(monkeypatch):
    # _pack and _unpack are QPoly's carrier codec, which both routes use; the
    # chain sum's own kernel is patched out
    comp = (2, 1, -1, 1)
    want = zeta_OOZ(comp, 40)

    def chain_sum(*args, **kwargs):
        raise AssertionError("the Rota-Baxter route entered the chain sum")

    for name in ("_eval_models", "_times_row", "_truncate", "_row"):
        monkeypatch.setattr(qseries, name, chain_sum)
    monkeypatch.setattr(qseries.Model, "shift", chain_sum)
    assert rota_baxter_eval_OOZ(comp, 40) == want


@st.composite
def comp_sets(draw):
    """1-6 compositions of one model that share inner parts: each is a head,
    a few parts of its own and a suffix of one common tail, so one suffix can
    sit at several depths, and outermost in one composition and inner in
    another."""
    tag = draw(st.sampled_from(["SZ", "SZstar", "BZ", "OOZ"]))
    first, rest = {"SZ": (1, 0), "SZstar": (1, 0), "BZ": (2, 1), "OOZ": (1, -2)}[tag]
    head = st.integers(min_value=first, max_value=first + 1)
    part = st.integers(min_value=rest, max_value=2)
    tail = draw(st.lists(part, max_size=3))
    comps = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        own = draw(st.lists(part, max_size=2))
        comps.append((draw(head), *own, *tail[draw(st.integers(0, len(tail))):]))
    return tag, comps, draw(st.integers(min_value=0, max_value=30))


def _unpacked(series, n):
    # a chain sum as the pass returns it, a QPoly at den 1, as a list of its slots
    assert series.den == 1
    return qseries._unpack(series.num, n + 1, series.width)


@given(comp_sets())
@settings(max_examples=80, deadline=None)
def test_shared_pass_equals_one_pass_per_composition(case):
    tag, comps, n = case
    qseries.clear_caches()
    shared = [_unpacked(series, n) for series in qseries._eval_models(tag, comps, n)]
    qseries.clear_caches()
    assert shared == [_unpacked(qseries._eval_models(tag, (comp,), n)[0], n) for comp in comps]


def test_zeta_returns_the_cached_chain_sum_itself():
    qseries.clear_caches()
    got = zeta_SZ((2, 1), 30)
    assert got is qseries._EVAL_CACHE[("SZ", (2, 1), 30)]
    assert zeta_SZ((2, 1), 30) is got
    assert eval_word("SZ", z_encode((2, 1), PY), 30) == got


def test_cold_chain_sum_keeps_linear_state():
    qseries.clear_caches()
    tracemalloc.start()
    try:
        zeta_SZ_star((1, 1, 1, 1, 1), 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def test_eval_word_reads_only_its_models_alphabet():
    # read as p/y, x0x1 would be py, whose SZ value is zeta_SZ(1), not zeta_SZ(2)
    with pytest.raises(AlphabetMismatchError):
        eval_word("SZ", z_encode((2,), H2), 5)
    with pytest.raises(AlphabetMismatchError):
        eval_word("BZ", z_encode((2,), PY), 5)


def test_eval_word_shares_one_pass_and_caches_every_term():
    x = Poly.of(z_encode((2, 1, 1), PY)) + Poly.of(z_encode((1, 1), PY), 3) - Poly.of(z_encode((1,), PY))
    qseries.clear_caches()
    got = eval_word("SZ", x, 40)
    assert {key for key in qseries._EVAL_CACHE} == {("SZ", c, 40) for c in [(2, 1, 1), (1, 1), (1,)]}
    qseries.clear_caches()
    assert got == zeta_SZ((2, 1, 1), 40) + zeta_SZ((1, 1), 40).scale(3) - zeta_SZ((1,), 40)


def test_eval_word_returns_its_own_pass_when_its_stores_evict_it(monkeypatch):
    # 5 terms under a bound of 2: the pass's later stores evict its earlier ones
    comps = [(2, 1, 1), (1, 1), (1,), (3,), (2, 0, 1)]
    x = Poly(PY, {z_encode(c, PY): i + 1 for i, c in enumerate(comps)})
    qseries.clear_caches()
    want = eval_word("SZ", x, 20)
    monkeypatch.setattr(qseries._EVAL_CACHE, "maxsize", 2)
    qseries.clear_caches()
    evictions = qseries._EVAL_CACHE.evictions
    assert eval_word("SZ", x, 20) == want
    assert qseries._EVAL_CACHE.evictions > evictions
    assert eval_word("SZ", x + x, 20) == want.scale(2)  # some terms cached at entry, the rest not
    qseries.clear_caches()


@pytest.mark.parametrize("model, alphabet", [("OOZ", PY), ("BZ", H2)])
def test_eval_word_makes_one_chain_sum_pass(monkeypatch, model, alphabet):
    comps = [(2, 1), (3,), (2, 2, 1)] if model == "BZ" else [(2, 1), (1, 0, 1), (3,)]
    coeffs = dict(zip(comps, (2, Fraction(-1, 3), 5)))
    x = Poly(alphabet, {z_encode(c, alphabet): k for c, k in coeffs.items()})
    evaluate, calls = qseries._eval_models, []
    monkeypatch.setattr(qseries, "_eval_models", lambda *args: calls.append(args) or evaluate(*args))
    qseries.clear_caches()
    got = eval_word(model, x, 25)
    assert len(calls) == 1
    monkeypatch.undo()
    qseries.clear_caches()
    zeta = {"OOZ": zeta_OOZ, "BZ": zeta_BZ}[model]
    want = QPoly(25)
    for c, k in coeffs.items():
        want = want + zeta(c, 25).scale(k)
    assert got == want


def test_each_composition_is_domain_checked_once(monkeypatch):
    check, calls = qseries.Model.check, []
    monkeypatch.setattr(qseries.Model, "check", lambda self, comp: calls.append(comp) or check(self, comp))
    comps = [(2, 1), (1, 0, 1), (3,)]
    qseries.clear_caches()
    eval_word("SZ", Poly(PY, {z_encode(c, PY): i + 1 for i, c in enumerate(comps)}), 12)
    assert sorted(calls) == sorted(comps)  # by eval_word; the chain sum trusts it
    calls.clear()
    zeta_OOZ((2, -1), 12)
    rota_baxter_eval_OOZ((2, -1), 12)
    assert calls == [(2, -1), (2, -1)]


@pytest.mark.parametrize(
    "tag, comps",
    [("SZ", [(2, 1, 0, 1), (1, 0, 1), (3,)]), ("SZstar", [(1, 0, 1), (2, 1, 1), (1, 1)]),
     ("BZ", [(3, 1, 2), (2, 2), (2,)]), ("OOZ", [(2, 1, -1, 1), (1, -1, 1), (3, 1), (1,)])],
)
def test_chain_sum_plans_its_nodes_in_one_pass_without_sorting(monkeypatch, tag, comps):
    # nodes enter children first; strict models reverse that plan
    calls = []
    monkeypatch.setattr(qseries, "sorted", lambda *a, **k: calls.append(a) or sorted(*a, **k), raising=False)
    qseries.clear_caches()
    got = qseries._eval_models(tag, comps, 14)
    assert calls == []
    assert [_unpacked(series, 14) for series in got] == [brute_model(tag, c, 14) for c in comps]


def test_each_model_carries_the_alphabet_eval_word_reads():
    assert {tag: m.alphabet for tag, m in qseries.MODELS.items()} == {"SZ": PY, "SZstar": PY, "BZ": H2, "OOZ": PY}


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


def test_qpoly_public_constructor_still_checks():
    with pytest.raises(WordError):
        QPoly(-2, ())
    with pytest.raises(WordError):
        QPoly(1, (1, 2, 3))  # three coefficients exceed order 1
    assert QPoly(3, (1, 0.5)).coeffs == (1, Fraction(1, 2), 0, 0)


# -- packed QPoly against a list reference ----------------------------------------

def _list_mul(a, b):
    # the reference product: a list convolution through the common order
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            out[i:] = [c + x * y for c, y in zip(out[i:], b)]
    return out


def _list_str(cs):
    # the reference text of a coefficient list
    bodies = []
    for k, c in enumerate(cs):
        if c:
            a, mono = abs(c), "q" if k == 1 else f"q^{k}"
            star = "" if a.denominator == 1 else "*"
            bodies.append(str(a) if not k else mono if a == 1 else f"{a}{star}{mono}")
    return signed_sum(bodies, (1 if c > 0 else -1 for c in cs if c))


_COEFF = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**100), 2**100),  # past 64 bits, both signs
    st.fractions(-(10**25), 10**25, max_denominator=10**6),
)


@st.composite
def _series(draw):
    order = draw(st.integers(0, 40))
    if draw(st.booleans()):
        cs = draw(st.lists(_COEFF, max_size=order + 1))
    else:  # every slot at the edge of its width: sums and products reach their bounds
        edge = draw(st.sampled_from([1, -1])) * (2 ** (8 * draw(st.integers(1, 12)) - 1) - 1)
        cs = [edge] * (order + 1)
    return QPoly(order, cs), [Fraction(c) for c in cs] + [0] * (order + 1 - len(cs))


def _same(x, want):
    # x holds the coefficients want, each an int exactly when it is integral
    got = x.coeffs
    return list(got) == want and all(type(c) is (int if c.denominator == 1 else Fraction) for c in got)


@given(_series(), _series(), st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=1000)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_packed_qpoly_matches_the_list_qpoly(a, b, k):
    (x, xs), (y, ys) = a, b
    n = min(x.order, y.order)
    assert _same(x, xs) and _same(y, ys)
    assert _same(x + y, [c + d for c, d in zip(xs, ys)]) and (x + y).order == n
    assert _same(x - y, [c - d for c, d in zip(xs, ys)])
    assert _same(x.scale(k), [c * k for c in xs]) and _same(x.scale(-7), [c * -7 for c in xs])
    assert _same(x * y, _list_mul(xs, ys)) and (x * y).order == n
    assert (x == y) == (xs[: n + 1] == ys[: n + 1]) and (x != y) == (xs[: n + 1] != ys[: n + 1])
    # equal values at other widths and denominators, and through a shorter order
    assert x * y == QPoly(n, _list_mul(xs, ys)) and x.scale(3).scale(Fraction(1, 3)) == x
    assert (x - x).is_zero() and x == QPoly(n, xs[: n + 1])
    assert str(x) == _list_str(xs) and str(x * y) == _list_str(_list_mul(xs, ys))
    assert x.to_json() == {"order": x.order, "coeffs": [str(c) for c in xs]}


@pytest.mark.parametrize("k", [129, 130, 131, 32769, 32770])
def test_a_cached_series_keeps_each_slot_strictly_inside_its_width(k):
    # OOZ (1, -k) through q^3 is q^2 - (k-2) q^3: at k = 130 and 32770 the slot sits at
    # -2^(w-1), which a w-bit slot reads back but whose negation it cannot hold
    qseries.clear_caches()
    x, want = zeta_OOZ((1, -k), 3), brute_model("OOZ", (1, -k), 3)
    assert list(x.coeffs) == want and x.width == qseries._width(max(map(abs, want)))
    assert list((-x).coeffs) == [-c for c in want]
    assert list(x.scale(-2).coeffs) == [-2 * c for c in want]
    assert list((QPoly(3, (-1,)) * x).coeffs) == [-c for c in want]


def test_eval_word_sums_terms_cached_at_different_widths():
    n, cache = 20, qseries._EVAL_CACHE
    qseries.clear_caches()
    zeta_SZ((1,), n)  # a pass of its own, at a narrow width
    zeta_SZ((4, 3), n)  # another, at a wider one
    assert cache[("SZ", (1,), n)].width < cache[("SZ", (4, 3), n)].width
    terms = {(1,): 2, (4, 3): Fraction(-1, 3), (2, 0, 1): 5}  # the last in eval_word's own pass
    got = eval_word("SZ", Poly(PY, {z_encode(c, PY): k for c, k in terms.items()}), n)
    want = [sum(k * brute_model("SZ", c, n)[i] for c, k in terms.items()) for i in range(n + 1)]
    assert _same(got, want)


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


@pytest.mark.parametrize("q", [1.0, 0.0, -0.5, 1.5])
def test_limit_scaling_rejects_q_outside_the_open_unit_interval(q):
    with pytest.raises(WordError) as exc:
        limit_scaling_check("SZ", (2,), q_values=[0.9, q])
    assert str(exc.value) == f"limit scaling needs 0 < q < 1, got {q!r}"


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


def test_float_oracle_at_any_depth():
    # duality, zeta(tau w) = zeta(w): tau takes the word of (n+2) to that of (2, {1}^n)
    for n in range(9):
        a, b = zeta_classical_float((2,) + (1,) * n), zeta_classical_float((n + 2,))
        assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound
    # zeta({3,1}^n) = 2 pi^(4n) / (4n+2)! (Borwein, Bradley, Broadhurst and Lisonek) at n = 2
    r = zeta_classical_float((3, 1, 3, 1))
    with localcontext() as ctx:
        ctx.prec = 45
        assert abs(Decimal(r.value) - 2 * _PI**8 / math.factorial(10)) <= Decimal(r.tail_bound)


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


def test_a_series_equals_no_number_and_multiplies_by_no_text():
    series = QPoly(2, (0, 1))
    assert (series == 3) is False
    with pytest.raises(TypeError):
        series * "x"
    assert repr(series) == "QPoly[2](q)"


def test_the_float_oracle_of_the_empty_composition_is_one():
    assert tuple(zeta_classical_float((), 1000)) == (1.0, 0.0, 1000)
