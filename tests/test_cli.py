"""Expression grammar, canonical formatting, CLI behavior, suite plumbing."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv_lab import cli, hopf, maps, products, qseries, words
from mzv_lab.cli import (
    ParseError,
    SUITES,
    export_vectors,
    format_poly,
    format_word,
    main,
    parse_expr,
    run_suite,
)
from mzv_lab.words import H2, PDY, PY, Poly, Word, z_encode


def zh(*comp):
    return Poly.of(z_encode(comp, H2))


def zp(*comp):
    return Poly.of(z_encode(comp, PY))


# -- parsing -----------------------------------------------------------------

def test_parse_words_and_z_blocks():
    assert parse_expr("z{2}z{1}", "h") == zh(2, 1)
    assert parse_expr("x0x1x1", "h") == zh(2, 1)
    assert parse_expr("ppy", "H") == zp(2)
    assert parse_expr("z{2}", "H") == zp(2)
    assert parse_expr("pdy", "pdy") == Poly.of(Word(PDY, ("y",)))  # normalized
    assert parse_expr("1", "H") == Poly.unit(PY)


def test_parse_bare_composition_returns_tuple():
    assert parse_expr("(2,1)") == (2, 1)
    assert parse_expr("(3)") == (3,)
    assert parse_expr("()") == ()
    assert parse_expr("(2,-1)") == (2, -1)


def test_parse_composition_inside_expression_encodes():
    assert parse_expr("(2,1) sh (1)", "H") == products.shuffle_lambda(
        zp(2, 1), zp(1), 1
    )
    # a *bare* literal stays a tuple even when an alphabet is supplied
    assert parse_expr("(1,0)", "H") == (1, 0)


def test_parse_products_and_precedence():
    assert parse_expr("z{2} * z{2}", "h") == products.quasi_shuffle(zh(2), zh(2))
    assert parse_expr("py sh py", "H") == products.shuffle_lambda(zp(1), zp(1), 1)
    assert parse_expr("py sq py", "H") == products.square_lambda(zp(1), zp(1), 1)
    # 'sh' binds tighter than '+'
    assert parse_expr("py sh py + py", "H") == products.shuffle_lambda(
        zp(1), zp(1), 1
    ) + zp(1)
    assert parse_expr("-py + 2*py", "H") == zp(1)
    assert parse_expr("3/2*py", "H") == zp(1).scale(Fraction(3, 2))
    assert parse_expr("2 * 3", "H") == Poly.unit(PY).scale(6)


def test_parse_lambda_context():
    got = parse_expr("py sh py", "H", lam=-1)
    assert got == products.shuffle_lambda(zp(1), zp(1), -1)


def test_parse_grouping_parens():
    assert parse_expr("(py sh py) * py", "H") == products.quasi_shuffle_lambda(
        products.shuffle_lambda(zp(1), zp(1), 1), zp(1), 1
    )


def test_parse_alphabet_inference():
    assert parse_expr("x0x1").alphabet is H2
    assert parse_expr("ppy").alphabet is PY
    assert parse_expr("pdy").alphabet is PDY
    with pytest.raises(ParseError):
        parse_expr("z{2} * z{1}")  # no letters, no flag: ambiguous
    with pytest.raises(ParseError):
        parse_expr("x0 py")  # mixed alphabets


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_expr("py ?? py", "H")
    assert err.value.position == 3
    with pytest.raises(ParseError) as err:
        parse_expr("py sh", "H")
    assert "expected" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("z{2", "h")
    with pytest.raises(ParseError):
        parse_expr("x2", "h")
    with pytest.raises(ParseError):
        parse_expr("(2,1", "H")
    with pytest.raises(ParseError):
        parse_expr("z{0}", "h")  # below the codec floor on x0/x1


def test_pdy_has_no_stuffle_or_square():
    with pytest.raises(ParseError):
        parse_expr("d * d", "pdy")
    with pytest.raises(ParseError):
        parse_expr("d sq d", "pdy")
    # but scalars still use '*'
    assert parse_expr("2*d", "pdy") == Poly.of(Word(PDY, ("d",)), 2)


# -- formatting and roundtrip ---------------------------------------------------

def test_format_word_conventions():
    assert format_word(z_encode((3, 1), H2)) == "z{3}z{1}"
    assert format_word(Word(H2, ("x1", "x0"))) == "x1x0"  # not z-decodable
    assert format_word(Word(PY, ("p", "y"))) == "py"
    assert format_word(Word(PY)) == "1"


def test_format_poly_layout():
    x = 2 * zp(2) - zp(1) + zp(1, 1).scale(Fraction(1, 2))
    assert format_poly(x) == "-py + 2*ppy + 1/2*pypy"
    assert format_poly(Poly.zero(PY)) == "0"


def test_every_formatter_pins_its_signed_terms():
    # coefficients 1, -1, 3 and -1/2, and the zero value of each carrier
    cs = (1, -1, 3, Fraction(-1, 2))
    ws = [z_encode(c, H2) for c in ((2,), (2, 1), (3,))] + [Word(H2, ("x1", "x0"))]
    p = Poly(H2, dict(zip(ws, cs)))
    assert format_poly(p) == "z{2} - 1/2*x1x0 + 3*z{3} - z{2}z{1}"
    assert str(p) == "x0x1 - 1/2*x1x0 + 3*x0x0x1 - x0x1x1"
    one = Word(H2)
    t = hopf.Tensor2(H2, dict(zip([(ws[0], one), (one, ws[0]), (ws[1], ws[2]), (ws[3], ws[0])], cs)))
    assert cli.format_tensor(t) == "-1 (x) z{2} + z{2} (x) 1 - 1/2*x1x0 (x) z{2} + 3*z{2}z{1} (x) z{3}"
    assert str(t) == "-1 (x) x0x1 + x0x1 (x) 1 - 1/2*x1x0 (x) x0x1 + 3*x0x1x1 (x) x0x0x1"
    z = products.ZPoly(dict(zip(map(products.ZWord, [(2,), (1, -1), (3, 0), ()]), cs)))
    assert repr(z) == "ZPoly(-1/2*z[] - z[1, -1] + z[2] + 3*z[3, 0])"
    q = qseries.QPoly(4, (Fraction(-1, 2), 1, -1, 3, Fraction(-1, 2)))
    assert str(q) == "-1/2 + q - q^2 + 3q^3 - 1/2*q^4"
    assert str(qseries.QPoly(3, (3, Fraction(1, 2), 0, -1))) == "3 + 1/2*q - q^3"
    zeros = [format_poly(Poly.zero(H2)), str(Poly.zero(H2)), cli.format_tensor(hopf.Tensor2(H2))]
    zeros += [str(hopf.Tensor2(H2)), repr(products.ZPoly()), str(qseries.QPoly(3))]
    assert zeros == ["0", "0", "0", "0", "ZPoly(0)", "0"]


coeffs = st.integers(min_value=-9, max_value=9).filter(bool).map(Fraction)
h2_word = st.lists(st.sampled_from(["x0", "x1"]), max_size=5).map(lambda l: Word(H2, l))
py_word = st.lists(st.sampled_from(["p", "y"]), max_size=5).map(lambda l: Word(PY, l))
pdy_word = st.lists(st.sampled_from(["p", "d", "y"]), max_size=5).map(
    lambda l: Word(PDY, l)
)


def _poly_strategy(word_st, alphabet):
    return st.dictionaries(word_st, coeffs, max_size=4).map(
        lambda d: Poly(alphabet, d)
    )


@given(_poly_strategy(h2_word, H2))
def test_roundtrip_h2(p):
    assert parse_expr(format_poly(p), "h") == p


@given(_poly_strategy(py_word, PY))
def test_roundtrip_py(p):
    assert parse_expr(format_poly(p), "H") == p


@given(_poly_strategy(pdy_word, PDY))
def test_roundtrip_pdy(p):
    assert parse_expr(format_poly(p), "pdy") == p


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
def test_roundtrip_product_output(comp):
    # polys produced by operations stay parseable
    w = z_encode(tuple(comp), H2)
    out = products.quasi_shuffle(w, w)
    assert parse_expr(format_poly(out), "h") == out


# -- main() -------------------------------------------------------------------

def test_main_qeval_pinned(capsys):
    assert main(["qeval", "--model", "OOZ", "--comp", "(3)", "--order", "4"]) == 0
    assert capsys.readouterr().out.strip() == "q + 4q^2 + 7q^3 + 14q^4"


def test_main_map_pinned(capsys):
    assert main(["map", "--name", "tau", "--alphabet", "h", "z{5}z{1}"]) == 0
    assert capsys.readouterr().out.strip() == "z{3}z{1}z{1}z{1}"


def test_main_product_json_rationals(capsys):
    rc = main(
        [
            "product",
            "--alphabet",
            "pdy",
            "--lambda",
            "2",
            "--kind",
            "shuffle",
            "--json",
            "d",
            "d",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["terms"] == [{"coeff": "-1/2", "word": ["d"]}]


def test_main_product_scalar_star(capsys):
    assert main(["product", "--alphabet", "H", "2*py - py"]) == 0
    assert capsys.readouterr().out.strip() == "py"


def test_main_coproduct(capsys):
    assert main(["coproduct", "--alphabet", "h", "z{2}"]) == 0
    assert capsys.readouterr().out.strip() == "1 (x) z{2} + z{2} (x) 1"


def test_main_qeval_expr_and_rb(capsys):
    assert main(["qeval", "--model", "SZ", "--expr", "ppy", "--order", "4"]) == 0
    assert capsys.readouterr().out.strip() == "q^2 + 2q^3 + 4q^4"
    assert (
        main(
            [
                "qeval",
                "--model",
                "OOZ",
                "--comp",
                "(3)",
                "--order",
                "4",
                "--evaluator",
                "rota-baxter",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "q + 4q^2 + 7q^3 + 14q^4"


def test_main_exit_codes(capsys):
    assert main(["product", "--alphabet", "h", "z{2] * z{2}"]) == 2  # syntax
    assert main(["verify", "--suite", "no-such-suite"]) == 2  # usage
    assert main(["map", "--name", "nope", "--alphabet", "h", "x1"]) == 2
    assert main(["qeval", "--model", "SZ", "--comp", "(0,1)", "--order", "4"]) == 2
    assert main(["qeval", "--model", "SZ", "--order", "4"]) == 2  # needs comp or expr
    capsys.readouterr()


@pytest.mark.parametrize("lam", ["abc", "1/0"])
def test_main_bad_lambda_is_one_line_usage_error(capsys, lam):
    assert main(["product", "z{2} * z{2}", "--alphabet", "h", "--lambda", lam]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda") and len(err.splitlines()) == 1


def test_main_verify_failure_exit_code(capsys, monkeypatch):
    def broken_suite(mw, order):
        yield cli.Case("always-fails", {}, lambda: (1, 2))

    monkeypatch.setitem(SUITES, "broken", broken_suite)
    assert main(["verify", "--suite", "broken"]) == 1
    out = capsys.readouterr().out
    assert "always-fails" in out and "FAILED" in out


def test_main_verify_passing(capsys):
    assert main(["verify", "--suite", "qseries-spot-values", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cases"] == 3 and doc["failures"] == []


# -- suites and export ------------------------------------------------------------

def test_unknown_suite_raises():
    with pytest.raises(Exception):
        run_suite("nope")


def test_suite_case_that_raises_is_a_failure_and_the_run_goes_on(capsys, monkeypatch):
    ran = []

    def mixed_suite(mw, order):
        yield cli.Case("raises", {"w": "z{0}"}, lambda: (products.t_op(zp(0, 1)), zp(0, 1)))
        yield cli.Case("passes", {}, lambda: (ran.append(1) or 1, 1))

    monkeypatch.setitem(SUITES, "mixed", mixed_suite)
    rep = run_suite("mixed")
    assert rep.cases == 2 and ran == [1]
    (f,) = rep.failures
    assert f.case_id == "raises" and f.inputs == {"w": "z{0}"}
    assert f.lhs == "raised NotInSubalgebraError: t_op needs first z-part >= 1, got (0, 1)"
    assert main(["verify", "--suite", "mixed"]) == 1
    out = capsys.readouterr().out
    assert "raised NotInSubalgebraError" in out and "FAILED" in out
    assert [f.case_id for f in run_suite("all", 2, 6).failures] == ["mixed/raises"]


def test_export_vectors_spot_check(tmp_path):
    out = tmp_path / "vec.jsonl"
    n = export_vectors("thm-szdual", str(out), 6, None)
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["suite"] == "thm-szdual" and header["cases"] == n == len(lines) - 1

    # recompute three records from their inputs and compare
    for line in lines[1:4]:
        rec = json.loads(line)
        u = parse_expr(rec["inputs"]["u"], "H")
        v = parse_expr(rec["inputs"]["v"], "H")
        lam = Fraction(rec["inputs"]["lambda"])
        assert cli.poly_json(products.square_lambda(u, v, lam)) == rec["lhs"]
        assert cli.poly_json(products.shuffle_lambda(u, v, lam)) == rec["rhs"]
        assert rec["lhs"] == rec["rhs"]


def test_export_vectors_empty_bound_writes_header_only(tmp_path):
    out = tmp_path / "empty.jsonl"
    n = export_vectors("thm-szdual", str(out), 0, None)
    lines = out.read_text().splitlines()
    assert n == 0 and len(lines) == 1
    assert json.loads(lines[0])["cases"] == 0


def test_every_registered_suite_runs_small():
    for name in SUITES:
        rep = run_suite(name, 2, 6)
        assert rep.passed, rep.text()


def test_run_suite_all_aggregates():
    rep = run_suite("all", 2, 6)
    assert rep.suite == "all" and rep.passed and rep.cases > 0


def test_clear_caches_empties_every_module_memo():
    modules = (cli, hopf, maps, products, qseries, words)

    def memos():
        return {
            f"{m.__name__}.{name}": v
            for m in modules
            for name, v in vars(m).items()
            if name.endswith(("_MEMO", "_CACHE")) and isinstance(v, dict)
        }

    run_suite("all", 3, 6)
    filled = memos()
    named = {"mzv_lab.hopf._ANTIPODE_MEMO", "mzv_lab.hopf._INF_MEMO", "mzv_lab.maps._IHARA_MEMO"}
    assert named <= set(filled)
    assert all(filled.values()), {k: len(v) for k, v in filled.items()}
    for m in modules:
        if hasattr(m, "clear_caches"):
            m.clear_caches()
    assert not any(memos().values()), {k: len(v) for k, v in memos().items()}
