"""Expression grammar, canonical formatting, CLI behavior, suite plumbing."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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


def test_the_parser_takes_a_composition_word_from_the_interned_table():
    for alphabet, flag, text, comp in ((H2, "h", "(2,1)", (2, 1)), (PY, "H", "(1,0,3)", (1, 0, 3))):
        interned = z_encode(comp, alphabet)
        (word,) = cli._parse_operand(text, flag, Fraction(1)).terms
        assert word is interned
        (word,) = parse_expr(f"3 * {text}", flag).terms
        assert word is interned


def test_a_refused_composition_leaves_the_word_tables_unchanged():
    many = cli.MAX_LETTERS  # H2: z_k has k letters, PY: k + 1
    for alphabet, flag, text in (
        (H2, "h", "(2,0)"), (PY, "H", "(1,-1)"), (H2, "h", f"(1,{many})"), (PY, "H", f"({many})")
    ):
        table = words._ZCODECS[alphabet].words
        before = (len(table), table.stores)
        with pytest.raises(words.WordError):
            cli._parse_operand(text, flag, Fraction(1))
        with pytest.raises((ParseError, words.WordError)):
            parse_expr(f"{text} + 1", flag)
        assert (len(table), table.stores) == before


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


def test_a_scalar_zero_star_a_word_is_the_zero_poly():
    assert parse_expr("0 * py", "H") == Poly.zero(PY)
    assert parse_expr("py * 0", "H") == Poly.zero(PY)


def test_an_unknown_alphabet_flag_names_the_three_flags():
    with pytest.raises(words.WordError, match=r"expected one of \['H', 'h', 'pdy'\]"):
        parse_expr("py", "q")


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


def test_parse_error_precedence_and_pdy_refusals():
    # words decode lazily under a flag, but all at once to infer the alphabet
    with pytest.raises(ParseError, match=r"^syntax error at position 3: expected END, found RPAREN$"):
        parse_expr("x0 ) qq", "h")
    with pytest.raises(ParseError, match=r"^syntax error at position 5: unknown letter 'q'$"):
        parse_expr("x0 ) qq")
    for text, lacking in (("d * d", "no stuffle"), ("d sq d", "no square product")):
        with pytest.raises(ParseError) as err:
            parse_expr(text, "pdy")
        assert str(err.value) == f"syntax error at position 2: {lacking} on the p/d/y alphabet"


def test_main_kind_products_keep_their_pdy_errors(capsys):
    # '--kind' reaches the same product table as the infix operators, unguarded
    for kind, err in (
        ("quasi", "operands must be PY polynomials"),
        ("square", "reverse_swap is not defined on p/d/y words"),
    ):
        assert main(["product", "--kind", kind, "--alphabet", "pdy", "d", "p"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


# A fixed corpus of (expression, alphabet flag) pairs: hand-picked edge cases,
# then a seeded fuzz over lexical fragments and over well-formed terms.
_HAND = (
    "x0 ) qq", "(2 sh (1)", "((2))", "(1_0)", "1/", "1/0", "z{a}", "z{2", "x2", "z{0}",
    "d * d", "d sq d", "2*d", "p * y", "py sq d", "( 1 , 2 )", "(+1)", "(1__0)", "(_1)", "(1_)",
    "(\u0661)", "\u0663*py", "1/\u0663", "py ?? py", "", "   ", "()", "( )", "(,)", "(1,)",
    "((1))", "(x0)", "-(1)", "z{}", "z{{2}", "x0x1 sh x0x1", "py sh py + py", "(py sh py) * py",
    "3/2*py", "2 * 3", "shx0", "sq", "x0 sh", "z{2}x0q", "x0p", "x0 py", "\tx0\n", "\u3000x0",
    "x0\xa0x1", "(2,-1)", "(- 1)", "(+ 1)", "1 /2", "1/00", "2x0", "x0 2", "z{2}z{1}", "ppy",
    "pdy", "(1,0)", "(2,1) sh (1)", "z{2} * z{1}", "x1p", "px1", "dypy", "1", "-", "*", "+x0",
    "x0 + + x1", "(", ")", "((", "))", "(x0))(", "x0 (", "( x0", "z", "x", "x0x", "z{1}}",
    "{", "}", "z{2}{", "x0\x1cx1", "1,2", "(1;2)", "(1 2)", "(\t3\t)", "(1,2)(3)",
    "-(2,1)", "(1) * (1)", "(1) sq (1)", "(0) sh (0)", "y * y", "p sh d", "d sh d", "1/2 sh py",
    "x0 sh 2", "2 sq 3", "z{1} sq z{1}", "z{01}", "z{-1}", "z{1", "qq ) x0", "x0 ) qq ) (",
)
_FRAGMENTS = (
    "x0", "x1", "p", "d", "y", "z{1}", "z{2}", "z{", "}", "{", "z", "x", "x2", "q",
    "(", ")", ",", "+", "-", "*", "/", "_", "sh", "sq", " ", " ", "0", "1", "2",
    "\u0663", "\xa0", "?", "()", "(1,2)",
)
_TERMS = (
    "x0", "x1", "x0x1", "p", "y", "py", "d", "z{1}", "z{2}", " sh ", " sq ", " * ", " + ",
    " - ", "2", "1/2", "(1)", "(2,1)", "(", ")", "-",
)


def _parse_record(text, flag):
    try:
        out = parse_expr(text, flag)
    except (ParseError, words.WordError) as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "position", None))
    if isinstance(out, tuple):
        return ("comp", repr(out))
    return ("poly", out.alphabet.tag, format_poly(out))


def test_parse_results_are_pinned():
    # result kind, value or error type, message and position of every pair
    rng = random.Random(20261018)
    corpus = _HAND + tuple(
        "".join(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        for pool in (_FRAGMENTS, _TERMS)
        for _ in range(1000)
    )
    lines = [
        repr((text, flag) + _parse_record(text, flag))
        for text in corpus
        for flag in (None, "h", "H", "pdy")
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "87d273aef0b66b8d581b1c512f9d4161d468b3231a990e3e0d320c473ecdbc40"


@pytest.mark.parametrize(
    "text, char, position",
    [("Py", "P", 0), ("x0 é", "é", 3), ("²", "²", 0), ("1²", "²", 1), ("x1ǅ", "ǅ", 2)],
)
def test_letters_and_digits_outside_the_grammar_are_syntax_errors(text, char, position):
    with pytest.raises(ParseError) as err:
        parse_expr(text, "H")
    assert str(err.value) == f"syntax error at position {position}: unexpected character {char!r}"
    assert err.value.position == position


def test_decimal_digits_of_any_script_are_numbers():
    assert parse_expr("٣*py", "H") == zp(1).scale(3)
    assert parse_expr("1/٣", "H") == Poly.unit(PY).scale(Fraction(1, 3))


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_main_uppercase_letter_is_one_line_error_not_a_hang():
    # capped in time and memory so that a tokenizer that loops fails fast and small
    out = subprocess.run(
        [sys.executable, "-m", "mzv_lab.cli", "product", "--alphabet", "H", "Py"],
        env=_src_env(), capture_output=True, text=True, timeout=5, preexec_fn=_cap_memory,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: syntax error at position 0: unexpected character 'P'\n"


def test_main_non_decimal_digit_is_one_line_usage_error(capsys):
    assert main(["product", "--alphabet", "H", "²"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: syntax error at position 0: unexpected character '²'\n"


def test_nesting_past_the_limit_is_one_line_usage_error(capsys):
    nested = "(" * 300 + "x1" + ")" * 300
    assert main(["product", "--alphabet", "h", nested]) == 2
    out = capsys.readouterr()
    err = f"error: syntax error at position {cli.MAX_NESTING}: parentheses nested deeper than {cli.MAX_NESTING}\n"
    assert out.out == "" and out.err == err
    # at the limit it parses, a product inside included
    depth = cli.MAX_NESTING
    assert parse_expr("(" * depth + "x1 * x0x1" + ")" * depth, "h") == parse_expr("x1 * x0x1", "h")
    assert parse_expr("(" * depth + "x1)" + "+(x1)" * 5 + ")" * (depth - 1), "h") == zh(1).scale(6)
    # a run of unary minus signs is not nesting: it takes no parser frames
    assert parse_expr("- " * 3001 + "x1", "h") == -zh(1)


def test_deep_nesting_is_refused_in_one_pass_over_the_parentheses():
    nested = "(" * 65_000 + "x1" + ")" * 65_000
    err = f"syntax error at position {cli.MAX_NESTING}: parentheses nested deeper than {cli.MAX_NESTING}"
    start = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse_expr(nested, "h")
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == err


@given(st.text(alphabet="()(1,)x1 ", max_size=24))
def test_first_unclosed_parenthesis_is_the_first_no_rescan_closes(text):
    def closed(start):  # whether a ')' after start brings the depth back to 0
        depth = 0
        for c in text[start:]:
            depth += {"(": 1, ")": -1}.get(c, 0)
            if not depth:
                return True
        return False

    unclosed = [i for i, c in enumerate(text) if c == "(" and not closed(i)]
    assert cli._first_unclosed(text) == (unclosed[0] if unclosed else -1)


def test_number_past_the_digit_limit_is_one_line_usage_error(capsys):
    limit = sys.get_int_max_str_digits()
    if not 0 < limit < 5000:
        pytest.skip(f"int() converts {limit or 'any number of'} digits")
    big = "3" * 5000
    # a composition part past the limit leaves a plain '(' and a number, as before
    for expr, pos in ((f"{big}*py", 0), (f"1/{big}*py", 2), (f"py + 2/{big}", 7), (f"({big})", 1)):
        assert main(["product", "--alphabet", "H", expr]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: syntax error at position {pos}: number too long (5000 digits)\n"


@given(st.text(max_size=20))
def test_tokenize_ends_in_END_or_raises_a_usage_error(text):
    try:
        tokens = cli.tokenize(text)
    except (ParseError, words.WordError):
        return
    assert tokens[-1].kind == "END" and all(t.kind != "END" for t in tokens[:-1])


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
    q = qseries.QPoly(4, (Fraction(-1, 2), 1, -1, 3, Fraction(-1, 2)))
    assert str(q) == "-1/2 + q - q^2 + 3q^3 - 1/2*q^4"
    assert str(qseries.QPoly(3, (3, Fraction(1, 2), 0, -1))) == "3 + 1/2*q - q^3"
    zeros = [format_poly(Poly.zero(H2)), str(Poly.zero(H2)), cli.format_tensor(hopf.Tensor2(H2))]
    zeros += [str(hopf.Tensor2(H2)), str(qseries.QPoly(3))]
    assert zeros == ["0", "0", "0", "0", "0"]


# -- the one-pass writers against the term-by-term reference ------------------

def _ref_word(w):
    # format_word as it was written term by term: z-blocks from a split of the letters
    text = str(w)
    if w.alphabet is H2 and text.endswith("x1"):
        return "".join(f"z{{{len(run) // 2 + 1}}}" for run in text.split("x1")[:-1])
    return text


def _ref_format(terms, body):
    # a coefficient c != +-1 in front as "c*", then the signs joined by a re-scan
    parts = [body(k) if c == 1 else f"-{body(k)}" if c == -1 else f"{c}*{body(k)}" for k, c in terms]
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in parts[1:])


_ref_coeffs = st.one_of(
    st.integers(-12, 12), st.fractions(min_value=-3, max_value=3, max_denominator=7)
).filter(bool)


def _ref_words(alphabet, max_size=6):
    return st.lists(st.sampled_from(alphabet.letters), max_size=max_size).map(
        lambda ls: Word(alphabet, ls)
    )


@given(st.sampled_from([H2, PY, PDY]).flatmap(
    lambda a: st.tuples(st.just(a), st.dictionaries(_ref_words(a), _ref_coeffs, max_size=12))
))
def test_poly_writers_equal_the_term_by_term_reference(case):
    # unit and zero polys, negative and rational coefficients, and x0/x1 words
    # that end in x1 (z-blocks) next to words that do not
    alphabet, terms = case
    p = Poly(alphabet, terms)
    ordered = sorted(p.terms.items(), key=lambda t: t[0].sort_key())
    assert format_poly(p) == _ref_format(ordered, _ref_word)
    assert str(p) == _ref_format(ordered, str)
    record = {
        "type": "poly",
        "alphabet": alphabet.tag,
        "terms": [{"coeff": str(c), "word": list(w.letters)} for w, c in ordered],
    }
    assert cli.poly_json(p) == json.dumps(record) == cli.value_json(p)
    assert [format_word(w) for w, _ in ordered] == [_ref_word(w) for w, _ in ordered]


@given(st.sampled_from([H2, PY, PDY]).flatmap(
    lambda a: st.tuples(
        st.just(a),
        st.dictionaries(st.tuples(_ref_words(a, 4), _ref_words(a, 4)), _ref_coeffs, max_size=12),
    )
))
def test_tensor_writers_equal_the_term_by_term_reference(case):
    alphabet, terms = case
    t = hopf.Tensor2(alphabet, terms)
    ordered = sorted(t.terms.items(), key=lambda kc: (kc[0][0].sort_key(), kc[0][1].sort_key()))
    body = lambda k: f"{_ref_word(k[0])} (x) {_ref_word(k[1])}"  # noqa: E731
    assert cli.format_tensor(t) == _ref_format(ordered, body)
    assert str(t) == _ref_format(ordered, lambda k: f"{k[0]} (x) {k[1]}")
    record = {
        "type": "tensor",
        "alphabet": alphabet.tag,
        "terms": [
            {"coeff": str(c), "left": list(a.letters), "right": list(b.letters)}
            for (a, b), c in ordered
        ],
    }
    assert cli.tensor_json(t) == json.dumps(record) == cli.value_json(t)


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


@pytest.mark.parametrize("model", ["SZ", "BZ"])
@pytest.mark.parametrize("comp", ["z{2}", "3", "(2,1)+(1)"])
def test_main_qeval_comp_other_than_a_composition_is_one_line_usage_error(capsys, model, comp):
    assert main(["qeval", "--model", model, "--comp", comp, "--order", "4"]) == 2
    assert capsys.readouterr().err == 'error: --comp expects a composition like "(2,1)"\n'


@pytest.mark.parametrize("model, comp", [
    ("BZ", "(1,1,1,1,1,1,1,1,1,1) * (2,1,2,1,2,1,2,1,2,1)"),
    ("SZ", "z{60} sh z{60}"),
])
def test_main_qeval_comp_is_refused_before_any_product_is_built(capsys, model, comp):
    start = time.perf_counter()
    assert main(["qeval", "--model", model, "--comp", comp]) == 2
    assert time.perf_counter() - start < 0.2
    assert capsys.readouterr().err == 'error: --comp expects a composition like "(2,1)"\n'
    # text that the tokenizer refuses keeps its own syntax error
    assert main(["qeval", "--model", model, "--comp", comp + " $"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: syntax error at position {len(comp) + 1}: unexpected character '$'\n"


@pytest.mark.parametrize("argv, err", [
    (["qeval", "--model", "OOZ", "--expr", "z{60} sh z{60}", "--evaluator", "rota-baxter"],
     "the rota-baxter evaluator takes --comp"),
    (["map", "--alphabet", "H", "--name", "tau", "z{60} sh z{60}"], "tau acts on x0/x1 words"),
    (["coproduct", "--kind", "square-op", "--alphabet", "h", "z{200} sh z{200}"],
     "coproduct_square_op lives on p/y words"),
    (["product", "--kind", "star", "--alphabet", "H", "z{60} sh z{60}", "py"],
     "operands must be H2 polynomials"),
    # no flag: each operand's alphabet is read from its tokens, before anything is built
    (["product", "--kind", "star", "py + z{60} sh z{60}", "py"], "operands must be H2 polynomials"),
    (["coproduct", "--kind", "square-op", "x0x1 + z{200} sh z{200}"],
     "coproduct_square_op lives on p/y words"),
    # the model's alphabet, and the order checked on its zero
    (["qeval", "--model", "SZ", "--expr", "z{60} sh z{60}", "--order", "99999"],
     "order must be <= 4000, got 99999"),
    (["qeval", "--model", "BZ", "--expr", "z{2} + z{200} sh z{200}", "--order", "-1"],
     "order must be >= 0, got -1"),
    # deconcat refuses p/d/y from the alphabet, zero included
    (["coproduct", "--alphabet", "pdy", "p" * 60 + "y sh " + "p" * 60 + "y"],
     "no z-block codec on alphabet PDY"),
])
def test_main_flag_refusals_come_before_the_operand_is_built(capsys, argv, err):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("argv, err", [
    (["qeval", "--model", "SZ", "--comp", "x", "--evaluator", "rota-baxter"],
     "the rota-baxter evaluator applies to the OOZ model"),
    (["qeval", "--model", "OOZ", "--expr", "py ??", "--evaluator", "rota-baxter"],
     "the rota-baxter evaluator takes --comp"),
    (["map", "--name", "tau", "--alphabet", "H", "py ??"], "tau acts on x0/x1 words"),
    (["coproduct", "--kind", "infinitesimal", "--alphabet", "h", "py ??"],
     "infinitesimal_coproduct lives on p/y or p/d/y words"),
    (["product", "--kind", "star", "--alphabet", "H", "py ??", "py"],
     "operands must be H2 polynomials"),
    (["product", "--kind", "star", "x0x1", "py +"], "operands must be H2 polynomials"),
    (["qeval", "--model", "SZ", "--expr", "py +", "--order", "-1"], "order must be >= 0, got -1"),
])
def test_main_flag_refusals_come_before_an_operand_syntax_error(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("flag, word", [("h", "x0x1"), ("H", "py"), ("pdy", "d")])
@pytest.mark.parametrize("kind", sorted(cli._PRODUCT_KINDS) + list(cli._COPRODUCTS))
def test_each_product_kind_refuses_a_zero_operand_as_it_refuses_a_word(kind, flag, word):
    # so the flagged alphabet's zeros stand for its operands before they are parsed
    def outcome(x):
        try:
            if kind in cli._COPRODUCTS:
                getattr(hopf, cli._COPRODUCTS[kind])(x)
            else:
                cli._PRODUCT_KINDS[kind](x, x, Fraction(1))
        except words.WordError as exc:
            return type(exc), str(exc)
        return "answer"

    zero = Poly.zero(cli._alphabet(flag))
    assert outcome(zero) == outcome(cli._parse_operand(word, flag, Fraction(1)))


def test_main_deconcat_on_pdy_refuses_before_it_parses_its_operand(capsys):
    # deconcat refuses p/d/y from the alphabet, zero included: before the operand's syntax error
    for text in ("py ??", "pd", "0"):
        assert main(["coproduct", "--alphabet", "pdy", text]) == 2
        assert capsys.readouterr().err == "error: no z-block codec on alphabet PDY\n"


def test_main_product_operand_counts_are_one_line_usage_errors(capsys):
    for argv, err in (
        (["--kind", "quasi", "z{2}"], "--kind needs exactly two operand expressions"),
        (["--kind", "quasi", "z{2}", "z{1}", "z{3}"], "--kind needs exactly two operand expressions"),
        (["z{2}", "z{1}"], "expected one expression (or --kind with two operands)"),
    ):
        assert main(["product", "--alphabet", "h", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {err}\n"


@pytest.mark.parametrize("lam", ["abc", "1/0"])
def test_main_bad_lambda_is_one_line_usage_error(capsys, lam):
    assert main(["product", "z{2} * z{2}", "--alphabet", "h", "--lambda", lam]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --lambda") and len(err.splitlines()) == 1


# operand terms per alphabet flag, then noise that fits none: the flags share no term,
# so an operand shows the flag it was drawn for even where argv does not name it
_ARGV_TERMS = {
    "h": (
        "x0", "x1", "x0x1", "x1x0", "x0x0x1", "z{1}", "z{2}", "z{3}x1", "(1)", "(2,1)", "(0,1)",
        "(3,1,2)", "()", "1", "(", "z{", "pd",
    ),
    "H": (
        "p", "y", "py", "yp", "ppy", "pypy", "z{0}py", "z{2}y", "(2)", "(1,0)", "(1,-1)",
        "(2,0,1)", "( )", "1/2", "(((", "z{x}", "x0",
    ),
    "pdy": ("d", "pdy", "dy", "dp", "ppdy", "dyp", "ydd", "dpy", "3", ")", "z{1}", "x1"),
}
_ARGV_OPS = (" sh ", " sq ", " * ", " + ", " - ")
_ARGV_LAMBDAS = ([], ["--lambda", "0"], ["--lambda", "1/0"], ["--lambda=-1"], ["--lambda", "1/2"])


@st.composite
def _cli_argv(draw):
    """argv of product, map, coproduct or qeval from small operands, kinds,
    alphabets, lambdas and orders, valid and not, and of qeval of a huge part.
    Each kind draws only what its argv shows, from pools wide enough that the
    examples of a kind are distinct.  "--" keeps an operand that starts with
    "-" from reading as an option."""
    command = draw(st.sampled_from(("product", "map", "coproduct", "qeval", "qeval-huge")))
    if command.startswith("qeval"):
        model = ["--model", draw(st.sampled_from(sorted(qseries.MODELS)))]
        evaluator = ["--evaluator", draw(st.sampled_from(("chain", "rota-baxter")))]
    if command == "qeval-huge":  # a part of 151 or 401 digits: coefficients may pass str()'s limit
        huge = f"{draw(st.sampled_from(('', '-')))}1{'0' * draw(st.sampled_from((150, 400)))}"
        source = f"--comp=({draw(st.sampled_from((huge, f'1,{huge}', f'{huge},2')))})"
        return ["qeval", *model, source, f"--order={draw(st.integers(3, 40))}", *evaluator]
    flag = draw(st.sampled_from(sorted(_ARGV_TERMS)))
    term = st.sampled_from(_ARGV_TERMS[flag])

    def operand():
        rest = draw(st.lists(st.tuples(st.sampled_from(_ARGV_OPS), term), max_size=3))
        return draw(st.sampled_from(("", "-"))) + draw(term) + "".join(op + t for op, t in rest)

    if command == "qeval":
        source = f"{draw(st.sampled_from(('--comp', '--expr')))}={operand()}"
        return ["qeval", *model, source, f"--order={draw(st.integers(-1, 80))}", *evaluator]
    common = draw(st.sampled_from(([], ["--alphabet", flag])))
    common += draw(st.sampled_from(_ARGV_LAMBDAS))
    if command == "product":
        kind = draw(st.sampled_from([[]] + [["--kind", k] for k in sorted(cli._PRODUCT_KINDS)]))
        return ["product", *common, *kind, "--", *(operand() for _ in range(1 + bool(kind)))]
    if command == "map":
        names = sorted(maps._REGISTRY) + ["dn:1", "dn:3", "dn:0", "dn:17", "dn:x"]
        name = draw(st.sampled_from(names))
        return ["map", *common, "--name", name, "--", operand()]
    kind = draw(st.sampled_from(("deconcat", "square-op", "infinitesimal")))
    return ["coproduct", *common, "--kind", kind, "--", operand()]


@given(_cli_argv())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_main_ends_in_an_answer_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


def test_main_dd_shuffle_at_lambda_0_is_one_line_error(capsys):
    argv = ["product", "--kind", "shuffle", "--alphabet", "pdy", "d", "d", "--lambda", "0"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: the d/d recursion needs lam != 0\n"


def test_main_names_the_first_undecodable_word_of_the_ordered_pair(capsys):
    # the pair is ordered (x0, x1x0) and its first word is decoded first
    assert main(["product", "--kind", "quasi", "--alphabet", "h", "x0", "x1x0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: Word(H2:x0) does not end in x1; not z-decodable\n"


def test_main_derivation_index_has_a_ceiling(capsys):
    assert maps.MAX_DERIVATION == 16
    assert main(["map", "--name", "dn:17", "--alphabet", "h", "x0x1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: derivation index must be <= 16, got 17\n"
    assert maps.get_map("dn:16").name == "dn:16"  # the largest index is served
    assert main(["map", "--name", "dn:3", "--alphabet", "h", "x1"]) == 0
    assert capsys.readouterr().out == format_poly(maps.derivation(Word(H2, ("x1",)), 3)) + "\n"


def test_main_ihara_parts_share_the_derivation_ceiling(capsys):
    # S and S^-1 of n z-parts sum 2^(n-1) coarsenings, the 2^15 of dn:16 at n = 16
    for name in ("S", "Sinv"):
        assert main(["map", "--alphabet", "H", "--name", name, "(" + ",".join("1" * 17) + ")"]) == 2
        out = capsys.readouterr()
        fn = "ihara_S" if name == "S" else "ihara_S_inv"
        assert out.out == "" and out.err == f"error: {fn} takes at most 16 z-parts, got 17\n"
    # the largest word served, in a sum with a shorter one: only the longest word counts
    assert main(["map", "--alphabet", "H", "--name", "S", "py + (" + ",".join("1" * 16) + ")"]) == 0
    out = capsys.readouterr()
    assert out.err == "" and out.out.count(" + ") + 1 == 1 + 2**15  # py, and each coarsening


def test_main_binomial_maps_have_an_output_ceiling(capsys, monkeypatch):
    # V of (40,40,40,40,40) would build 40*41^4 terms: refused before any is built
    assert maps.MAX_BINOMIAL_TERMS == 2**17
    start = time.perf_counter()
    assert main(["map", "--alphabet", "H", "--name", "V", "(40,40,40,40,40)"]) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: V builds at most 131072 terms, got 113030440\n"
    # both sides of the ceiling, summed over the terms of the operand, for every map of the kernel
    monkeypatch.setattr(maps, "MAX_BINOMIAL_TERMS", 12)
    for name, alphabet, served, refused, count in [
        ("V", "H", "(3,3)", "(3,4)", 15),  # 3 * 4, then 3 * 5 terms
        ("Vinv", "H", "(1,1) + (3,2)", "(1,1) + (3,3)", 14),
        ("U", "h", "(4,4)", "(4,5)", 15),  # (4-1) * 4, then (4-1) * 5
        ("Uinv", "h", "(4,4)", "(4,5)", 15),
        # Vinv . tau~ . V and Uinv . tau . U: the outer transform builds the most
        ("dual1", "H", "(2,2)", "(3,2)", 18),
        ("dual2", "h", "(3,3)", "(3,4)", 16),
    ]:
        assert main(["map", "--alphabet", alphabet, "--name", name, served]) == 0
        assert capsys.readouterr().err == ""
        assert main(["map", "--alphabet", alphabet, "--name", name, refused]) == 2
        out = capsys.readouterr()
        fn = {"dual1": "Vinv", "dual2": "Uinv"}.get(name, name)
        assert out.out == "" and out.err == f"error: {fn} builds at most 12 terms, got {count}\n"


def test_main_order_has_a_ceiling(capsys, tmp_path):
    assert qseries.MAX_ORDER == 4000
    for evaluator in ("chain", "rota-baxter"):
        argv = ["qeval", "--model", "OOZ", "--comp", "(2,1)", "--order", "100000000", "--evaluator", evaluator]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: order must be <= 4000, got 100000000\n"
    never = tmp_path / "never.jsonl"
    for argv in (["verify", "--suite", "all"], ["export-vectors", "--suite", "zhao-duality", "--out", str(never)]):
        assert main([*argv, "--order", "4001"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: --order must be <= 4000, got 4001\n"
    assert not never.exists()
    assert main(["qeval", "--model", "SZ", "--comp", "(2,1)", "--order", "4000"]) == 0
    assert capsys.readouterr().out.startswith("q^5 + q^6 + 4q^7 + ")


def test_main_max_weight_has_a_ceiling_checked_before_any_case(capsys, monkeypatch, tmp_path):
    from mzv_lab import suites

    assert suites.MAX_WEIGHT == 9
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda *args: pytest.fail("a suite ran"))
    never = tmp_path / "never.jsonl"
    for argv in (["verify", "--suite", "all"], ["export-vectors", "--suite", "ihara-s", "--out", str(never)]):
        assert main([*argv, "--max-weight", "10"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: --max-weight must be <= 9, got 10\n"
    assert not never.exists()


def test_main_letter_ceiling_is_one_line_usage_error(capsys):
    assert cli.MAX_LETTERS == 1_000_000
    err = "error: expression builds more than 1000000 letters\n"
    for flag, text in (("h", "z{300000000}"), ("H", "(300000000)"), ("H", "p + (300000000)")):
        assert main(["product", "--alphabet", flag, text]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == err
    start = time.perf_counter()
    assert main(["product", "--alphabet", "h", "z{1000000000000}"]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == err
    # a part or an alphabet that the codec refuses is still named first, on every composition
    # path (a bare operand, a COMP atom, a z-block): nothing is counted or built for it
    syntax = "error: syntax error at position {}: {}\n"
    for flag, text, want in (
        ("h", "(0,1000000000)", "error: H2 z-block needs k >= 1, got 0\n"),
        ("h", "z{2} + (0,1000000000)", syntax.format(7, "H2 z-block needs k >= 1, got 0")),
        ("h", "z{0}z{1000000000}", syntax.format(0, "H2 z-block needs k >= 1, got 0")),
        ("pdy", "(1)", "error: no z-block codec on alphabet PDY\n"),
        ("pdy", "d + (1)", syntax.format(4, "no z-block codec on alphabet PDY")),
        ("pdy", "dz{1}", syntax.format(0, "no z-block codec on alphabet PDY")),
    ):
        assert main(["product", "--alphabet", flag, text]) == 2
        assert capsys.readouterr().err == want


def test_letter_ceiling_counts_every_word_of_the_expression(monkeypatch):
    monkeypatch.setattr(cli, "MAX_LETTERS", 10)
    # z{5} has 5 letters on x0/x1; (4) is p^4 y, 5 letters on p/y
    for text, flag in (("z{5} + z{4}x0", "h"), ("(4) sh (4)", "H"), ("py sh z{3}yyyy", "H")):
        parse_expr(text, flag)
        with pytest.raises(words.WordError, match=r"^expression builds more than 10 letters$"):
            parse_expr(text + " + x1" if flag == "h" else text + " + y", flag)
    assert cli._parse_operand("(4,4)", "H", Fraction(1)) == zp(4, 4)
    assert cli._parse_operand("(4,4)", PY, Fraction(1)) == zp(4, 4)  # a flag or an Alphabet
    with pytest.raises(words.WordError, match=r"^expression builds more than 10 letters$"):
        cli._parse_operand("(4,5)", "H", Fraction(1))


def test_main_square_op_names_the_input_outside_its_domain(capsys):
    assert main(["coproduct", "--kind", "square-op", "--alphabet", "H", "ypy"]) == 2
    out = capsys.readouterr()
    err = "error: Word(PY:ypy) does not start with p; not in the domain of coproduct_square_op\n"
    assert out.out == "" and out.err == err
    # the unit and the p/y words that start with p are served
    served = {"pyp": "1 (x) pyp + py (x) p + pyp (x) 1", "p": "1 (x) p + p (x) 1", "1": "1 (x) 1"}
    for text, want in served.items():
        assert main(["coproduct", "--kind", "square-op", "--alphabet", "H", text]) == 0
        assert capsys.readouterr().out == want + "\n"


def test_main_infinitesimal_coproduct_of_600_parts_equals_square_op(capsys):
    comp = "(" + ",".join(["1"] * 600) + ")"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        assert main(["coproduct", "--kind", "infinitesimal", "--alphabet", "H", comp]) == 0
        infinitesimal = capsys.readouterr().out
    finally:
        sys.setrecursionlimit(limit)
    assert main(["coproduct", "--kind", "square-op", "--alphabet", "H", comp]) == 0
    assert infinitesimal == capsys.readouterr().out and infinitesimal.count(" (x) ") == 601


def test_main_scalar_division_by_zero_is_one_line_usage_error(capsys):
    assert main(["product", "--alphabet", "H", "1/0*py"]) == 2
    err = capsys.readouterr().err
    assert err == "error: division by zero at position 1\n"
    # the message names the position of the '/', not the number
    assert main(["product", "--alphabet", "h", "x1 + 12/" + "0" * 4000]) == 2
    assert capsys.readouterr().err == "error: division by zero at position 7\n"


@pytest.mark.parametrize(
    "suite, flag",
    [
        ("rota-baxter", "--order"),
        ("zhao-duality", "--max-weight"),
        ("all", "--order"),
        ("all", "--max-weight"),
    ],
)
def test_main_verify_rejects_a_negative_bound_before_any_case(capsys, monkeypatch, suite, flag):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda *args: pytest.fail("a suite ran"))
    assert main(["verify", "--suite", suite, flag, "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {flag} must be >= 0, got -1\n"


def test_main_export_rejects_a_negative_order_before_writing(capsys, tmp_path):
    out = tmp_path / "never.jsonl"
    assert main(["export-vectors", "--suite", "rota-baxter", "--order", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --order must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("evaluator", ["chain", "rota-baxter"])
def test_main_qeval_negative_order_is_one_line_usage_error(capsys, evaluator):
    argv = ["qeval", "--model", "OOZ", "--comp", "(2,-1)", "--order", "-1", "--evaluator", evaluator]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: order must be >= 0, got -1\n"


def test_order_0_is_a_bound_not_an_absence(capsys, monkeypatch, tmp_path):
    orders = set()
    eval_word = qseries.eval_word

    def spy(model, x, order):
        orders.add(order)
        return eval_word(model, x, order)

    monkeypatch.setattr(qseries, "eval_word", spy)
    bounds = ["--suite", "zhao-duality", "--order", "0", "--max-weight", "2"]
    assert main(["verify", *bounds, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cases"] == 21 and doc["failures"] == [] and orders == {0}
    out = tmp_path / "order0.jsonl"
    assert main(["export-vectors", *bounds, "--out", str(out)]) == 0
    header, *records = map(json.loads, out.read_text().splitlines())
    assert header["order"] == 0 and len(records) == 21
    assert all(r["inputs"]["order"] == 0 and r["lhs"]["order"] == 0 for r in records)


# sha256 of the default-bound export of every suite, in registry order: the text and
# JSON of every case's inputs and both computed sides, byte for byte
@pytest.mark.parametrize(
    "suite, digest",
    [
        ("classical-products", "6fd67bd4f0fe80164bd0b392ace94554d53d6edd068e6e92f501ad3cbfb325fc"),
        ("thm-derivation", "94ddf2fc03f060bd37c927c57aecaa2c133f9e394158795c4b8b29bb8d2d33d6"),
        ("hoffman-ohno", "8a78781d98499fe693a62c36f9594cdcbaaa5f90019b033ff1cd66f828ff1853"),
        ("thm-szdual", "c4e7cf20ddfde87e536799bd6e6daf432eb9e595997d542bdef6270414dbe8cf"),
        ("thm-oozdual", "ba023d85bb43b1f7bfe075a34ed106defac5b61d14d66486e573e7fc85653f55"),
        ("zhao-duality", "a1383e52cbba7aa498df108a4d5b5ccd180f95fbd6ec3f0647a67a0e54a5e69a"),
        ("bradley-duality", "d2c3b08db6609fac8b4faf20e44947e72aa13df717bf3890f2ce568dd98a2a49"),
        ("ooz-szstar-duality", "23aa955c7955856fe9e8cc94ed03d34f5df1faf6640a0a24b210de97743c0c4a"),
        ("model-transfers", "ea8da250d31e0eea0d0fb879b12de0a0da4c71ac43c2b82c9e0535a6eceb478e"),
        ("ooz-duality-families", "2d1a4e3963b85a02398cf45428ccf66d2eaee63868674b64c2cb9cce4f3106ae"),
        ("qseries-spot-values", "721aee0c04a02fddb7a6e3f597e3db1da72b68f7148504f9b639c2f41be2f308"),
        ("characters", "6ab6c1081be9a49e2a434d0d47f74935286af3cd1e07236b8c6ab2c4222944b9"),
        ("ihara-s", "d018f7cf38b11f4d13371c39542ce6b89ae6f943a5d20f2c4c731a5eea6dd27f"),
        ("pdy-shuffle", "0c52f2b21645c08b70c62ae05171ebe2ce11dcc3480c9cf76533a315336325df"),
        ("infinitesimal", "a8becd409bd289bc28c66e2d3b740406e850e004a8d4509150afd4c127f24a86"),
        ("ooz-explicit-vs-recursive", "e7f9fd45cf1bb864ca8f426d90872eb8213cf0d7bcdbe9fe80238178af786468"),
        ("star-shuffle", "d62156bb2bc0ed3959a4017da52913d35c1d5eed0c6e762fb0ff9036360f5b34"),
        ("thm-szsdual", "b6f8276bcca78b01832bedaea1ff975f31626bee114b53233ac831390124ae04"),
        ("hopf-axioms", "2d84c227b9c1b1bc01a74b1f1d1d6d2ddd42a234d932b26dd0a0f9b8cb1ae0eb"),
        ("rota-baxter", "92e8da739542775fe652e304cb1a953271add0f76d30dbce945eef0f82eab999"),
        ("float-oracle", "d2e0fddfbb521f04e74afaffc9cccd3dc23a2018bda283d34e723320124e2a47"),
    ],
)
def test_export_vectors_output_is_pinned(tmp_path, suite, digest):
    out = tmp_path / f"{suite}.jsonl"
    export_vectors(suite, str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# case count and sha256 of the json.dumps([case_id, inputs]) lines of each
# suite at default bounds, in registry order; enumeration evaluates nothing
SUITE_PINS = [
    ("classical-products", 318, "15c5392216a1f4e7f8b886c151d55b211640058cf5dd915e20bebcd6fd6ffdc0"),
    ("thm-derivation", 129, "f304c3cc2d3b818d4a4c4051d17479045e8783a179a96be6b304e5733524a199"),
    ("hoffman-ohno", 266, "581e08629b3033146a9c0796fbcfa038556b788d5c2618b44c2a82a0cae91eda"),
    ("thm-szdual", 100, "8d4d3423c1c1941992b352dd78854661f36d0f0d9fcd666d3630e371f429ff47"),
    ("thm-oozdual", 100, "1c0e3b47280d07e7d8c9ede259bbaacf7e2251969dbd5adafc8b6c4bd123ddd2"),
    ("zhao-duality", 252, "dd6d3a0bcccb514953fcc1324c56c781ac03f673dc52ea064abf18d502ce5d66"),
    ("bradley-duality", 16, "6ec30be32ae98fe0ff0380a5c87bb13dcce8bbc7b7babbfc3f1f8c848ecb7b08"),
    ("ooz-szstar-duality", 252, "ecb63f9e3f556b6920521e83ba9cb85c40b8c82102123b5a222c4a59b1f655a0"),
    ("model-transfers", 268, "0e92a0896be5c9c10953e0b8892b73e38e84fa7797cc889c3f70d4869b892f8b"),
    ("ooz-duality-families", 268, "86ba54410f865977eebc0948f2aaaf23c0b164fe1fb8ed61c7d26d01182dcaa7"),
    ("qseries-spot-values", 3, "5b696d44d80c98628a7cb6d6bb9a6e56875b9bd5d71cd0962f4737cd69e37326"),
    ("characters", 1152, "edf7af0959a28f39f547d2194ac264831cff2369058d817e6e9f863dfb9605db"),
    ("ihara-s", 4652, "c013b8388d8b59108f8a3e180da2c2c319ae4f642f47a27cdcdcfbdc9a1a6fbc"),
    ("pdy-shuffle", 6603, "12d4e35dd43d6842e9e19259e86f41709254eae539a4a73f86df994e87ec8c26"),
    ("infinitesimal", 596, "71545059370c3a91a38185e52eb42ad87800549d59ed7973586444b786b1f321"),
    ("ooz-explicit-vs-recursive", 934, "70f4cb3df523a93e6c4e9b7b1f8f291068ff59f6d601d2a33cf78cbf38f6cf20"),
    ("star-shuffle", 1555, "a399b8c40c528566a8b12c7015801b1a703e1d0e37684c62857dd7130468b9c7"),
    ("thm-szsdual", 69, "2e63480f7d9562ab29f64f457059555a22cc4c91fccd0376432ae443551304d6"),
    ("hopf-axioms", 960, "1c43ba86bac1ef7d2ddb70453de4cc31235a84ba6c84519ad1eff6bbb5ebd9d5"),
    ("rota-baxter", 176, "a0d8141cc73f09e9c962c918bc343d26e1e2065ad6e6181fed22200b20b76003"),
    ("float-oracle", 3, "f3d6f5442ccf697325783eda56fde887bf4ab775430b88745b71f25400e73947"),
]


def test_registry_order_is_pinned():
    assert list(SUITES) == [name for name, _, _ in SUITE_PINS]


@pytest.mark.parametrize("suite, count, digest", SUITE_PINS)
def test_suite_cases_are_pinned(suite, count, digest):
    lines = [json.dumps([case.case_id, case.inputs]) + "\n" for case in SUITES[suite](None, None)]
    assert len(lines) == count
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest


# sha256 of the text and --json output of one command of each product kind,
# each named map and each coproduct, p/d/y operands included
CLI_PINS = [
    (
        ["product", "--kind", "shuffle", "--alphabet", "h", "(2,1)", "(3,1)"],
        "dc3581f12c7bb101cc73e33aee0595cb4379b384b46ebc273dc1b0401dc365ed",
        "d7c275e700b3b8442afe84c036f0b98b1f0c0c497c536f8925c26c8003e363d5",
    ),
    (
        ["product", "--kind", "shuffle", "--alphabet", "H", "--lambda", "2", "(1,0,2)", "(2,1)"],
        "14f3803f3dd17ec59e576399401956f2d21f5a7e490ec4eb2596e67c3ad872d5",
        "7609d5c589d3057ad962770e4d9ba160e72b9a4a5e2ea0fae493f8a05f9a72c3",
    ),
    (
        ["product", "--kind", "shuffle", "--alphabet", "pdy", "--lambda", "1/2", "dyd", "pyp"],
        "0a407f5b96652d32b2b076b1a753ed09418dc28d0cb7de8847b7a735af3ff998",
        "60cecbc85449294fed5cf896d584c4e530c0fbabeb00c7aefeac9f41c7243320",
    ),
    (
        ["product", "--kind", "shuffle", "--alphabet", "pdy", "--lambda", "2", "ddy", "py"],
        "599a5ad6366f6225ffa0ce6a0b2c51c99de074ac360432e57780b75a8a7cf739",
        "f1e2f12ae7868220070c6ee35e9bd96f6546f173e13019ef40cd36ba58f09e4b",
    ),
    (
        ["product", "--kind", "quasi", "--alphabet", "h", "(2,1,3)", "(1,2)"],
        "27b50e483643f0073cdf03eac613bcd6932fed6a86ff0b70473d46528c69ceed",
        "e7aea60b5adc67f02e297f4b7ced933b53c99bd16c4cb73dc8a938af037e832b",
    ),
    (
        ["product", "--kind", "quasi", "--alphabet", "H", "--lambda=-1/2", "(1,0,2)", "(0,1)"],
        "c51ed7ed2122c656bef3716016e2ee3dfcee85630a0d680032ea233e1fb451cb",
        "b7f1b32b2e3da926aa0979474abbf08867e791f0e0fb6ccbd1d15318f9268f9c",
    ),
    (
        ["product", "--kind", "square", "--alphabet", "h", "(2,1)", "(2,2)"],
        "3b1f7a9d069e8909f1e8176e860ce9b10cb36614f04d01c94d731285ee3a8a1e",
        "c3209f93cab853f136cfc03edfa7d588f0f2efe346d841b66e04a9f4c306e49a",
    ),
    (
        ["product", "--kind", "square", "--alphabet", "H", "--lambda", "3", "(1,0)", "(2,1)"],
        "d4405debcc32f6330054575ef5c47ccf8111d4f83813541a888d1552135fed1f",
        "c9b8870d593180e98d2dff947fded01baf24cf14d9a47464b9e00bae92d2ed4e",
    ),
    (
        ["product", "--kind", "star", "--alphabet", "h", "(2,1)", "(1,2)"],
        "fbc7d18284c26613d16a8608685defca201bc7fa0dff965223fac3f4572f4824",
        "1d456476c9c040597ccd64b10111b6878c3e4a3f36a7f56d6a650e9d2f3c0337",
    ),
    (
        ["product", "--kind", "star-alt", "--alphabet", "h", "(2,1)", "(1,2)"],
        "fbc7d18284c26613d16a8608685defca201bc7fa0dff965223fac3f4572f4824",
        "1d456476c9c040597ccd64b10111b6878c3e4a3f36a7f56d6a650e9d2f3c0337",
    ),
    (
        ["product", "--kind", "ooz", "--alphabet", "H", "(2,0,1)", "(1,1)"],
        "d3264236404779275d1ef518b8005932c507202b86eb4250043cfa7e054a63be",
        "68da6a9df967117e1f079973ccb36a7d3bb5b23fbd16721fa6ab2f3f75451bfa",
    ),
    (
        ["product", "--kind", "ooz-square", "--alphabet", "H", "(2,1)", "(1,0,1)"],
        "d47643afa7effa084af0ec2bcc746b2f5ee969483f81303bbe61ea95843be73e",
        "afbaabe3f242da0a1163e5af688c3747aa1e44b5fa255a12de8697e5ef402596",
    ),
    (
        ["product", "--kind", "ihara-circ", "--alphabet", "H", "(2)", "(1,0) + 2*(3,1) - py"],
        "7ca92711b236ff8c667b5827bd6704c05f6bf2272ba67f5317047c60f9de6646",
        "95b0eb9e412f418ec8d8b424402ff79b75c4870be1ab23810c31f68a5ac15af5",
    ),
    (
        ["product", "--alphabet", "h", "z{2}x0x1 sh z{3} - 1/2*z{2} * z{2}"],
        "be2aedde7c5b6a25673687dbe9e03a2b1cd2a451ab0cda00efc49a2904f22512",
        "e0d3adad73a5e77e6d7a2436d1312d6e8cb2e0b22addc5afaa50f5b9a9576004",
    ),
    (
        ["map", "--name", "tau", "--alphabet", "h", "(3,1,2)"],
        "1c27507d116c24451810a328119ae4ccc4ebcf4f5b287a73ef37ad27c72f590c",
        "4add67c527e80af49405913daa06cb038a44106f2521c4486ff10dd3e8d7c9a8",
    ),
    (
        ["map", "--name", "tautilde", "--alphabet", "H", "(2,0,1)"],
        "0d464db23a73287f995bf7c7fed10635fb761ae7704bfe42141982390457b1be",
        "f39ce8b180068c15cbb1a3b5f2ad63bd369510158a2014ea113985dd40c65656",
    ),
    (
        ["map", "--name", "U", "--alphabet", "h", "(3,2)"],
        "7257bea34266d3e04b3a6c24984e8ed654c7109763c7e3434538289e886ea8ec",
        "8649e33349d1ecdb87e3d444b6203757facfba5d8c028d71557d69d0d9b62743",
    ),
    (
        ["map", "--name", "Uinv", "--alphabet", "h", "(3,2)"],
        "c7c477696b3c8d81499073fcd99f72cc0cb3525ecff5171cf10032149e7c4acf",
        "b476d8a91230e33a93e030ae22581cc70642a367292cc474a234a6f8ab5ea8af",
    ),
    (
        ["map", "--name", "V", "--alphabet", "H", "(2,1,0)"],
        "c8ee676c07f8836f2debb4db7d51b74f76e0fefc985cd91d19d8eca33cf2422c",
        "af6939f88597771cda446408d5a18bccb8ae09bab1c6d458b31d0a420df8cd3c",
    ),
    (
        ["map", "--name", "Vinv", "--alphabet", "H", "(2,1,0)"],
        "66a37efc5aeefff99f98548e005d89b0c9d536284679c315fa9c9f81e4625698",
        "3caa5fe2f8b62e8cfbd23dbe22664472df269ff8a6dd8855343af35aa8fd2fb8",
    ),
    (
        ["map", "--name", "S", "--alphabet", "H", "(1,0,2)"],
        "ca4d6f5ace231252f9a8ea0ea6467027bb6a0ba91c6322c243ed04ed78fbb843",
        "8bef228b28d6df529b7446e19a0599cf69dc3c37267d7e9085ba91cc58e33b14",
    ),
    (
        ["map", "--name", "Sinv", "--alphabet", "H", "(1,0,2)"],
        "885c41875c86fcb0502e1ea892aef049ae6bd6e398fa4f8b81e54e1870ea35b3",
        "4885f84299293c9b8a6a138f116b070f2b66b0edf28f9a68909b86b79e37a031",
    ),
    (
        ["map", "--name", "dual1", "--alphabet", "H", "(2,1)"],
        "eddb9c83fc153a5343c0bb4bf7b10b757b453cfa70680217d9c7ce52dabf30db",
        "5daa49d55a533d70f6d39b82532d7ff2ba5531821769d7cff4397587036864d8",
    ),
    (
        ["map", "--name", "dual2", "--alphabet", "h", "(3,1)"],
        "cc41641669ed11eb7967deff1170985cdca5108c03ae9b096b0274d74aac29ae",
        "35a18cdf80e8c5eecee679a9e92423301538e6a8b9701c11127dbc8062c6e331",
    ),
    (
        ["map", "--name", "dn:2", "--alphabet", "h", "(2,1,1)"],
        "b16f0a2688091761025d86b1f5d16d01d4e321388018b5c496c711097f912c56",
        "a8c8abbdac5119c839d5cc368f3e1f0c3f8209a6dcec029d0cae4521ace146f4",
    ),
    (
        ["coproduct", "--kind", "deconcat", "--alphabet", "h", "(2,1,3)"],
        "f1d7e5e86f144bf41c434bb3bd87d415ccec5b5abe3fbaa0eae3ca5d6bda00d1",
        "5c69a1621555dddfb28eeb4cf856060a67a3f4b36c8bfbc5830090b508ae0cce",
    ),
    (
        ["coproduct", "--kind", "square-op", "--alphabet", "H", "(2,0,1)"],
        "9dd677a629ec04904ff87eb49a8552764413a071b6c257e47bdfd2eff2dd836c",
        "ddefa17fc21c9ffbe44e1773a95b6d977da2a9cdf4ee3264db22f079823e7529",
    ),
    (
        ["coproduct", "--kind", "infinitesimal", "--alphabet", "H", "(1,0,2)"],
        "2659abf473dfc8605ae8a48e8a0932157dfa12320a4980aab99baaf9d958d845",
        "f77df93f57bdefec009abd3584d035c30e2731215c365ca07331a51666a2b9b8",
    ),
    (
        ["coproduct", "--kind", "infinitesimal", "--alphabet", "pdy", "dypy"],
        "5fbf8568b743b02e11efb3dabb085daf6726b0a733cea3933d1a89bc7be170c4",
        "68d637fe5e4f4da63156a042b4ed227ada1ea55255e0aef994f3a79060e8ab84",
    ),
]


@pytest.mark.parametrize("argv, text_digest, json_digest", CLI_PINS)
def test_cli_output_is_pinned(capsys, argv, text_digest, json_digest):
    for extra, digest in (([], text_digest), (["--json"], json_digest)):
        assert main(argv + extra) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, err",
    [
        (["product", "--alphabet", "h", "x0p"], "syntax error at position 0: letter 'p' not in alphabet H2"),
        (["product", "--alphabet", "h", "z{2}x0q"], "syntax error at position 6: unknown letter 'q'"),
        (["map", "--name", "tau", "x0 + x1p"], "syntax error at position 5: letter 'p' not in alphabet H2"),
        (
            ["coproduct", "--kind", "infinitesimal", "--alphabet", "pdy", "px1"],
            "syntax error at position 0: letter 'x1' not in alphabet PDY",
        ),
    ],
)
def test_main_bad_letter_is_one_line_usage_error(capsys, argv, err):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {err}\n"


def _src_env() -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    argv = ["map", "--name", "tau", "--alphabet", "h", "(3,1,2)"]
    assert main(argv) == 0
    once = len(built)
    assert once > 1  # the top-level parser and its subcommand parsers
    for _ in range(3):
        assert main(argv) == 0
    assert main(["verify", "--suite", "no-such-suite"]) == 2
    assert len(built) == once


def test_usage_error_leaves_the_parser_reusable(capsys):
    for bad in (["product", "--kind", "nope", "z{2}", "z{1}"], ["map", "--alphabet", "h", "x1"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    argv = ["product", "--kind", "square", "--alphabet", "H", "--lambda", "3", "(1,0)", "(2,1)", "--json"]
    assert main(argv) == 0
    fresh = subprocess.run(
        [sys.executable, "-m", "mzv_lab.cli", *argv], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert capsys.readouterr().out == fresh.stdout


def test_cli_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import mzv_lab.cli\n"
        "print(len(built))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_main_verify_failure_exit_code(capsys, monkeypatch):
    def broken_suite(mw, order):
        yield cli.Case("always-fails", {}, lambda: (1, 2))

    monkeypatch.setitem(SUITES, "broken", broken_suite)
    assert main(["verify", "--suite", "broken"]) == 1
    out = capsys.readouterr().out
    assert "always-fails" in out and "FAILED" in out


def test_failing_case_shows_both_sides_as_z_block_text():
    from mzv_lab import suites

    x = zh(2, 1)
    f = suites._failure(cli.Case("unequal", {"w": "z{2}z{1}"}, lambda: (x, hopf.deconcat(x))))
    assert f == ("unequal", {"w": "z{2}z{1}"}, "z{2}z{1}", "1 (x) z{2}z{1} + z{2} (x) z{1} + z{2}z{1} (x) 1")


def test_main_export_into_a_missing_directory_is_one_line_runtime_error(capsys, tmp_path):
    path = tmp_path / "missing" / "vec.jsonl"
    assert main(["export-vectors", "--suite", "zhao-duality", "--max-weight", "0", "--out", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def test_main_verify_passing(capsys):
    assert main(["verify", "--suite", "qseries-spot-values", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cases"] == 3 and doc["failures"] == []


# -- suites and export ------------------------------------------------------------

def test_run_suite_rejects_a_negative_bound_for_every_suite(capsys, tmp_path):
    with pytest.raises(words.WordError, match=r"^--max-weight must be >= 0, got -1$"):
        run_suite("zhao-duality", -1)
    with pytest.raises(words.WordError, match=r"^--order must be >= 0, got -1$"):
        run_suite("rota-baxter", None, -1)
    with pytest.raises(words.WordError, match=r"^--order must be >= 0, got -1$"):
        export_vectors("rota-baxter", str(tmp_path / "never.jsonl"), None, -1)
    assert not (tmp_path / "never.jsonl").exists()
    # the bounds are checked before the name
    assert main(["verify", "--suite", "nope", "--max-weight", "-1"]) == 2
    assert capsys.readouterr().err == "error: --max-weight must be >= 0, got -1\n"


def test_cli_reexports_the_suite_runner():
    from mzv_lab import suites

    assert cli.run_suite is suites.run_suite
    assert cli.export_vectors is suites.export_vectors
    assert cli.value_json is suites.value_json
    keys = list(run_suite("qseries-spot-values").to_json())
    assert keys == ["suite", "cases", "failures", "wall_time"]


def test_pair_enumeration_at_max_weight_9_is_quick():
    from mzv_lab import suites

    start = time.perf_counter()
    cases = suites._suite_cases("ooz-explicit-vs-recursive", 9, None)
    assert time.perf_counter() - start < 10 and len(cases) == 85120


def test_unknown_suite_raises():
    with pytest.raises(Exception):
        run_suite("nope")


def test_unknown_suite_is_one_lookup_for_verify_and_export(capsys, tmp_path):
    known = ", ".join(sorted(name for name, _, _ in SUITE_PINS))
    assert main(["verify", "--suite", "nope"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: unknown suite 'nope'; known: {known} or 'all'\n"
    path = tmp_path / "never.jsonl"
    assert main(["export-vectors", "--suite", "nope", "--out", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: unknown suite 'nope'; known: {known}\n"
    assert not path.exists()


def test_suites_module_imports_alone_and_cli_reexports_it():
    code = (
        "import sys\n"
        "import mzv_lab.suites as suites\n"
        "assert 'mzv_lab.cli' not in sys.modules\n"
        "from mzv_lab import cli, words\n"
        "from mzv_lab.cli import format_word\n"
        "print(cli.SUITES is suites.SUITES, cli.Case is suites.Case, format_word is words.format_word)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", "True", "True"]


def _fresh(code: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    ).stdout


LAZY = ("mzv_lab.suites", "mzv_lab.qseries", "mzv_lab.hopf", "dataclasses")


def test_cli_import_and_product_load_no_lazy_module():
    code = (
        "import sys\n"
        f"lazy = {LAZY!r}\n"
        "from mzv_lab import cli\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "assert cli.main(['product', '--kind', 'quasi', '--alphabet', 'h', 'z{2}', 'z{3}']) == 0\n"
        "assert cli.main(['map', '--name', 'tau', '--alphabet', 'h', 'z{5}z{1}']) == 0\n"
        "print([m for m in lazy if m in sys.modules])\n"
    )
    assert _fresh(code).splitlines() == ["[]", "z{5} + z{3}z{2} + z{2}z{3}", "z{3}z{1}z{1}z{1}", "[]"]


def test_no_module_of_the_package_imports_dataclasses():
    code = (
        "import sys\n"
        "import mzv_lab.suites\n"
        "print(sorted(m for m in sys.modules if m.startswith('mzv_lab')), 'dataclasses' in sys.modules)\n"
    )
    loaded = ["mzv_lab", "mzv_lab.hopf", "mzv_lab.maps", "mzv_lab.products", "mzv_lab.qseries",
              "mzv_lab.suites", "mzv_lab.words"]
    assert _fresh(code).strip() == f"{loaded} False"


def test_model_choices_are_the_qseries_models(capsys):
    assert cli._MODEL_CHOICES == sorted(qseries.MODELS)
    with pytest.raises(SystemExit) as exc:
        main(["qeval", "--model", "nope", "--comp", "(2)"])
    assert exc.value.code == 2
    assert f"--model {{{','.join(sorted(qseries.MODELS))}}}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["coproduct", "--kind", "infinitesimal", "--alphabet", "H", "pypy + 1/2*ppy"],
        ["qeval", "--model", "OOZ", "--comp", "(2,1)", "--order", "8"],
        ["qeval", "--model", "OOZ", "--comp", "(2,1)", "--order", "8", "--evaluator", "rota-baxter", "--json"],
        ["qeval", "--model", "BZ", "--expr", "z{3} - 2*x0x1x1", "--order", "9"],
        ["verify", "--suite", "bradley-duality", "--json"],
        ["export-vectors", "--suite", "bradley-duality", "--out", "vectors.jsonl"],
    ],
)
def test_lazily_loading_commands_match_in_a_fresh_interpreter(capsys, monkeypatch, tmp_path, argv):
    for side in ("fresh", "here"):
        (tmp_path / side).mkdir()
    fresh = subprocess.run(
        [sys.executable, "-m", "mzv_lab.cli", *argv],
        cwd=tmp_path / "fresh", env=_src_env(), capture_output=True, text=True,
    )
    monkeypatch.chdir(tmp_path / "here")
    assert main(argv) == fresh.returncode == 0
    outs = [fresh.stdout, capsys.readouterr().out]
    if argv[0] == "verify":  # wall_time is the one field that is a measurement
        outs = [{**json.loads(out), "wall_time": None} for out in outs]
    assert outs[0] == outs[1]
    if argv[0] == "export-vectors":
        assert (tmp_path / "fresh/vectors.jsonl").read_text() == Path("vectors.jsonl").read_text()


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
        assert json.loads(cli.poly_json(products.square_lambda(u, v, lam))) == rec["lhs"]
        assert json.loads(cli.poly_json(products.shuffle_lambda(u, v, lam))) == rec["rhs"]
        assert rec["lhs"] == rec["rhs"]


def test_export_vectors_empty_bound_writes_header_only(tmp_path):
    out = tmp_path / "empty.jsonl"
    n = export_vectors("thm-szdual", str(out), 0, None)
    lines = out.read_text().splitlines()
    assert n == 0 and len(lines) == 1
    assert json.loads(lines[0])["cases"] == 0


def _chain_sum_passes(monkeypatch):
    # the model of each chain-sum pass that evaluates at least one uncached composition
    evaluate, passes = qseries._eval_models, []

    def counted(tag, comps, n):
        if any((tag, c, n) not in qseries._EVAL_CACHE for c in comps):
            passes.append(tag)
        return evaluate(tag, comps, n)

    monkeypatch.setattr(qseries, "_eval_models", counted)
    qseries.clear_caches()
    return passes


def test_a_q_suite_evaluates_its_words_in_one_pass_per_model(monkeypatch):
    passes = _chain_sum_passes(monkeypatch)
    assert run_suite("characters").passed
    assert sorted(passes) == ["OOZ", "SZ", "SZstar"]  # not one pass per case


def test_a_q_suite_computes_each_case_operands_once(monkeypatch):
    # characters calls shuffle_lambda in three of its six checks per pair, once per case
    shuffle, calls = products.shuffle_lambda, []
    monkeypatch.setattr(products, "shuffle_lambda", lambda *a: calls.append(a) or shuffle(*a))
    qseries.clear_caches()
    rep = run_suite("characters")
    assert rep.passed and len(calls) == rep.cases // 6 * 3


@pytest.mark.parametrize("outside, want_passes", [(True, ["BZ", "BZ"]), (False, ["BZ"])])
def test_a_q_suite_case_that_raises_fails_alone(monkeypatch, outside, want_passes):
    from mzv_lab import suites

    def q_suite(mw, order):
        word = lambda *c: z_encode(c, H2)
        q = suites._at_order(order, {"BZ": [word(2, 1), word(3)] + [word(1, 1)] * outside})
        cases = [
            cli.Case("in", {}, lambda: (q("BZ", word(2, 1)) * q("BZ", word(3)), q("BZ", word(3)) * q("BZ", word(2, 1)))),
            cli.Case("raises", {}, lambda: (qseries.QPoly(-1), 0)),
            cli.Case("in-too", {}, lambda: (q("BZ", word(3)) - q("BZ", word(3)), qseries.QPoly(order))),
        ]
        if outside:
            cases.insert(1, cli.Case("outside", {}, lambda: (q("BZ", word(1, 1)), 0)))
        return cases

    monkeypatch.setitem(SUITES, "q-mixed", q_suite)
    passes = _chain_sum_passes(monkeypatch)
    rep = run_suite("q-mixed", None, 12)
    want = [("raises", "raised WordError: order must be >= 0, got -1")]
    if outside:
        want.insert(0, ("outside", "raised NotInSubalgebraError: BZ needs first z-part >= 2, got (1, 1)"))
    assert [(f.case_id, f.lhs) for f in rep.failures] == want
    # one pass for all the words, unless their sum is refused: then each case evaluates its own
    assert passes == want_passes
    assert rep.cases == 3 + outside


def test_every_registered_suite_runs_small():
    for name in SUITES:
        rep = run_suite(name, 2, 6)
        assert rep.passed, rep.text()


def test_run_suite_all_aggregates():
    rep = run_suite("all", 2, 6)
    assert rep.suite == "all" and rep.passed and rep.cases > 0


def test_clear_caches_empties_every_module_memo():
    # every module-level cache is a registered, bounded Memo; one call empties them all
    from mzv_lab import suites

    modules = (cli, hopf, maps, products, qseries, suites, words)
    found = {
        f"{m.__name__}.{name}": v
        for m in modules
        for name, v in vars(m).items()
        if name.endswith(("_MEMO", "_CACHE")) and isinstance(v, dict)
    }
    assert set(found) == {
        "mzv_lab.products._MEMO",
        "mzv_lab.qseries._EVAL_CACHE",
        "mzv_lab.words._PY_WORD_CACHE",
        "mzv_lab.words._H2_WORD_CACHE",
        "mzv_lab.words._COMP_CACHE",
    }
    assert sorted(map(id, found.values())) == sorted(map(id, words.MEMOS))
    words.clear_caches()
    run_suite("all", 3, 6)
    infos = [memo.cache_info() for memo in words.MEMOS]
    assert all(0 < i["size"] <= i["maxsize"] for i in infos), infos
    words.clear_caches()
    assert not any(words.MEMOS), infos
