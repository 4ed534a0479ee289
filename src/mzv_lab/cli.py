"""Command line interface: expression parsing and the argparse front end.

Grammar for expressions (whitespace separates tokens; letters inside a word
are juxtaposed without separators):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | 'sh' | 'sq') factor)*
    factor  := '-' factor | atom
    atom    := WORD | COMP | NUMBER | '(' expr ')'
    WORD    := one or more of: letters (x0 x1 | p y d) or z-blocks z{k}
    COMP    := '(' int (',' int)* ')' | '()'      (z-part composition)
    NUMBER  := int | int '/' int                   (scalar multiple of 1)

'*' denotes the stuffle of the ambient alphabet (deformed by --lambda on p/y
words) or plain scaling when one side is a scalar; 'sh' the (deformed)
shuffle; 'sq' the transferred square product.  A parenthesized list of
integers is always read as a composition, never as a grouped scalar.

Parentheses nest at most ``MAX_NESTING`` deep, and a number has at most as
many digits as int() converts; past either limit the input is a syntax error.
The words of one expression build at most ``MAX_LETTERS`` letters in all,
counted before each word is built (a z-block or composition part counts the
letters it encodes to); past that the input is a usage error.
``map --name dn:<n>`` takes 1 <= n <= ``maps.MAX_DERIVATION``; another index is
a usage error, and so is a word of more z-parts than that for ``S`` or ``Sinv``.
A binomial map (``U``, ``Uinv``, ``V``, ``Vinv``, ``dual1``, ``dual2``) that
would build more than ``maps.MAX_BINOMIAL_TERMS`` terms is a usage error,
counted before any is built.  ``--order`` is at most ``qseries.MAX_ORDER``
(4 000, where both evaluators answer a depth-4 composition within 10 s) for
``qeval``, ``verify`` and ``export-vectors``; a larger order is a usage error.
So, on either evaluator, is a composition whose answer may have coefficients
past the digits str() writes, or whose estimated work passes
``qseries.MAX_WORK`` (the size ceiling, ``qseries._check_size``).

``product``, ``map``, ``coproduct`` and ``qeval --expr`` share one operand path.
Each operand's alphabet is ``--alphabet``, the map's or the model's, else the one
its tokens name (``_infer_alphabet``); the operation is applied to those zeros
first, so what it refuses there (``--order`` too) is refused before any is built.

Exit codes: 0 success, 1 verification failure or runtime error, 2 usage or
syntax error.  A suite case that raises is recorded as a failure and the
run goes on.

Values are written by ``words``' writers, imported here by name.  Importing
this module loads ``words``, ``products`` and ``maps``, which is all
``product`` and ``map`` run.  The rest loads on first use, inside the code
that needs it: ``hopf`` for ``coproduct``, ``qseries`` for ``qeval``, and
``suites`` (the registry, runner and export; it imports every module) for
``verify``, ``export-vectors`` and the names in ``_FROM_SUITES``.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from mzv_lab import maps, products
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    Alphabet,
    EncodingError,
    Poly,
    Rational,
    Word,
    WordError,
    _codec_of,
    format_poly,
    format_tensor,
    format_word,
    poly_json,
    tensor_json,
)

Composition = tuple[int, ...]


# re-exported from mzv_lab.suites, which loads on first access (PEP 562), not with this module
_FROM_SUITES = (
    "SUITES", "Case", "Failure", "SuiteReport", "run_suite", "export_vectors", "value_json",
    "value_text",
)


def __getattr__(name: str):
    if name in _FROM_SUITES:
        from mzv_lab import suites

        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class Token(NamedTuple):
    kind: str  # WORD COMP NUM OP LPAREN RPAREN PLUS MINUS STAR END
    value: object
    pos: int


# One token at a position, after optional whitespace.  Each alternative is one
# named group, the token's kind; the last two are the end of the text and any
# character that starts no token.  A composition is what int() reads in every
# comma-separated part; a WORD is juxtaposed letters, decoded by _chunk_items.
_INT = r"[+-]?\d(?:_?\d)*"
_TOKEN = re.compile(
    r"\s*(?:(?P<NUM>\d+(?:/\d*)?)"
    r"|(?P<OP>s[hq])(?![a-z0-9{}])"
    r"|(?P<WORD>[a-z][a-z0-9{}]*)"
    rf"|(?P<COMP>\(\s*(?:{_INT}\s*(?:,\s*{_INT}\s*)*)?\))"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<PLUS>\+)|(?P<MINUS>-)|(?P<STAR>\*)"
    r"|(?P<END>\Z)|(?P<BAD>.))",
    re.DOTALL,
)
_PART = re.compile(_INT)
_PARENS = re.compile(r"[()]")

# the parser descends a few frames per parenthesis level, so deeper nesting is
# refused in tokenize rather than left to the interpreter's recursion limit
MAX_NESTING = 100

# the letters one expression may build, counted over all its words before each
# word is built: a z-block or a composition part of a few digits asks for any
# number of them (a single word of 10^6 letters takes about 0.1 s and 40 MB)
MAX_LETTERS = 1_000_000


def _first_unclosed(text: str) -> int:
    """The position of the first '(' that no ')' closes, or -1: one stack pass."""
    opened: list[int] = []
    for m in _PARENS.finditer(text):
        if m[0] == "(":
            opened.append(m.start())
        elif opened:
            opened.pop()
    return opened[0] if opened else -1


def _digits(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # past int()'s limit on the digits it converts
        raise ParseError(f"number too long ({len(text)} digits)", pos) from None


def _number(lexeme: str, pos: int) -> Rational:
    num, slash, den = lexeme.partition("/")
    value: Rational = _digits(num, pos)
    if slash:
        if not den:
            raise ParseError("expected digits after '/'", pos + len(num))
        d = _digits(den, pos + len(num) + 1)
        if not d:
            raise WordError(f"division by zero at position {pos + len(num)}")
        value = Fraction(value, d)
    return value


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    end = depth = 0
    unclosed = _first_unclosed(text)
    while True:
        m = _TOKEN.match(text, end)
        kind = m.lastgroup
        lexeme, pos, end = m[kind], m.start(kind), m.end()
        value: object = lexeme if kind in ("WORD", "OP") else None
        if kind == "NUM":
            value = _number(lexeme, pos)
        elif kind == "COMP":
            try:
                value = tuple(map(int, _PART.findall(lexeme)))
            except ValueError:  # a part past int()'s digit limit: a plain '(' after all
                kind, end = "LPAREN", pos + 1
        elif kind == "BAD":
            raise ParseError(f"unexpected character {lexeme!r}", pos)
        if kind == "LPAREN":
            if pos == unclosed:
                raise ParseError("unbalanced parenthesis", pos)
            depth += 1
            if depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        elif kind == "RPAREN":
            depth -= 1
        tokens.append(Token(kind, value, pos))
        if kind == "END":
            return tokens


# ---------------------------------------------------------------------------
# word-chunk decoding and alphabet inference
# ---------------------------------------------------------------------------

# one item of a word: a z-block (its index read by int()), an unterminated
# z-block, a letter, or any other character
_ITEM = re.compile(r"z\{(?P<z>[^}]*)\}|(?P<open>z\{)|(?P<letter>x[01]|[pdy])|(?P<bad>.)")


def _chunk_items(chunk: str, pos: int) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for m in _ITEM.finditer(chunk):
        kind, at = m.lastgroup, pos + m.start()
        if kind == "letter":
            items.append(("letter", m[kind]))
        elif kind == "z":
            try:
                items.append(("z", int(m[kind])))
            except ValueError:
                raise ParseError("z-block index must be an integer", at) from None
        elif kind == "open":
            raise ParseError("unterminated z-block", at)
        else:
            raise ParseError(f"unknown letter {m[kind]!r}", at)
    return items


def _infer_alphabet(tokens: Sequence[Token]) -> Alphabet:
    if len(tokens) == 2 and tokens[0].kind == "COMP":
        raise WordError("a bare composition needs --alphabet")
    letters = {
        str(v) for t in tokens if t.kind == "WORD"
        for kind, v in _chunk_items(str(t.value), t.pos) if kind == "letter"
    }
    if not letters:
        raise ParseError("alphabet is ambiguous; pass --alphabet", 0)
    for alphabet in (H2, PY, PDY):  # the first that has them all
        if letters.issubset(alphabet.letters):
            return alphabet
    raise ParseError("mixed x0/x1 and p/d/y letters", 0)


def _check_letters(count: int) -> int:
    if count > MAX_LETTERS:
        raise WordError(f"expression builds more than {MAX_LETTERS} letters")
    return count


def _encode(comp: tuple[int, ...], alphabet: Alphabet, built: int = 0) -> Word:
    # comp's interned word, once the codec takes every part and built + its letters <= MAX_LETTERS
    codec = _codec_of(alphabet)
    _check_letters(built + codec.size(comp))
    return codec.words[comp]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], alphabet: Alphabet, lam: Fraction):
        self.tokens = tokens
        self.i = 0
        self.alphabet = alphabet
        self.lam = lam
        self.letters = 0  # built so far, at most MAX_LETTERS

    def _word_from_chunk(self, chunk: str, pos: int) -> Word:
        alphabet, letters = self.alphabet, []
        for kind, v in _chunk_items(chunk, pos):
            if kind == "z":
                try:
                    letters.extend(_encode((v,), alphabet, self.letters + len(letters)).letters)
                except EncodingError as exc:
                    raise ParseError(str(exc), pos) from None
            else:
                if v not in alphabet.letters:
                    raise ParseError(f"letter {v!r} not in alphabet {alphabet.tag}", pos)
                letters.append(v)
        self.letters = _check_letters(self.letters + len(letters))
        return Word._make(alphabet, tuple(letters))

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.next()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.kind}", t.pos)
        return t

    # expr := term (('+'|'-') term)*
    def expr(self) -> Poly:
        acc = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.next()
            acc = acc + self.term() if op.kind == "PLUS" else acc - self.term()
        return acc

    # term := factor (prodop factor)*
    def term(self) -> Poly:
        acc = self.factor()
        while (t := self.peek()).kind in ("STAR", "OP"):
            self.next()
            acc = self._apply(t, acc, self.factor())
        return acc

    def factor(self) -> Poly:
        negate = False
        while self.peek().kind == "MINUS":  # a loop: a long run of '-' takes no frames
            self.next()
            negate = not negate
        return -self.atom() if negate else self.atom()

    def atom(self) -> Poly:
        t = self.next()
        if t.kind == "WORD":
            return Poly.of(self._word_from_chunk(str(t.value), t.pos))
        if t.kind == "COMP":
            try:
                word = _encode(t.value, self.alphabet, self.letters)  # type: ignore[arg-type]
            except EncodingError as exc:
                raise ParseError(str(exc), t.pos) from None
            self.letters += len(word)
            return Poly.of(word)
        if t.kind == "NUM":
            return Poly.unit(self.alphabet).scale(t.value)  # type: ignore[arg-type]
        if t.kind == "LPAREN":
            inner = self.expr()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"expected a word, composition, number or '(', found {t.kind}", t.pos)

    @staticmethod
    def _scalar_of(p: Poly) -> Rational | None:
        if not p.terms:
            return 0
        if len(p.terms) == 1:
            (w, c), = p.terms.items()
            if w.is_unit:
                return c
        return None

    def _apply(self, op: Token, a: Poly, b: Poly) -> Poly:
        if op.kind == "STAR":  # scaling when a side is a scalar
            sa, sb = self._scalar_of(a), self._scalar_of(b)
            if sa is not None:
                return b.scale(sa)
            if sb is not None:
                return a.scale(sb)
        kind, lacking = _INFIX[op.value or op.kind]
        if lacking and self.alphabet is PDY:
            raise ParseError(f"{lacking} on the p/d/y alphabet", op.pos)
        try:
            return _PRODUCT_KINDS[kind](a, b, self.lam)
        except WordError as exc:
            raise ParseError(str(exc), op.pos) from None


# every product by kind, for '--kind' and the infix operators alike; the
# classical product on x0/x1 words, its lambda-deformation on the others
_PRODUCT_KINDS = {
    "shuffle": lambda a, b, lam: products.shuffle(a, b)
    if a.alphabet is H2
    else products.shuffle_lambda(a, b, lam),
    "quasi": lambda a, b, lam: products.quasi_shuffle(a, b)
    if a.alphabet is H2
    else products.quasi_shuffle_lambda(a, b, lam),
    "square": lambda a, b, lam: products.square_classical(a, b)
    if a.alphabet is H2
    else products.square_lambda(a, b, lam),
    "star": lambda a, b, lam: products.shuffle_star(a, b),
    "star-alt": lambda a, b, lam: products.shuffle_star_alt(a, b),
    "ooz": lambda a, b, lam: products.ooz_quasi_shuffle(a, b),
    "ooz-square": lambda a, b, lam: products.ooz_square(a, b),
    "ihara-circ": lambda a, b, lam: products.ihara_circ(a, b),
}


# each infix operator ('*' is the valueless STAR token): its product kind and
# what the p/d/y alphabet lacks for it, if anything
_INFIX = {
    "STAR": ("quasi", "no stuffle"), "sh": ("shuffle", None), "sq": ("square", "no square product")
}


def parse_expr(
    text: str,
    alphabet: Alphabet | str | None = None,
    lam: Fraction | int = 1,
) -> Union[Poly, Composition]:
    """Parse an expression; a bare composition literal comes back as a tuple.

    alphabet may be an Alphabet, one of "h"/"H"/"pdy" (as on the command
    line), or None to infer it from the letters present.
    """
    alphabet = _alphabet(alphabet)
    tokens = tokenize(text)
    if len(tokens) == 2 and tokens[0].kind == "COMP":
        return tokens[0].value  # type: ignore[return-value]
    parser = _Parser(tokens, alphabet or _infer_alphabet(tokens), Fraction(lam))
    out = parser.expr()
    parser.expect("END")
    return out


_ALPHABET_FLAGS = {"h": H2, "H": PY, "pdy": PDY}


def _alphabet(flag: Alphabet | str | None) -> Alphabet | None:
    # a command-line flag "h", "H" or "pdy" as its alphabet; an Alphabet or None as it is
    if isinstance(flag, str) and flag not in _ALPHABET_FLAGS:
        raise WordError(f"unknown alphabet flag; expected one of {sorted(_ALPHABET_FLAGS)}")
    return _ALPHABET_FLAGS.get(flag, flag)


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alphabet", choices=sorted(_ALPHABET_FLAGS), default=None)
    sp.add_argument("--lambda", dest="lam", default="1", help="deformation parameter (rational)")
    sp.add_argument("--json", action="store_true")


def _parse_operand(text: str, alphabet: Alphabet | str, lam: Fraction) -> Poly:
    alphabet = _alphabet(alphabet)  # once: parse_expr takes the Alphabet as it is
    out = parse_expr(text, alphabet, lam)
    return Poly.of(_encode(out, alphabet)) if isinstance(out, tuple) else out


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise WordError(f"--lambda expects a rational like 1/2, got {text!r}") from None


# each coproduct kind: its function's name in hopf, read there on use (hopf loads lazily)
_COPRODUCTS = {
    "deconcat": "deconcat",
    "square-op": "coproduct_square_op",
    "infinitesimal": "infinitesimal_coproduct",
}

# sorted(qseries.MODELS), spelled out so that the parser loads no q-series code
_MODEL_CHOICES = ["BZ", "OOZ", "SZ", "SZstar"]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser: built on the first call to ``main`` (never at
    import) and reused by every later call in the process."""
    ap = argparse.ArgumentParser(
        prog="mzv-lab", description="exact word-algebra and q-series laboratory"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("product", help="evaluate a product expression")
    _add_common(sp)
    sp.add_argument("--kind", choices=sorted(_PRODUCT_KINDS), default=None)
    sp.add_argument("expr", nargs="+")

    sm = sub.add_parser("map", help="apply a named linear map")
    _add_common(sm)
    sm.add_argument("--name", required=True)
    sm.add_argument("expr")

    sc = sub.add_parser("coproduct", help="apply a coproduct")
    _add_common(sc)
    sc.add_argument("--kind", choices=list(_COPRODUCTS), default="deconcat")
    sc.add_argument("expr")

    sq = sub.add_parser("qeval", help="evaluate a q-series model")
    sq.add_argument("--model", choices=_MODEL_CHOICES, required=True)
    sq.add_argument("--comp", default=None)
    sq.add_argument("--expr", default=None)
    sq.add_argument("--order", type=int, default=30)
    sq.add_argument("--evaluator", choices=["chain", "rota-baxter"], default="chain")
    sq.add_argument("--json", action="store_true")

    sv = sub.add_parser("verify", help="run a verification suite")
    sv.add_argument("--suite", required=True)
    sv.add_argument("--max-weight", type=int, default=None)
    sv.add_argument("--order", type=int, default=None)
    sv.add_argument("--json", action="store_true")

    se = sub.add_parser("export-vectors", help="write golden JSON lines for a suite")
    se.add_argument("--suite", required=True)
    se.add_argument("--out", required=True)
    se.add_argument("--max-weight", type=int, default=None)
    se.add_argument("--order", type=int, default=None)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, WordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("verify", "export-vectors"):
        from mzv_lab import suites

        if args.command == "verify":
            report = suites.run_suite(args.suite, args.max_weight, args.order)
            print(json.dumps(report.to_json()) if args.json else report.text())
            return 0 if report.passed else 1
        n = suites.export_vectors(args.suite, args.out, args.max_weight, args.order)
        print(f"wrote {n} cases to {args.out}")
        return 0
    # product, map, coproduct or qeval: pick the operation and the operands' alphabets
    texts, show, to_json = [args.expr], format_poly, poly_json
    if args.command == "qeval":
        from mzv_lab import qseries

        if (args.comp is None) == (args.expr is None):
            raise WordError("pass exactly one of --comp or --expr")
        rota_baxter = args.evaluator == "rota-baxter"  # refused from the flags, before any parse
        if rota_baxter and args.comp is None:
            raise WordError("the rota-baxter evaluator takes --comp")
        if rota_baxter and args.model != "OOZ":
            raise WordError("the rota-baxter evaluator applies to the OOZ model")
        show, to_json = str, lambda out: json.dumps({"type": "qseries", **out.to_json()})
        if args.comp is not None:
            # a composition is one COMP token: other text is refused before any product is built
            tokens = tokenize(args.comp)
            if [t.kind for t in tokens] != ["COMP", "END"]:
                raise WordError("--comp expects a composition like \"(2,1)\"")
            evaluate = qseries.rota_baxter_eval_OOZ if rota_baxter else qseries._ZETAS[args.model]
            out = evaluate(tokens[0].value, args.order)
            print(to_json(out) if args.json else show(out))
            return 0
        op = functools.partial(qseries.eval_word, args.model, order=args.order)
        alphabet, lam = qseries.MODELS[args.model].alphabet, Fraction(1)
    else:
        alphabet = _alphabet(args.alphabet)
        if args.command == "map":
            lm = maps.get_map(args.name)
            op, alphabet = lm.apply, alphabet or lm.alphabet
        elif args.command == "coproduct":
            from mzv_lab import hopf

            op, show, to_json = getattr(hopf, _COPRODUCTS[args.kind]), format_tensor, tensor_json
        lam = _parse_lambda(args.lam)
        if args.command == "product":
            texts, kind = args.expr, _PRODUCT_KINDS.get(args.kind)
            if kind is None and len(texts) != 1:
                raise WordError("expected one expression (or --kind with two operands)")
            if kind is not None and len(texts) != 2:
                raise WordError("--kind needs exactly two operand expressions")
            op = (lambda x: x) if kind is None else (lambda a, b: kind(a, b, lam))
    alphabets = [alphabet or _infer_alphabet(tokenize(text)) for text in texts]
    op(*map(Poly.zero, alphabets))
    out = op(*[_parse_operand(text, a, lam) for text, a in zip(texts, alphabets)])
    print(to_json(out) if args.json else show(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
