"""Command line interface: expression parsing, canonical formatting, the
named verification suites, golden-file export, and the argparse front end.

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

Exit codes: 0 success, 1 verification failure or runtime error, 2 usage or
syntax error.  A suite case that raises is recorded as a failure and the
run goes on.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Union

from mzv_lab import hopf, maps, products, qseries
from mzv_lab.words import (
    H2,
    PDY,
    PY,
    Alphabet,
    NotInSubalgebraError,
    Poly,
    Rational,
    Word,
    WordError,
    add_into,
    add_scaled,
    iter_words,
    iter_zcomps,
    membership,
    poly_membership,
    weight_projection,
    z_decode,
    z_encode,
)

Composition = tuple[int, ...]


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_word(w: Word) -> str:
    """Canonical text: z-block form for z-decodable x0/x1 words, letter
    juxtaposition otherwise, and "1" for the unit."""
    if w.is_unit:
        return "1"
    if w.alphabet is H2:
        try:
            return "".join(f"z{{{k}}}" for k in z_decode(w))
        except NotInSubalgebraError:
            pass
    return "".join(w.letters)


def format_poly(p: Poly) -> str:
    return p.format_terms(format_word)


def format_tensor(t: hopf.Tensor2) -> str:
    return t.format_terms(lambda k: f"{format_word(k[0])} (x) {format_word(k[1])}")


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class Token:
    kind: str  # WORD COMP NUM OP LPAREN RPAREN PLUS MINUS STAR END
    value: object
    pos: int


_WORD_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789{}")


def _lex_comp(text: str, start: int) -> tuple[Composition, int] | None:
    # '(' already seen at start; composition iff interior is comma-separated ints
    depth = 1
    i = start + 1
    while i < len(text) and depth:
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
        i += 1
    if depth:
        raise ParseError("unbalanced parenthesis", start)
    interior = text[start + 1 : i - 1].strip()
    if interior == "":
        return (), i
    parts = [p.strip() for p in interior.split(",")]
    try:
        comp = tuple(int(p) for p in parts)
    except ValueError:
        return None
    return comp, i


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            comp = _lex_comp(text, i)
            if comp is not None:
                tokens.append(Token("COMP", comp[0], i))
                i = comp[1]
            else:
                tokens.append(Token("LPAREN", None, i))
                i += 1
            continue
        if c == ")":
            tokens.append(Token("RPAREN", None, i))
            i += 1
            continue
        if c == "+":
            tokens.append(Token("PLUS", None, i))
            i += 1
            continue
        if c == "-":
            tokens.append(Token("MINUS", None, i))
            i += 1
            continue
        if c == "*":
            tokens.append(Token("STAR", None, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            if j < n and text[j] == "/":
                k = j + 1
                if k >= n or not text[k].isdigit():
                    raise ParseError("expected digits after '/'", j)
                m = k
                while m < n and text[m].isdigit():
                    m += 1
                tokens.append(Token("NUM", Fraction(num, int(text[k:m])), i))
                i = m
            else:
                tokens.append(Token("NUM", num, i))
                i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j] in _WORD_CHARS:
                j += 1
            chunk = text[i:j]
            if chunk in ("sh", "sq"):
                tokens.append(Token("OP", chunk, i))
            else:
                tokens.append(Token("WORD", chunk, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(Token("END", None, n))
    return tokens


# ---------------------------------------------------------------------------
# word-chunk decoding and alphabet inference
# ---------------------------------------------------------------------------

def _chunk_items(chunk: str, pos: int) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    i = 0
    while i < len(chunk):
        c = chunk[i]
        if c == "z" and i + 1 < len(chunk) and chunk[i + 1] == "{":
            j = chunk.find("}", i + 2)
            if j < 0:
                raise ParseError("unterminated z-block", pos + i)
            try:
                k = int(chunk[i + 2 : j])
            except ValueError:
                raise ParseError("z-block index must be an integer", pos + i) from None
            items.append(("z", k))
            i = j + 1
        elif c == "x" and i + 1 < len(chunk) and chunk[i + 1] in "01":
            items.append(("letter", "x" + chunk[i + 1]))
            i += 2
        elif c in "pdy":
            items.append(("letter", c))
            i += 1
        else:
            raise ParseError(f"unknown letter {c!r}", pos + i)
    return items


def _infer_alphabet(tokens: Sequence[Token]) -> Alphabet | None:
    letters: set[str] = set()
    for t in tokens:
        if t.kind == "WORD":
            for kind, v in _chunk_items(str(t.value), t.pos):
                if kind == "letter":
                    letters.add(str(v))
    if letters & {"x0", "x1"}:
        if letters & {"p", "d", "y"}:
            raise ParseError("mixed x0/x1 and p/d/y letters", 0)
        return H2
    if "d" in letters:
        return PDY
    if letters & {"p", "y"}:
        return PY
    return None


def _word_from_chunk(chunk: str, pos: int, alphabet: Alphabet) -> Word:
    letters: list[str] = []
    for kind, v in _chunk_items(chunk, pos):
        if kind == "z":
            if alphabet is PDY:
                raise ParseError("z-blocks are not defined on the p/d/y alphabet", pos)
            try:
                letters.extend(z_encode((int(v),), alphabet).letters)
            except WordError as exc:
                raise ParseError(str(exc), pos) from None
        else:
            if v not in alphabet.letters:
                raise ParseError(f"letter {v!r} not in alphabet {alphabet.tag}", pos)
            letters.append(str(v))
    return Word(alphabet, letters)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], alphabet: Alphabet, lam: Fraction):
        self.tokens = tokens
        self.i = 0
        self.alphabet = alphabet
        self.lam = lam

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
            rhs = self.term()
            acc = acc + rhs if op.kind == "PLUS" else acc - rhs
        return acc

    # term := factor (prodop factor)*
    def term(self) -> Poly:
        acc = self.factor()
        while True:
            t = self.peek()
            if t.kind == "STAR":
                self.next()
                acc = self._apply_star(acc, self.factor(), t.pos)
            elif t.kind == "OP":
                self.next()
                acc = self._apply_named(str(t.value), acc, self.factor(), t.pos)
            else:
                return acc

    def factor(self) -> Poly:
        t = self.peek()
        if t.kind == "MINUS":
            self.next()
            return -self.factor()
        return self.atom()

    def atom(self) -> Poly:
        t = self.next()
        if t.kind == "WORD":
            return Poly.of(_word_from_chunk(str(t.value), t.pos, self.alphabet))
        if t.kind == "COMP":
            try:
                return Poly.of(z_encode(t.value, self.alphabet))  # type: ignore[arg-type]
            except WordError as exc:
                raise ParseError(str(exc), t.pos) from None
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

    def _apply_star(self, a: Poly, b: Poly, pos: int) -> Poly:
        sa, sb = self._scalar_of(a), self._scalar_of(b)
        if sa is not None:
            return b.scale(sa)
        if sb is not None:
            return a.scale(sb)
        try:
            if self.alphabet is H2:
                return products.quasi_shuffle(a, b)
            if self.alphabet is PY:
                return products.quasi_shuffle_lambda(a, b, self.lam)
        except WordError as exc:
            raise ParseError(str(exc), pos) from None
        raise ParseError("no stuffle on the p/d/y alphabet", pos)

    def _apply_named(self, op: str, a: Poly, b: Poly, pos: int) -> Poly:
        try:
            if op == "sh":
                if self.alphabet is H2:
                    return products.shuffle(a, b)
                return products.shuffle_lambda(a, b, self.lam)
            if self.alphabet is H2:
                return products.square_classical(a, b)
            if self.alphabet is PY:
                return products.square_lambda(a, b, self.lam)
            raise WordError("no square product on the p/d/y alphabet")
        except WordError as exc:
            raise ParseError(str(exc), pos) from None


def parse_expr(
    text: str,
    alphabet: Alphabet | str | None = None,
    lam: Fraction | int = 1,
) -> Union[Poly, Composition]:
    """Parse an expression; a bare composition literal comes back as a tuple.

    alphabet may be an Alphabet, one of "h"/"H"/"pdy" (as on the command
    line), or None to infer it from the letters present.
    """
    if isinstance(alphabet, str):
        alphabet = _ALPHABET_FLAGS.get(alphabet)
        if alphabet is None:
            raise WordError(f"unknown alphabet flag; expected one of {sorted(_ALPHABET_FLAGS)}")
    tokens = tokenize(text)
    if len(tokens) == 2 and tokens[0].kind == "COMP":
        return tokens[0].value  # type: ignore[return-value]
    if alphabet is None:
        alphabet = _infer_alphabet(tokens)
    if alphabet is None:
        raise ParseError("alphabet is ambiguous; pass --alphabet", 0)
    parser = _Parser(tokens, alphabet, Fraction(lam))
    out = parser.expr()
    parser.expect("END")
    return out


_ALPHABET_FLAGS = {"h": H2, "H": PY, "pdy": PDY}


# ---------------------------------------------------------------------------
# JSON codecs
# ---------------------------------------------------------------------------

def poly_json(p: Poly) -> dict:
    return {
        "type": "poly",
        "alphabet": p.alphabet.tag,
        "terms": [{"coeff": str(c), "word": list(w.letters)} for w, c in p],
    }


def tensor_json(t: hopf.Tensor2) -> dict:
    return {
        "type": "tensor",
        "alphabet": t.alphabet.tag,
        "terms": [
            {"coeff": str(c), "left": list(a.letters), "right": list(b.letters)}
            for a, b, c in t
        ],
    }


def value_json(x: object) -> object:
    if isinstance(x, Poly):
        return poly_json(x)
    if isinstance(x, hopf.Tensor2):
        return tensor_json(x)
    if isinstance(x, qseries.QPoly):
        return {"type": "qseries", **x.to_json()}
    if isinstance(x, qseries.FloatResult):
        return {"type": "float", **x.to_json()}
    if isinstance(x, bool):
        return x
    if isinstance(x, products.ZPoly):
        return {
            "type": "zpoly",
            "terms": [{"coeff": str(c), "parts": list(w.parts)} for w, c in x.sorted_terms()],
        }
    return str(x)


def value_text(x: object) -> str:
    if isinstance(x, Poly):
        return format_poly(x)
    if isinstance(x, hopf.Tensor2):
        return format_tensor(x)
    return str(x)


# ---------------------------------------------------------------------------
# suite machinery
# ---------------------------------------------------------------------------

@dataclass
class Case:
    case_id: str
    inputs: dict
    run: Callable[[], tuple[object, object]]


@dataclass
class Failure:
    case_id: str
    inputs: dict
    lhs: str
    rhs: str


@dataclass
class SuiteReport:
    suite: str
    cases: int
    failures: list[Failure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [
                {"case": f.case_id, "inputs": f.inputs, "lhs": f.lhs, "rhs": f.rhs}
                for f in self.failures
            ],
            "wall_time": self.wall_time,
        }

    def text(self) -> str:
        status = "ok" if self.passed else "FAILED"
        out = (
            f"suite {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {self.wall_time:.2f}s [{status}]"
        )
        for f in self.failures:
            out += f"\n  {f.case_id}: inputs={f.inputs}\n    lhs = {f.lhs}\n    rhs = {f.rhs}"
        return out


def _suite_cases(name: str, max_weight: int | None, order: int | None) -> list[Case]:
    # a non-positive bound means "enumerate nothing" (header-only exports)
    if max_weight is not None and max_weight <= 0:
        return []
    return list(SUITES[name](max_weight, order))


def run_suite(name: str, max_weight: int | None = None, order: int | None = None) -> SuiteReport:
    """Run a named verification suite; bounds default to the values the
    acceptance criteria prescribe.  "all" runs every suite."""
    if name == "all":
        start = time.perf_counter()
        combined = SuiteReport("all", 0)
        for sub in SUITES:
            rep = run_suite(sub, max_weight, order)
            combined.cases += rep.cases
            for f in rep.failures:
                combined.failures.append(
                    Failure(f"{sub}/{f.case_id}", f.inputs, f.lhs, f.rhs)
                )
        combined.wall_time = time.perf_counter() - start
        return combined
    if name not in SUITES:
        raise WordError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))} or 'all'")
    start = time.perf_counter()
    cases = _suite_cases(name, max_weight, order)
    report = SuiteReport(name, len(cases))
    for case in cases:
        try:
            lhs, rhs = case.run()
            if lhs == rhs:
                continue
            lhs, rhs = value_text(lhs), value_text(rhs)
        except Exception as exc:  # the case fails alone; the other cases still run
            lhs, rhs = f"raised {type(exc).__name__}: {exc}", "not evaluated"
        report.failures.append(Failure(case.case_id, case.inputs, lhs, rhs))
    report.wall_time = time.perf_counter() - start
    return report


def export_vectors(
    suite: str,
    path: str,
    max_weight: int | None = None,
    order: int | None = None,
) -> int:
    """Write one JSON line per case (inputs plus both computed sides) after a
    header line; returns the number of cases written."""
    if suite not in SUITES:
        raise WordError(f"unknown suite {suite!r}")
    cases = _suite_cases(suite, max_weight, order)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {"suite": suite, "max_weight": max_weight, "order": order, "cases": len(cases)}
            )
            + "\n"
        )
        for case in cases:
            lhs, rhs = case.run()
            record = {
                "case": case.case_id,
                "inputs": case.inputs,
                "lhs": value_json(lhs),
                "rhs": value_json(rhs),
            }
            fh.write(json.dumps(record) + "\n")
    return len(cases)


# ---------------------------------------------------------------------------
# word enumeration (by weight, then canonical order)
# ---------------------------------------------------------------------------

def h0_words_h2(max_weight: int) -> list[Word]:
    """x0/x1 words starting x0 and ending x1 (plus the unit), weight ascending."""
    out = [Word(H2)]
    for w in range(2, max_weight + 1):
        for depth in range(1, w):
            for comp in iter_zcomps(w, depth, 2, 1):
                out.append(z_encode(comp, H2))
    return out


def H0_words_py(max_weight: int, max_depth: int) -> list[Word]:
    """p/y words starting p and ending y (plus the unit), weight ascending;
    depth is capped because trailing zero parts are weightless."""
    out = [Word(PY)]
    for w in range(1, max_weight + 1):
        for depth in range(1, max_depth + 1):
            for comp in iter_zcomps(w, depth, 1, 0):
                out.append(z_encode(comp, PY))
    return out


def words_by_length(alphabet: Alphabet, max_len: int, pred=None) -> list[Word]:
    out = []
    for n in range(0, max_len + 1):
        for w in iter_words(alphabet, n):
            if pred is None or pred(w):
                out.append(w)
    return out


def _py_view(x: Poly) -> Poly:
    # re-encode z-decodable x0/x1 combinations as p/y combinations
    return Poly(PY, {z_encode(z_decode(w), PY): c for w, c in x.terms.items()})


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[int | None, int | None], Iterator[Case]]] = {}


def _suite(name: str):
    def deco(fn):
        SUITES[name] = fn
        return fn

    return deco


def _zh(comp: Iterable[int]) -> Poly:
    return Poly.of(z_encode(comp, H2))


def _zp(comp: Iterable[int]) -> Poly:
    return Poly.of(z_encode(comp, PY))


@_suite("classical-products")
def _suite_classical(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 4
    yield Case(
        "stuffle-z2-z2",
        {"u": "z{2}", "v": "z{2}"},
        lambda: (products.quasi_shuffle(_zh((2,)), _zh((2,))), _zh((2, 2)) + _zh((2, 2)) + _zh((4,))),
    )
    x0x1 = _zh((2,))
    expected = 2 * Poly.of(Word(H2, ("x0", "x1", "x0", "x1"))) + 4 * Poly.of(
        Word(H2, ("x0", "x0", "x1", "x1"))
    )
    yield Case(
        "shuffle-x0x1-x0x1",
        {"u": "z{2}", "v": "z{2}"},
        lambda: (products.shuffle(x0x1, x0x1), expected),
    )
    words = [w for w in words_by_length(H2, min(mw, 4), lambda w: membership(w, "h1"))]
    for i, u in enumerate(words):
        for v in words[i:]:
            if len(u) + len(v) > mw:
                continue
            yield Case(
                f"stuffle-comm-{format_word(u)}-{format_word(v)}",
                {"u": format_word(u), "v": format_word(v)},
                lambda u=u, v=v: (
                    products._quasi_word_fn(H2, 1)(u, v),
                    products._quasi_word_fn(H2, 1)(v, u),
                ),
            )
            yield Case(
                f"shuffle-comm-{format_word(u)}-{format_word(v)}",
                {"u": format_word(u), "v": format_word(v)},
                lambda u=u, v=v: (products.shuffle_ordered(u, v), products.shuffle_ordered(v, u)),
            )
    small = [w for w in words if len(w) <= 3]
    for u in small:
        yield Case(
            f"stuffle-unit-{format_word(u)}",
            {"u": format_word(u)},
            lambda u=u: (products.quasi_shuffle(Poly.unit(H2), Poly.of(u)), Poly.of(u)),
        )
        for v in small:
            for w in small:
                if len(u) + len(v) + len(w) > min(mw + 2, 6):
                    continue
                yield Case(
                    f"stuffle-assoc-{format_word(u)}-{format_word(v)}-{format_word(w)}",
                    {"u": format_word(u), "v": format_word(v), "w": format_word(w)},
                    lambda u=u, v=v, w=w: (
                        products.quasi_shuffle(products.quasi_shuffle(u, v), Poly.of(w)),
                        products.quasi_shuffle(Poly.of(u), products.quasi_shuffle(v, w)),
                    ),
                )


@_suite("thm-derivation")
def _suite_derivation(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 8
    z2 = _zh((2,))
    yield Case(
        "square-example",
        {"u": "z{2}", "v": "z{2}"},
        lambda: (
            products.square_classical(z2, z2),
            2 * Poly.of(Word(H2, ("x0", "x1", "x0", "x1")))
            + Poly.of(Word(H2, ("x0", "x1", "x1", "x1"))),
        ),
    )
    for w in h0_words_h2(mw):
        yield Case(
            f"derivation2-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (
                maps.derivation(w, 2),
                products.square_classical(w, z2) - products.quasi_shuffle(w, z2),
            ),
        )


@_suite("hoffman-ohno")
def _suite_hoffman(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 8
    z1 = _zh((1,))
    x1 = Poly.of(Word(H2, ("x1",)))
    for w in h0_words_h2(mw):
        yield Case(
            f"derivation1-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (
                maps.derivation(w, 1),
                products.shuffle(w, z1) - products.quasi_shuffle(w, z1),
            ),
        )
        yield Case(
            f"membership-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (
                poly_membership(
                    products.quasi_shuffle(z1, w) - products.shuffle(x1, w), "h0"
                ),
                True,
            ),
        )
    # numeric spot checks on low-depth samples (z-parts of the difference
    # gain one depth, so keep sample depth <= 2)
    samples = [
        w
        for w in h0_words_h2(min(mw, 5))
        if not w.is_unit and w.depth <= 2
    ]
    for w in samples:
        yield Case(
            f"float-{format_word(w)}",
            {"w": format_word(w), "tolerance": "1e-4"},
            lambda w=w: (_hoffman_float_ok(w), True),
        )


def _hoffman_float_ok(w: Word) -> bool:
    z1 = _zh((1,))
    x1 = Poly.of(Word(H2, ("x1",)))
    diff = products.quasi_shuffle(z1, Poly.of(w)) - products.shuffle(x1, Poly.of(w))
    total = 0.0
    for term, c in diff.terms.items():
        total += float(c) * qseries.zeta_classical_float(z_decode(term), 10_000_000).value
    return abs(total) < 1e-4


def _szdual_cases(lam: int, mw: int) -> Iterator[Case]:
    words = words_by_length(PY, mw - 2, lambda w: membership(w, "H0"))
    for i, u in enumerate(words):
        for v in words[i:]:
            if len(u) + len(v) > mw:
                continue
            yield Case(
                f"square-vs-shuffle-{lam}-{format_word(u)}-{format_word(v)}",
                {"u": format_word(u), "v": format_word(v), "lambda": str(lam)},
                lambda u=u, v=v: (
                    products.square_lambda(u, v, lam),
                    products.shuffle_lambda(u, v, lam),
                ),
            )


@_suite("thm-szdual")
def _suite_szdual(mw: int | None, order: int | None) -> Iterator[Case]:
    yield from _szdual_cases(1, mw or 8)


@_suite("thm-oozdual")
def _suite_oozdual(mw: int | None, order: int | None) -> Iterator[Case]:
    yield from _szdual_cases(-1, mw or 8)


@_suite("zhao-duality")
def _suite_zhao(mw: int | None, order: int | None) -> Iterator[Case]:
    mw, order = mw or 5, order or 30
    for w in H0_words_py(mw, 5):
        yield Case(
            f"sz-tau~-{format_word(w)}",
            {"w": format_word(w), "order": order},
            lambda w=w: (
                qseries.eval_word("SZ", maps.tau_tilde(w), order),
                qseries.eval_word("SZ", w, order),
            ),
        )


@_suite("bradley-duality")
def _suite_bradley(mw: int | None, order: int | None) -> Iterator[Case]:
    mw, order = mw or 5, order or 30
    for w in h0_words_h2(mw):
        yield Case(
            f"bz-tau-{format_word(w)}",
            {"w": format_word(w), "order": order},
            lambda w=w: (
                qseries.eval_word("BZ", maps.tau(w), order),
                qseries.eval_word("BZ", w, order),
            ),
        )


@_suite("ooz-szstar-duality")
def _suite_ooz_szstar(mw: int | None, order: int | None) -> Iterator[Case]:
    mw, order = mw or 5, order or 30
    for w in H0_words_py(mw, 5):
        yield Case(
            f"ooz-szstar-{format_word(w)}",
            {"w": format_word(w), "order": order},
            lambda w=w: (
                qseries.eval_word("OOZ", w, order),
                qseries.eval_word("SZstar", maps.tau_tilde(w), order),
            ),
        )


@_suite("model-transfers")
def _suite_transfers(mw: int | None, order: int | None) -> Iterator[Case]:
    mw, order = mw or 5, order or 30
    for w in h0_words_h2(mw):
        comp = z_decode(w)
        yield Case(
            f"ooz-bz-U-{format_word(w)}",
            {"comp": list(comp), "order": order},
            lambda w=w, comp=comp: (
                qseries.zeta_OOZ(comp, order),
                qseries.eval_word("BZ", maps.map_U(w), order),
            ),
        )
    for w in H0_words_py(mw, 5):
        yield Case(
            f"ooz-sz-V-{format_word(w)}",
            {"w": format_word(w), "order": order},
            lambda w=w: (
                qseries.eval_word("OOZ", w, order),
                qseries.eval_word("SZ", maps.map_V(w), order),
            ),
        )


@_suite("ooz-duality-families")
def _suite_ooz_families(mw: int | None, order: int | None) -> Iterator[Case]:
    mw, order = mw or 5, order or 30
    for w in H0_words_py(mw, 5):
        yield Case(
            f"ooz-dual1-{format_word(w)}",
            {"w": format_word(w), "order": order},
            lambda w=w: (
                qseries.eval_word("OOZ", maps.dual_family_1(w), order),
                qseries.eval_word("OOZ", w, order),
            ),
        )
    for w in h0_words_h2(mw):
        yield Case(
            f"ooz-dual2-{format_word(w)}",
            {"w": format_word(w), "order": order},
            lambda w=w: (
                qseries.eval_word("OOZ", _py_view(maps.dual_family_2(w)), order),
                qseries.eval_word("OOZ", _py_view(Poly.of(w)), order),
            ),
        )


@_suite("qseries-spot-values")
def _suite_spot(mw: int | None, order: int | None) -> Iterator[Case]:
    yield Case(
        "sz-2",
        {"comp": [2], "order": 4},
        lambda: (qseries.zeta_SZ((2,), 4), qseries.QPoly(4, (0, 0, 1, 2, 4))),
    )
    yield Case(
        "ooz-3",
        {"comp": [3], "order": 4},
        lambda: (qseries.zeta_OOZ((3,), 4), qseries.QPoly(4, (0, 1, 4, 7, 14))),
    )
    yield Case(
        "ooz-1-divisors",
        {"comp": [1], "order": 6},
        lambda: (qseries.zeta_OOZ((1,), 6), qseries.QPoly(6, (0, 1, 2, 2, 3, 2, 4))),
    )


@_suite("characters")
def _suite_characters(mw: int | None, order: int | None) -> Iterator[Case]:
    mw, order = mw or 5, order or 30
    zmax = min(5, mw)
    words = [
        w
        for w in H0_words_py(mw, 4)
        if not w.is_unit and w.depth <= zmax - 1
    ]
    for i, u in enumerate(words):
        for v in words[i:]:
            if u.depth + v.depth > zmax or u.weight + v.weight > mw:
                continue
            ins = {"u": format_word(u), "v": format_word(v), "order": order}
            tag = f"{format_word(u)}-{format_word(v)}"
            yield Case(
                f"sz-stuffle-{tag}",
                ins,
                lambda u=u, v=v: (
                    qseries.eval_word("SZ", products.quasi_shuffle_lambda(u, v, 1), order),
                    qseries.eval_word("SZ", u, order) * qseries.eval_word("SZ", v, order),
                ),
            )
            yield Case(
                f"sz-shuffle-{tag}",
                ins,
                lambda u=u, v=v: (
                    qseries.eval_word("SZ", products.shuffle_lambda(u, v, 1), order),
                    qseries.eval_word("SZ", u, order) * qseries.eval_word("SZ", v, order),
                ),
            )
            yield Case(
                f"sz-double-shuffle-{tag}",
                ins,
                lambda u=u, v=v: (
                    qseries.eval_word(
                        "SZ",
                        products.shuffle_lambda(u, v, 1)
                        - products.quasi_shuffle_lambda(u, v, 1),
                        order,
                    ).is_zero(),
                    True,
                ),
            )
            yield Case(
                f"szstar-stuffle-{tag}",
                ins,
                lambda u=u, v=v: (
                    qseries.eval_word("SZstar", products.quasi_shuffle_lambda(u, v, -1), order),
                    qseries.eval_word("SZstar", u, order)
                    * qseries.eval_word("SZstar", v, order),
                ),
            )
            yield Case(
                f"ooz-stuffle-{tag}",
                ins,
                lambda u=u, v=v: (
                    qseries.eval_word("OOZ", products.ooz_quasi_shuffle(u, v), order),
                    qseries.eval_word("OOZ", u, order) * qseries.eval_word("OOZ", v, order),
                ),
            )
            yield Case(
                f"ooz-shuffle-{tag}",
                ins,
                lambda u=u, v=v: (
                    qseries.eval_word("OOZ", products.shuffle_lambda(u, v, -1), order),
                    qseries.eval_word("OOZ", u, order) * qseries.eval_word("OOZ", v, order),
                ),
            )


@_suite("ihara-s")
def _suite_ihara(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 6
    words = [
        w
        for w in H0_words_py(mw, min(mw, 6))
        if w.depth <= min(mw, 6)
    ]
    yield Case(
        "s-z2z1",
        {"w": "ppypy"},
        lambda: (maps.ihara_S(_zp((2, 1))), _zp((2, 1)) + _zp((3,))),
    )
    yield Case(
        "s-z1z1z1",
        {"w": "pypypy"},
        lambda: (
            maps.ihara_S(_zp((1, 1, 1))),
            _zp((1, 1, 1)) + _zp((1, 2)) + _zp((2, 1)) + _zp((3,)),
        ),
    )
    for w in words:
        yield Case(
            f"s-roundtrip-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (maps.ihara_S(maps.ihara_S_inv(w)), Poly.of(w)),
        )
        yield Case(
            f"s-roundtrip-rev-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (maps.ihara_S_inv(maps.ihara_S(w)), Poly.of(w)),
        )
    pairs = [
        (u, v)
        for i, u in enumerate(words)
        for v in words[i:]
        if u.depth + v.depth <= min(mw, 6) and u.weight + v.weight <= mw
        and not u.is_unit and not v.is_unit
    ]
    for u, v in pairs:
        ins = {"u": format_word(u), "v": format_word(v)}
        tag = f"{format_word(u)}-{format_word(v)}"
        yield Case(
            f"s-homomorphism-{tag}",
            ins,
            lambda u=u, v=v: (
                maps.ihara_S(products.quasi_shuffle_lambda(u, v, -1)),
                products.quasi_shuffle_lambda(maps.ihara_S(u), maps.ihara_S(v), 1),
            ),
        )
        yield Case(
            f"square-top-{tag}",
            ins,
            lambda u=u, v=v: (
                products.shuffle_lambda(u, v, -1),
                maps.tau_tilde(
                    products.quasi_shuffle_lambda(maps.tau_tilde(u), maps.tau_tilde(v), -1)
                ),
            ),
        )
        yield Case(
            f"square-bottom-{tag}",
            ins,
            lambda u=u, v=v: (
                products.shuffle_lambda(u, v, 1),
                maps.tau_tilde(
                    products.quasi_shuffle_lambda(maps.tau_tilde(u), maps.tau_tilde(v), 1)
                ),
            ),
        )


@_suite("pdy-shuffle")
def _suite_pdy(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 6
    for lam in (1, -1, 2):
        d = Poly.of(Word(PDY, ("d",)))
        yield Case(
            f"dd-{lam}",
            {"u": "d", "v": "d", "lambda": str(lam)},
            lambda lam=lam, d=d: (
                products.shuffle_lambda(d, d, lam),
                d.scale(Fraction(-1, lam)),
            ),
        )
        yield Case(
            f"dp-{lam}",
            {"u": "d", "v": "p", "lambda": str(lam)},
            lambda lam=lam, d=d: (
                products.shuffle_lambda(d, Poly.of(Word(PDY, ("p",))), lam),
                d.scale(-lam),
            ),
        )
    words = words_by_length(PDY, min(mw - 1, 4))
    for lam in (1, -1, 2):
        for i, u in enumerate(words):
            for v in words[i:]:
                if len(u) + len(v) > mw:
                    continue
                yield Case(
                    f"comm-{lam}-{format_word(u)}-{format_word(v)}",
                    {"u": format_word(u), "v": format_word(v), "lambda": str(lam)},
                    lambda u=u, v=v, lam=lam: (
                        products.shuffle_lambda_ordered(u, v, Fraction(lam)),
                        products.shuffle_lambda_ordered(v, u, Fraction(lam)),
                    ),
                )
        short = [w for w in words if len(w) <= 2]
        for u in short:
            yield Case(
                f"unit-{lam}-{format_word(u)}",
                {"u": format_word(u), "lambda": str(lam)},
                lambda u=u, lam=lam: (
                    products.shuffle_lambda(Poly.unit(PDY), Poly.of(u), lam),
                    Poly.of(u),
                ),
            )
            for v in short:
                for w in short:
                    if len(u) + len(v) + len(w) > mw:
                        continue
                    yield Case(
                        f"assoc-{lam}-{format_word(u)}-{format_word(v)}-{format_word(w)}",
                        {
                            "u": format_word(u),
                            "v": format_word(v),
                            "w": format_word(w),
                            "lambda": str(lam),
                        },
                        lambda u=u, v=v, w=w, lam=lam: (
                            products.shuffle_lambda(
                                products.shuffle_lambda(u, v, lam), Poly.of(w), lam
                            ),
                            products.shuffle_lambda(
                                Poly.of(u), products.shuffle_lambda(v, w, lam), lam
                            ),
                        ),
                    )


@_suite("infinitesimal")
def _suite_infinitesimal(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 7
    yield Case(
        "d-py",
        {"w": "py"},
        lambda: (
            hopf.infinitesimal_coproduct(Poly.of(Word(PY, ("p", "y")))),
            hopf.Tensor2(
                PY,
                {
                    (Word(PY, ("p", "y")), Word(PY)): 1,
                    (Word(PY), Word(PY, ("p", "y"))): 1,
                },
            ),
        ),
    )
    pdy_words = words_by_length(PDY, min(mw - 2, 5))
    for w in pdy_words:
        if len(w) < 2:
            continue
        yield Case(
            f"split-independent-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (
                all(
                    hopf.infinitesimal_coproduct_at(w, i)
                    == hopf.infinitesimal_coproduct(Poly.of(w))
                    for i in range(1, len(w))
                ),
                True,
            ),
        )
    for w in pdy_words:
        yield Case(
            f"coassoc-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (_coassoc_holds(hopf.infinitesimal_coproduct, Poly.of(w)), True),
        )
    short = [w for w in pdy_words if len(w) <= 2]
    for lam in (1, -1, 2):
        for i, u in enumerate(short):
            for v in short[i:]:
                if len(u) + len(v) > 4:
                    continue
                yield Case(
                    f"bialgebra-{lam}-{format_word(u)}-{format_word(v)}",
                    {"u": format_word(u), "v": format_word(v), "lambda": str(lam)},
                    lambda u=u, v=v, lam=lam: (
                        hopf.infinitesimal_coproduct(products.shuffle_lambda(u, v, lam)),
                        hopf.infinitesimal_coproduct(Poly.of(u)).mul_with(
                            hopf.infinitesimal_coproduct(Poly.of(v)),
                            lambda a, b: products.shuffle_lambda(a, b, lam),
                        ),
                    ),
                )
    h0_words = words_by_length(PY, mw, lambda w: membership(w, "H0"))
    for w in h0_words:
        yield Case(
            f"square-op-vs-infinitesimal-{format_word(w)}",
            {"w": format_word(w)},
            lambda w=w: (
                hopf.coproduct_square_op(Poly.of(w)),
                hopf.infinitesimal_coproduct(Poly.of(w)),
            ),
        )
    yield Case(
        "right-coideal",
        {"space": "H0", "side": "right", "max_len": mw},
        lambda: (
            hopf.coideal_check(
                lambda w: membership(w, "H0"),
                hopf.coproduct_square_op,
                "right",
                h0_words,
            ),
            True,
        ),
    )


def _coassoc_holds(coproduct, x: Poly) -> bool:
    left: dict = {}
    right: dict = {}
    for (a, b), c in coproduct(x).terms.items():
        for (a1, a2), c2 in coproduct(Poly.of(a)).terms.items():
            add_into(left, (a1, a2, b), c * c2)
        for (b1, b2), c2 in coproduct(Poly.of(b)).terms.items():
            add_into(right, (a, b1, b2), c * c2)
    return left == right


@_suite("ooz-explicit-vs-recursive")
def _suite_ooz_explicit(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 6
    words = [w for w in H0_words_py(mw, mw - 1) if not w.is_unit]
    for i, u in enumerate(words):
        for v in words[i:]:
            if u.depth + v.depth > mw or u.weight + v.weight > mw:
                continue
            yield Case(
                f"explicit-{format_word(u)}-{format_word(v)}",
                {"u": format_word(u), "v": format_word(v)},
                lambda u=u, v=v: (
                    products.zpoly_to_poly(
                        products.ooz_explicit(
                            products.ZWord(z_decode(u)), products.ZWord(z_decode(v))
                        )
                    ),
                    products.ooz_quasi_shuffle(u, v),
                ),
            )


@_suite("star-shuffle")
def _suite_star(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 8
    x0 = Word(H2, ("x0",))
    x1 = Word(H2, ("x1",))
    yield Case(
        "star-x1-x1",
        {"u": "x1", "v": "x1"},
        lambda: (
            products.shuffle_star(Poly.of(x1), Poly.of(x1)),
            2 * Poly.of(x1 * x1) - 2 * Poly.of(x0 * x1),
        ),
    )
    yield Case(
        "star-x1-x0",
        {"u": "x1", "v": "x0"},
        lambda: (
            products.shuffle_star(Poly.of(x1), Poly.of(x0)),
            Poly.of(x1 * x0) + Poly.of(x0 * x1) - Poly.of(x0 * x0) - Poly.of(x1 * x1),
        ),
    )
    words = [w for w in words_by_length(H2, mw - 1) if not w.is_unit]
    for i, u in enumerate(words):
        for v in words[i:]:
            if len(u) + len(v) > mw:
                continue
            yield Case(
                f"alt-{format_word(u)}-{format_word(v)}",
                {"u": format_word(u), "v": format_word(v)},
                lambda u=u, v=v: (
                    products.shuffle_star_alt(u, v),
                    products.shuffle_star(u, v),
                ),
            )


@_suite("thm-szsdual")
def _suite_szsdual(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 6
    py = _zp((1,))
    yield Case(
        "worked-top",
        {"u": "py", "v": "py"},
        lambda: (
            _block_top(products.ooz_square(py, py), 2),
            products.shuffle_star(_zh((1,)), _zh((1,))),
        ),
    )
    words = [
        w
        for w in H0_words_py(mw, mw)
        if not w.is_unit and all(k >= 1 for k in z_decode(w))
    ]
    for i, u in enumerate(words):
        for v in words[i:]:
            if u.depth + v.depth > mw or u.weight + v.weight > mw:
                continue
            yield Case(
                f"block-top-{format_word(u)}-{format_word(v)}",
                {"u": format_word(u), "v": format_word(v)},
                lambda u=u, v=v: (
                    _block_top(products.ooz_square(u, v), u.weight + v.weight),
                    products.shuffle_star(
                        Poly.of(z_encode(z_decode(u), H2)), Poly.of(z_encode(z_decode(v), H2))
                    ),
                ),
            )


def _block_top(x: Poly, weight: int) -> Poly:
    top = weight_projection(x, weight)
    return Poly(H2, {z_encode(z_decode(w), H2): c for w, c in top.terms.items()})


@_suite("hopf-axioms")
def _suite_hopf(mw: int | None, order: int | None) -> Iterator[Case]:
    mw = mw or 6
    structures: list[tuple[str, hopf.HopfStructure, list[Word]]] = []
    py_words = [w for w in words_by_length(PY, mw, lambda w: membership(w, "H1"))]
    pm1_words = [w for w in words_by_length(PY, mw, lambda w: membership(w, "Hm1"))]
    h2m1_words = [w for w in words_by_length(H2, mw, lambda w: membership(w, "hm1"))]
    for lam in (1, -1):
        structures.append((f"base-lam{lam}", hopf.base_hopf(PY, lam), py_words))
        structures.append(
            (
                f"tau~-transfer-lam{lam}",
                hopf.transfer_hopf(
                    hopf.base_hopf(PY, lam),
                    lambda x: maps.tau_tilde(x),
                    lambda x: maps.tau_tilde(x),
                    name=f"tau~-transfer lam={lam}",
                ),
                pm1_words,
            )
        )
    structures.append(
        (
            "tau-transfer",
            hopf.transfer_hopf(hopf.base_hopf(H2, 1), maps.tau, maps.tau, name="tau-transfer"),
            h2m1_words,
        )
    )
    for tag, H, domain in structures:
        for w in domain:
            ins = {"structure": tag, "w": format_word(w)}
            name = f"{tag}-{format_word(w)}"
            yield Case(
                f"counit-{name}",
                ins,
                lambda H=H, w=w: (_counit_laws(H, w), True),
            )
            yield Case(
                f"coassoc-{name}",
                ins,
                lambda H=H, w=w: (_coassoc_holds(H.coproduct, Poly.of(w)), True),
            )
            yield Case(
                f"antipode-{name}",
                ins,
                lambda H=H, w=w: (_antipode_laws(H, w), True),
            )


def _counit_laws(H: hopf.HopfStructure, w: Word) -> bool:
    left: dict = {}
    right: dict = {}
    for (a, b), c in H.coproduct(Poly.of(w)).terms.items():
        add_into(left, b, c * H.counit(Poly.of(a)))
        add_into(right, a, c * H.counit(Poly.of(b)))
    return left == right == {w: 1}


def _antipode_laws(H: hopf.HopfStructure, w: Word) -> bool:
    x = Poly.of(w)
    left: dict = {}
    right: dict = {}
    for (a, b), c in H.coproduct(x).terms.items():
        add_scaled(left, H.product(H.antipode(Poly.of(a)), Poly.of(b)).terms, c)
        add_scaled(right, H.product(Poly.of(a), H.antipode(Poly.of(b))).terms, c)
    target = H.unit_elem.scale(H.counit(x)).terms
    return left == right == target


@_suite("rota-baxter")
def _suite_rota(mw: int | None, order: int | None) -> Iterator[Case]:
    mw, order = mw or 5, order or 15
    comps: list[Composition] = [()]
    for w in range(1, mw + 1):
        for depth in range(1, min(w + 1, 6)):
            comps.extend(iter_zcomps(w, depth, 1, 0))
    for comp in comps:
        yield Case(
            f"rb-{'-'.join(map(str, comp)) or 'unit'}",
            {"comp": list(comp), "order": order},
            lambda comp=comp: (
                qseries.rota_baxter_eval_OOZ(comp, order),
                qseries.zeta_OOZ(comp, order),
            ),
        )


@_suite("float-oracle")
def _suite_float(mw: int | None, order: int | None) -> Iterator[Case]:
    yield Case(
        "zeta-2",
        {"comp": [2], "reference": "1.644934", "tolerance": "1e-5"},
        lambda: (abs(qseries.zeta_classical_float((2,), 1_000_000).value - 1.644934) < 1e-5, True),
    )

    def within(c1: Composition, c2: Composition) -> bool:
        r1 = qseries.zeta_classical_float(c1, 1_000_000)
        r2 = qseries.zeta_classical_float(c2, 1_000_000)
        return abs(r1.value - r2.value) <= r1.tail_bound + r2.tail_bound

    yield Case(
        "zeta-21-vs-3",
        {"lhs": [2, 1], "rhs": [3]},
        lambda: (within((2, 1), (3,)), True),
    )
    yield Case(
        "zeta-211-vs-4",
        {"lhs": [2, 1, 1], "rhs": [4]},
        lambda: (within((2, 1, 1), (4,)), True),
    )


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--alphabet", choices=sorted(_ALPHABET_FLAGS), default=None)
    sp.add_argument("--lambda", dest="lam", default="1", help="deformation parameter (rational)")
    sp.add_argument("--json", action="store_true")


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


def _parse_operand(text: str, alphabet: str | None, lam: Fraction) -> Poly:
    out = parse_expr(text, alphabet, lam)
    if isinstance(out, tuple):
        if alphabet is None:
            raise WordError("a bare composition needs --alphabet")
        return Poly.of(z_encode(out, _ALPHABET_FLAGS[alphabet]))
    return out


def _parse_lambda(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise WordError(f"--lambda expects a rational like 1/2, got {text!r}") from None


def _emit_poly(p: Poly, as_json: bool) -> None:
    print(json.dumps(poly_json(p)) if as_json else format_poly(p))


def main(argv: Sequence[str] | None = None) -> int:
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
    sc.add_argument(
        "--kind", choices=["deconcat", "square-op", "infinitesimal"], default="deconcat"
    )
    sc.add_argument("expr")

    sq = sub.add_parser("qeval", help="evaluate a q-series model")
    sq.add_argument("--model", choices=sorted(qseries.MODELS), required=True)
    sq.add_argument("--comp", default=None)
    sq.add_argument("--expr", default=None)
    sq.add_argument("--order", type=int, default=30)
    sq.add_argument(
        "--evaluator", choices=["chain", "rota-baxter"], default="chain"
    )
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

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, WordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "product":
        lam = _parse_lambda(args.lam)
        if args.kind is not None:
            if len(args.expr) != 2:
                raise WordError("--kind needs exactly two operand expressions")
            a = _parse_operand(args.expr[0], args.alphabet, lam)
            b = _parse_operand(args.expr[1], args.alphabet, lam)
            _emit_poly(_PRODUCT_KINDS[args.kind](a, b, lam), args.json)
        else:
            if len(args.expr) != 1:
                raise WordError("expected one expression (or --kind with two operands)")
            out = parse_expr(args.expr[0], args.alphabet, lam)
            if isinstance(out, tuple):
                if args.alphabet is None:
                    raise WordError("a bare composition needs --alphabet")
                out = Poly.of(z_encode(out, _ALPHABET_FLAGS[args.alphabet]))
            _emit_poly(out, args.json)
        return 0

    if args.command == "map":
        lm = maps.get_map(args.name)
        alphabet = args.alphabet
        if alphabet is None:
            alphabet = {H2: "h", PY: "H"}[lm.alphabet]
        x = _parse_operand(args.expr, alphabet, _parse_lambda(args.lam))
        _emit_poly(lm.apply(x), args.json)
        return 0

    if args.command == "coproduct":
        x = _parse_operand(args.expr, args.alphabet, _parse_lambda(args.lam))
        fn = {
            "deconcat": hopf.deconcat,
            "square-op": hopf.coproduct_square_op,
            "infinitesimal": hopf.infinitesimal_coproduct,
        }[args.kind]
        t = fn(x)
        print(json.dumps(tensor_json(t)) if args.json else format_tensor(t))
        return 0

    if args.command == "qeval":
        if (args.comp is None) == (args.expr is None):
            raise WordError("pass exactly one of --comp or --expr")
        if args.comp is not None:
            comp = parse_expr(args.comp)
            if not isinstance(comp, tuple):
                raise WordError("--comp expects a composition like \"(2,1)\"")
            if args.evaluator == "rota-baxter":
                if args.model != "OOZ":
                    raise WordError("the rota-baxter evaluator applies to the OOZ model")
                out = qseries.rota_baxter_eval_OOZ(comp, args.order)
            else:
                out = qseries._ZETAS[args.model](comp, args.order)
        else:
            flag = "h" if args.model == "BZ" else "H"
            x = _parse_operand(args.expr, flag, Fraction(1))
            if args.evaluator == "rota-baxter":
                raise WordError("the rota-baxter evaluator takes --comp")
            out = qseries.eval_word(args.model, x, args.order)
        print(json.dumps({"type": "qseries", **out.to_json()}) if args.json else str(out))
        return 0

    if args.command == "verify":
        report = run_suite(args.suite, args.max_weight, args.order)
        print(json.dumps(report.to_json()) if args.json else report.text())
        return 0 if report.passed else 1

    if args.command == "export-vectors":
        n = export_vectors(args.suite, args.out, args.max_weight, args.order)
        print(f"wrote {n} cases to {args.out}")
        return 0

    raise WordError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
