"""The three workloads: operations drawn from a seed, and their checks.

``build(name, seed)`` returns ``(ops, checks)``.  Each op is one call into
mzv_lab through a public entry point: ``cli.main(argv)`` with stdout
captured, or the documented Python API.  The timed phase runs the ops in
order; afterwards every check reads the recorded outputs and compares them
with a value computed in ``checks.py``, apart from the program, or with the
output of a second route through the program.

Operands are drawn from the seed at fixed shapes: each slot fixes the kind
of op, the alphabet, and the weight and depth of every operand, and the seed
only chooses the parts.  Cost follows shape far more than parts, so rounds
cost about the same whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks as ref
from checks import z_letters, z_text

NAMES = ("verify", "algebra", "qseries")

# the named fault: the first-letter recursion of the stuffle passes the
# interpreter's recursion limit on long compositions
FAULT_PARTS = 1200


@dataclass
class Op:
    label: str
    run: Callable[[dict], object]  # reads earlier outputs by label
    fault: bool = False  # expected to raise until the program mends it


Check = tuple[str, Callable[[dict], bool]]


def comp(rng: random.Random, weight: int, depth: int, first_min: int = 1, rest_min: int = 1):
    """A random composition with the given weight and depth."""
    mins = [first_min] + [rest_min] * (depth - 1)
    spare = weight - sum(mins)
    cuts = sorted(rng.sample(range(spare + depth - 1), depth - 1))
    bars = [-1] + cuts + [spare + depth - 1]
    return tuple(m + bars[i + 1] - bars[i] - 1 for i, m in enumerate(mins))


def cli_call(argv: list[str]) -> tuple[int, str]:
    from mzv_lab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def build(name: str, seed: int) -> tuple[list[Op], list[Check]]:
    return {"verify": _verify, "algebra": _algebra, "qseries": _qseries}[name](
        random.Random(f"{name}:{seed}")
    )


# ---------------------------------------------------------------------------
# verify: every registered suite at default bounds, in registry order
# ---------------------------------------------------------------------------

def _verify(rng: random.Random):
    import json

    from mzv_lab import cli

    ops, out = [], []
    for suite in cli.SUITES:
        label = f"suite.{suite}"
        ops.append(Op(label, lambda res, s=suite: cli_call(["verify", "--suite", s, "--json"])))

        def ok(res, label=label, suite=suite):
            rc, text = res[label]
            report = json.loads(text)
            return rc == 0 and report["suite"] == suite and report["cases"] > 0 and not report["failures"]

        out.append((f"{label} exits 0 with no failures", ok))
    return ops, out


# ---------------------------------------------------------------------------
# algebra: products, maps and coproducts through the CLI
# ---------------------------------------------------------------------------

class _Algebra:
    def __init__(self):
        self.ops: list[Op] = []
        self.checks: list[Check] = []

    def cmd(self, label: str, argv: list[str], as_json: bool, fault: bool = False) -> str:
        label = f"{len(self.ops):03d}.{label}"
        argv = argv + (["--json"] if as_json else [])
        self.ops.append(Op(label, lambda res: cli_call(argv), fault))
        return label

    def check(self, what: str, fn: Callable[[dict], bool]) -> None:
        self.checks.append((what, fn))

    def output(self, res: dict, label: str, as_json: bool, tensor: bool = False):
        rc, text = res[label]
        if rc != 0:
            raise AssertionError(f"{label} exited {rc}")
        return ref.decode(text, as_json, tensor)

    def homogeneous(self, lin, alphabet: str, expected: int) -> bool:
        return {ref.weight(w, alphabet) for w in lin} == {expected}

    # -- products ----------------------------------------------------------
    def product(self, kind, alphabet, cu, cv, lam=None, as_json=False, expect=None):
        """One `product --kind` op; `expect(lin)` is its closed-form check."""
        argv = ["product", "--kind", kind, "--alphabet", alphabet, z_text(cu), z_text(cv)]
        if lam is not None:
            argv += ["--lambda", str(lam)]
        label = self.cmd(f"product-{kind}", argv, as_json)
        if expect is not None:
            self.check(
                f"{label} {' '.join(argv)}",
                lambda res: expect(self.output(res, label, as_json)),
            )
        return label

    def same_output(self, what: str, a: str, b: str) -> None:
        self.check(what, lambda res: res[a][0] == 0 and res[a] == res[b])

    def same_value(self, what: str, a: tuple[str, bool], b: tuple[str, bool], tensor=False):
        self.check(
            what,
            lambda res: self.output(res, a[0], a[1], tensor) == self.output(res, b[0], b[1], tensor),
        )

    def text_json_pair(self, kind, alphabet, cu, cv, expect=None):
        a = self.product(kind, alphabet, cu, cv, as_json=False, expect=expect)
        b = self.product(kind, alphabet, cu, cv, as_json=True)
        self.same_value(f"{a} text and JSON agree", (a, False), (b, True))

    # -- maps and coproducts -----------------------------------------------
    def map(self, name, alphabet, expr, as_json=False, expect=None):
        argv = ["map", "--name", name, "--alphabet", alphabet, expr]
        label = self.cmd(f"map-{name}", argv, as_json)
        if expect is not None:
            self.check(f"{label} {' '.join(argv)}", lambda res: expect(self.output(res, label, as_json)))
        return label

    def involution(self, first: str, second: str, alphabet: str, cw) -> None:
        """`map second (map first W)` gives back W; the second op reads the
        first op's text output, so its argument is only known at run time."""
        a = self.map(first, alphabet, z_text(cw))
        label = f"{len(self.ops):03d}.map-{second}-of-{first}"

        def run(res):
            rc, text = res[a]
            return cli_call(["map", "--name", second, "--alphabet", alphabet, "--", text.strip()])

        self.ops.append(Op(label, run))
        self.check(
            f"{label} on {z_text(cw)} is the identity",
            lambda res: self.output(res, label, False) == {z_letters(cw, alphabet): 1},
        )

    def coproduct(self, kind, alphabet, cw, as_json=False, expect=None):
        argv = ["coproduct", "--kind", kind, "--alphabet", alphabet, z_text(cw)]
        label = self.cmd(f"coproduct-{kind}", argv, as_json)
        if expect is not None:
            self.check(
                f"{label} {' '.join(argv)}",
                lambda res: expect(self.output(res, label, as_json, tensor=True)),
            )
        return label


def _algebra(rng: random.Random):
    A = _Algebra()
    C = lambda w, d, first=1, rest=1: comp(rng, w, d, first, rest)  # noqa: E731
    js = [False, True]

    def coeff_sum(n):
        return lambda lin: sum(lin.values()) == n

    # shuffle on x0/x1: C(a+b, a) terms counted with multiplicity; an x0/x1
    # word's length is its weight
    for i in range(10):
        cu, cv = C(8, 3), C(7, 3)
        A.product("shuffle", "h", cu, cv, as_json=js[i % 2],
                  expect=lambda lin: sum(lin.values()) == ref.shuffle_count(8, 7)
                  and A.homogeneous(lin, "h", 15))
    # stuffle on x0/x1: the Delannoy number of the two depths
    for i in range(10):
        A.product("quasi", "h", C(9, 6), C(9, 6), as_json=js[i % 2],
                  expect=lambda lin: sum(lin.values()) == ref.stuffle_count(6, 6)
                  and A.homogeneous(lin, "h", 18))
    # square on x0/x1 is the stuffle moved through tau: depths become weight - depth
    for i in range(8):
        A.product("square", "h", C(6, 3, 2), C(6, 3, 2), as_json=js[i % 2],
                  expect=lambda lin: sum(lin.values()) == ref.stuffle_count(3, 3)
                  and A.homogeneous(lin, "h", 12))
    # star products: weight-homogeneous, and the two encodings agree
    for i in range(4):
        A.text_json_pair("star", "h", C(7, 3), C(6, 3),
                         expect=lambda lin: A.homogeneous(lin, "h", 13))
        A.text_json_pair("star-alt", "h", C(6, 3), C(6, 3),
                         expect=lambda lin: A.homogeneous(lin, "h", 12))
    # p/y stuffle deformed by lambda: sum over merges of lambda^k
    for i, lam in enumerate((1, -1, 2, Fraction(1, 2)) * 2):
        cu, cv = C(6, 5, 1, 0), C(6, 5, 1, 0)
        want = ref.stuffle_count(5, 5, Fraction(lam))
        A.product("quasi", "H", cu, cv, lam=lam, as_json=js[i % 2],
                  expect=lambda lin, want=want: sum(lin.values()) == want and A.homogeneous(lin, "H", 12))
    # square equals shuffle at the same lambda (two CLI routes); on p/y the
    # square is the stuffle moved through tau~, whose depths are the weights
    for i, lam in enumerate((1, -1, 2, -2) * 2):
        cu, cv = C(4, 3, 1, 0), C(4, 3, 1, 0)
        want = ref.stuffle_count(4, 4, Fraction(lam))
        a = A.product("square", "H", cu, cv, lam=lam, as_json=js[i % 2],
                      expect=lambda lin, want=want: sum(lin.values()) == want)
        b = A.product("shuffle", "H", cu, cv, lam=lam, as_json=js[i % 2])
        A.same_output(f"{a} square equals shuffle at lambda {lam}", a, b)
    # once-out-of-zeta products: the two encodings agree
    for i in range(4):
        A.text_json_pair("ooz", "H", C(5, 5, 1, 0), C(5, 5, 1, 0))
        A.text_json_pair("ooz-square", "H", C(4, 3, 1, 0), C(4, 3, 1, 0))
    # circle action: z_k o (z_j w) = z_(k+j) w, computed here
    for i in range(6):
        k, vs = rng.randint(1, 4), [C(9, 5, 1, 0) for _ in range(200)]
        expr = "(" + " + ".join(z_text(v) for v in vs) + ")"
        want: dict = {}
        for v in vs:
            w = z_letters((k + v[0],) + v[1:], "H")
            want[w] = want.get(w, 0) + 1
        argv = ["product", "--kind", "ihara-circ", "--alphabet", "H", z_text((k,)), expr]
        label = A.cmd("product-ihara-circ", argv, js[i % 2])
        A.check(f"{label} {z_text((k,))} o ...", lambda res, label=label, want=want, j=js[i % 2]:
                A.output(res, label, j) == want)

    # -- maps ----------------------------------------------------------------
    for i in range(4):
        cw = C(300, 100, 2)
        A.map("tau", "h", z_text(cw), js[i % 2],
              expect=lambda lin, cw=cw: lin == {ref.reverse_swap(z_letters(cw, "h")): 1})
        cw = C(200, 150, 1, 0)
        A.map("tautilde", "H", z_text(cw), js[i % 2],
              expect=lambda lin, cw=cw: lin == {ref.reverse_swap(z_letters(cw, "H")): 1})
    # binomial transforms: coefficient sums are powers of two, or zero for
    # the signed inverses of words above the lowest parts
    for i in range(4):
        cw = C(17, 5, 2)
        A.map("U", "h", z_text(cw), js[i % 2], expect=coeff_sum(2 ** (17 - 5 - 1)))
        A.map("Uinv", "h", z_text(cw), js[i % 2], expect=coeff_sum(0))
        cw = C(12, 5, 1, 0)
        A.map("V", "H", z_text(cw), js[i % 2], expect=coeff_sum(2 ** (12 - 1)))
        A.map("Vinv", "H", z_text(cw), js[i % 2], expect=coeff_sum(0))
    # derivations: x0 -> x0 (x0+x1)^(n-1) x1, x1 -> minus that, by Leibniz;
    # weight grows by n, coefficients sum to (#x0 - #x1) 2^(n-1)
    for i in range(6):
        cw = C(40, 12, 2)
        n_x0, n_x1 = 40 - 12, 12
        a = A.map("dn:2", "h", z_text(cw), js[i % 2],
                  expect=lambda lin, s=(n_x0 - n_x1) * 2: sum(lin.values()) == s
                  and A.homogeneous(lin, "h", 42))
        # the order-two derivation relation read as a Hoffman-Ohno type relation
        w = z_text(cw)
        b = A.cmd("product-dn2-route", ["product", "--alphabet", "h", f"{w} sq z{{2}} - {w} * z{{2}}"], js[i % 2])
        A.same_output(f"{a} dn:2 equals W sq z{{2}} - W * z{{2}}", a, b)
    for i in range(4):
        cw = C(30, 10, 2)
        A.map("dn:3", "h", z_text(cw), js[i % 2],
              expect=lambda lin: sum(lin.values()) == (20 - 10) * 4 and A.homogeneous(lin, "h", 33))
    # involutions, through the text output of the first map
    for i in range(4):
        A.involution("tau", "tau", "h", C(200, 80, 2))
        A.involution("Sinv", "S", "H", C(8, 8, 1, 0))
    for i in range(3):
        A.involution("dual2", "dual2", "h", C(9, 4, 2))
    for i in range(2):
        A.involution("dual1", "dual1", "H", C(7, 4, 1, 0))

    # -- coproducts ----------------------------------------------------------
    for i in range(6):
        alphabet = "hH"[i % 2]
        cw = C(60, 40, 1, 1 if alphabet == "h" else 0)
        want = {
            (z_letters(cw[:j], alphabet), z_letters(cw[j:], alphabet)): 1 for j in range(len(cw) + 1)
        }
        A.coproduct("deconcat", alphabet, cw, js[i // 2 % 2], expect=lambda t, want=want: t == want)
    for i in range(4):
        for kind in ("square-op", "infinitesimal"):
            cw = C(40, 25, 1, 0)
            a = A.coproduct(kind, "H", cw, False)
            b = A.coproduct(kind, "H", cw, True)
            A.same_value(f"{a} text and JSON agree", (a, False), (b, True), tensor=True)

    # -- the named fault, last: it leaves partial memo entries behind ----------
    ones = "(" + ",".join(["1"] * FAULT_PARTS) + ")"
    for as_json in js:
        label = A.cmd("fault-quasi-1200", ["product", "--kind", "quasi", "--alphabet", "h", ones, "z{1}"],
                      as_json, fault=True)
        A.check(f"{label} stuffle of {FAULT_PARTS} z{{1}} with z{{1}}",
                lambda res, label=label, j=as_json: sum(A.output(res, label, j).values())
                == ref.stuffle_count(FAULT_PARTS, 1))
    return A.ops, A.checks


# ---------------------------------------------------------------------------
# qseries: cold, high-order evaluations through the Python API
# ---------------------------------------------------------------------------

def _qseries(rng: random.Random):
    from mzv_lab import products, qseries, words

    ops: list[Op] = []
    out: list[Check] = []
    prefix = 10  # naive chain sums are checked through q^10

    def coeffs(x) -> list:
        return list(x.coeffs)

    def zeta(model: str, c, n: int) -> str:
        fn = {"SZ": qseries.zeta_SZ, "SZstar": qseries.zeta_SZ_star,
              "BZ": qseries.zeta_BZ, "OOZ": qseries.zeta_OOZ}[model]
        label = f"{len(ops):03d}.zeta_{model}{c}@{n}"
        ops.append(Op(label, lambda res: fn(c, n)))
        out.append((f"{label} prefix is the naive chain sum",
                    lambda res: coeffs(res[label])[: prefix + 1] == ref.naive_zeta(model, c, prefix)))
        return label

    def equal(what: str, a: str, b: str) -> None:
        out.append((what, lambda res: coeffs(res[a]) == coeffs(res[b])))

    C = lambda w, d, first=1, rest=0: comp(rng, w, d, first, rest)  # noqa: E731

    # zeta(1) in the OOZ model: the coefficient of q^n is the number of divisors of n
    label = zeta("OOZ", (1,), 300)
    out.append((f"{label} coefficients are divisor counts",
                lambda res, label=label: coeffs(res[label]) == ref.divisor_counts(300)))
    # (depth, order) slots; each pair of ops has an order of its own, so no
    # suffix sums are shared between pairs, whatever the seed
    for rep in range(2):
        for depth, n in ((2, 300), (2, 270), (3, 240), (3, 210), (4, 180), (4, 160), (5, 140), (5, 120)):
            n -= 2 * rep
            # Zhao duality: zeta_SZ(tau~ w) = zeta_SZ(w).  Parts >= 1 give
            # every dual the same depth and the same number of zero parts
            c = C(depth + 2, depth, 1, 1)
            a, b = zeta("SZ", c, n), zeta("SZ", ref.dual_comp(c, "H"), n)
            equal(f"{a} Zhao duality", a, b)
            # OOZ = SZstar o tau~
            c = C(depth + 2, depth, 1, 1)
            a, b = zeta("OOZ", c, n - 1), zeta("SZstar", ref.dual_comp(c, "H"), n - 1)
            equal(f"{a} equals SZstar of the dual", a, b)
            # Bradley duality: zeta_BZ(tau w) = zeta_BZ(w) on x0/x1 words
            c = C(depth + 3, depth, 2, 1)
            a, b = zeta("BZ", c, n + 1), zeta("BZ", ref.dual_comp(c, "h"), n + 1)
            equal(f"{a} Bradley duality", a, b)
    # OOZ with negative inner parts, and the Rota-Baxter evaluator against chains
    for depth, n in ((2, 130), (2, 125), (3, 115), (3, 110), (4, 105), (4, 100)):
        c = C(depth + 3, depth, 1, 0)
        c = (c[0],) + tuple(k - 1 if rng.random() < 0.5 else k for k in c[1:])
        a = zeta("OOZ", c, n)
        label = f"{len(ops):03d}.rota_baxter_eval_OOZ{c}@{n}"
        ops.append(Op(label, lambda res, c=c, n=n: qseries.rota_baxter_eval_OOZ(c, n)))
        equal(f"{label} Rota-Baxter equals the chain sum", label, a)

    # characters: eval_word of a product output against the product of the
    # two evaluations; the benchmark multiplies the coefficient lists itself
    characters = (
        ("SZ", lambda u, v: products.quasi_shuffle_lambda(u, v, 1)),
        ("SZ", lambda u, v: products.shuffle_lambda(u, v, 1)),
        ("SZstar", lambda u, v: products.quasi_shuffle_lambda(u, v, -1)),
        ("OOZ", lambda u, v: products.ooz_quasi_shuffle(u, v)),
        ("OOZ", lambda u, v: products.shuffle_lambda(u, v, -1)),
    )
    for i, (model, prod) in enumerate(characters * 2):
        cu = C(3, 2, 1, 1)
        cv, n = cu[::-1], 100 - i
        u, v = words.z_encode(cu, words.PY), words.z_encode(cv, words.PY)
        label = f"{len(ops):03d}.eval_word_{model}{cu}x{cv}@{n}"

        def run(res, model=model, prod=prod, u=u, v=v, n=n):
            fu, fv = qseries.eval_word(model, u, n), qseries.eval_word(model, v, n)
            return qseries.eval_word(model, prod(u, v), n), fu, fv, fu * fv

        ops.append(Op(label, run))

        def character(res, label=label, model=model, cu=cu, cv=cv):
            whole, fu, fv, fuv = (coeffs(x) for x in res[label])
            product = ref.series_mul(fu, fv)
            return (
                whole == product
                and fuv == product
                and fu[: prefix + 1] == ref.naive_zeta(model, cu, prefix)
                and fv[: prefix + 1] == ref.naive_zeta(model, cv, prefix)
            )

        out.append((f"{label} is multiplicative", character))
    return ops, out
