"""Alphabets, normalized words, exact-rational linear combinations, and the value
base, range check and composition enumerator the other modules share.

Three working alphabets: ``H2`` on ``x0, x1`` and ``PY`` on ``p, y``, both free, and
``PDY`` on ``p, d, y`` subject to the rewriting rule ``pd = dp = 1``.  Weights:
wt(p) = 1, wt(y) = 0 on PY/PDY, and every H2 letter has weight 1.  wt(d) := -1,
forced by pd = 1 together with additivity of the grading.

Every exact value (``Alphabet``, ``Word``, ``Poly``, ``hopf.Tensor2``,
``qseries.QPoly``) derives from ``_Frozen``: it refuses setting and deleting an
attribute, and pickles and copies through its trusted ``_make``, so memos share
values freely.  A ``Word`` is a ``tuple`` subclass ``(alphabet, letters)``, so its
hash and ``==`` are tuple's, computed in C.  The alphabets are singletons that
hash and compare by identity (and pickle by name), so equal letters over two
alphabets make two words.  Otherwise the tuple stays hidden: words order by
``sort_key``, ``len`` counts letters, and they neither iterate nor add.  PDY
words are normalized eagerly on construction (the rewriting system
{pd -> 1, dp -> 1} is terminating and locally confluent, so a single stack
pass yields the unique normal form).

Letters are checked at the public boundary only: ``Word(...)``, ``Poly(...)``,
the codecs' checks on their inputs and the command-line parser.  Inside the
package, words made from valid letters go through the trusted ``Word._make``
(no letter check, but PDY words are still normalized), or through
``_normal_word`` when the letters are already in normal form.

One ``_ZCodec`` per alphabet (H2, PY) owns the z-block facts: the least part, the
counting and terminal letters, the block letters, the part check and the interned
composition -> Word table; ``z_decode`` reads from one more table, word -> composition,
whose misses each codec decodes.  Both tables are bounded, self-filling ``Memo``s.

``Poly`` is the universal carrier of all products and linear maps: a finite
formal sum of words with exact ``int | Fraction`` coefficients (zero
coefficients are never stored; an ``int`` turns into a ``Fraction`` only when
a rational coefficient enters).  It and ``hopf.Tensor2`` share the arithmetic
of ``LinComb``, and both are written here, as text or as the JSON json.dumps
writes for their dict form, assembled from strings (``poly_json``, ...).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, combinations, islice, product
from operator import add, ge, gt, itemgetter, le, lt, methodcaller, sub
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Union

if TYPE_CHECKING:
    from mzv_lab.hopf import Tensor2

Rational = Union[int, Fraction]
_set = object.__setattr__


class WordError(ValueError):
    """Base class for word/poly domain errors."""


class InvalidLetterError(WordError):
    pass


class AlphabetMismatchError(WordError):
    pass


class NotInSubalgebraError(WordError):
    pass


class EncodingError(WordError):
    pass


def check_range(what: str, value: int, lo: int, hi: int) -> None:
    """A WordError naming what and the bound it misses, unless lo <= value <= hi."""
    if value < lo:
        raise WordError(f"{what} must be >= {lo}, got {value}")
    if value > hi:
        raise WordError(f"{what} must be <= {hi}, got {value}")


class _Frozen:
    """Base of every exact value: immutable once built, so memos share it freely.  Its
    ``_fields`` are set once, by the trusted ``_make``, which copies and unpickling call."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    @classmethod
    def _make(cls, *values):
        self = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            _set(self, name, value)
        return self

    def __reduce__(self):
        return (type(self)._make, tuple(getattr(self, name) for name in self._fields))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Alphabet(_Frozen):
    """One of the three singleton alphabets: immutable, equal only to itself.  Its first
    letter counts in a z-block and its last ends one: x0 and x1, or p and y."""

    __slots__ = _fields = ("tag", "letters", "rank")

    def __new__(cls, tag: str, letters: tuple[str, ...]):
        # rank: letter -> its index in ``letters``, the canonical letter order
        return cls._make(tag, letters, {a: i for i, a in enumerate(letters)})

    def __repr__(self) -> str:
        return self.tag

    def __reduce__(self) -> str:
        return self.tag  # pickled by name: unpickling returns the singleton


H2 = Alphabet("H2", ("x0", "x1"))
PY = Alphabet("PY", ("p", "y"))
PDY = Alphabet("PDY", ("p", "d", "y"))


def _normalize_pdy(letters: tuple[str, ...]) -> tuple[str, ...]:
    # single stack pass; cancels adjacent pd / dp pairs until none remain
    out: list[str] = []
    for a in letters:
        if out and {out[-1], a} == {"p", "d"}:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


# p/d/y letters joined -> their ranks (p < d < y), which sort in string order
_RANK = methodcaller("translate", str.maketrans("pdy", "012"))


def display_sorted(alphabet: Alphabet, terms: dict, *columns: Iterable[Word]) -> list[list]:
    """[each column's words' letters joined, ..., keys, coefficients] in display order: by each
    column's word in turn as ``Word.sort_key`` orders it, two stable sorts in C per column."""
    texts = [list(map("".join, map(itemgetter(1), words))) for words in columns]
    order = list(range(len(terms)))
    for col in reversed(texts):
        keys = list(map(_RANK, col)) if alphabet is PDY else col
        order.sort(key=keys.__getitem__)
        order.sort(key=list(map(len, keys)).__getitem__)
    return [list(map(c.__getitem__, order)) for c in (*texts, list(terms), list(terms.values()))]


def _by_sort_key(op):
    # a Word comparison: op on the two sort keys
    return lambda u, v: op(u.sort_key(), v.sort_key()) if isinstance(v, Word) else NotImplemented


class Word(_Frozen, tuple):
    """A normalized word over one of the three alphabets.

    Immutable and hashable; ``w1 * w2`` concatenates (renormalizing on PDY).
    Canonical order for display and JSON is (length, letter indices).
    """

    __slots__ = ()
    _fields = ("alphabet", "letters")

    alphabet = property(itemgetter(0))
    letters = property(itemgetter(1))

    def __new__(cls, alphabet: Alphabet, letters: Iterable[str] = ()):
        letters = tuple(letters)
        for a in letters:
            if a not in alphabet.letters:
                raise InvalidLetterError(f"letter {a!r} not in alphabet {alphabet.tag}")
        return cls._make(alphabet, letters)

    @classmethod
    def _make(cls, alphabet: Alphabet, letters: tuple[str, ...]) -> "Word":
        """Trusted constructor: ``letters`` is a tuple of letters of
        ``alphabet`` and is not checked; PDY words are still normalized."""
        if alphabet is PDY:
            letters = _normalize_pdy(letters)
        return tuple.__new__(cls, (alphabet, letters))

    # the tuple underneath stays hidden: no iteration, ``in``, ``+`` or repetition
    __iter__ = __contains__ = None
    __add__ = __radd__ = __rmul__ = lambda self, other: NotImplemented

    def sort_key(self) -> tuple:
        # letter-index order: string order on x0/x1 and p/y, not on p/d/y (p < d < y)
        letters = self[1]
        key = tuple(map(PDY.rank.__getitem__, letters)) if self[0] is PDY else letters
        return (len(letters), key)

    __lt__, __le__, __gt__, __ge__ = map(_by_sort_key, (lt, le, gt, ge))

    def __len__(self) -> int:
        return len(self[1])

    def __mul__(self, other: "Word") -> "Word":
        if isinstance(other, Word):
            if other[0] is not self[0]:
                raise AlphabetMismatchError(f"{self.alphabet} * {other.alphabet}")
            return Word._make(self[0], self[1] + other[1])
        return NotImplemented

    def __str__(self) -> str:
        return "".join(self[1]) if self[1] else "1"

    def __repr__(self) -> str:
        return f"Word({self.alphabet.tag}:{self})"

    @property
    def is_unit(self) -> bool:
        return not self[1]

    @property
    def weight(self) -> int:
        letters = self[1]
        return len(letters) if self[0] is H2 else letters.count("p") - letters.count("d")

    @property
    def depth(self) -> int:
        return self[1].count(self[0].letters[-1])  # the terminal letter: x1 or y


# trusted constructor, one C call, of a word from letters already in normal form
_normal_word = partial(tuple.__new__, Word)


# -- linear combinations ------------------------------------------------------

_EXACT = (int, Fraction)


def exact(c) -> Rational:
    """c itself when it is an int or a Fraction, else Fraction(c)."""
    return c if type(c) in _EXACT else Fraction(c)


def add_pairs(terms: dict, pairs: Iterable[tuple], c: Rational = 1) -> None:
    """terms[key] += c * v in place for each (key, v); cancelled keys are deleted."""
    get, one = terms.get, c == 1
    for key, v in pairs:
        old = get(key)
        v = v if one else c * v
        if old is not None:
            v += old
        if v:
            terms[key] = v
        elif old is not None:
            del terms[key]


def signed_sum(bodies: Iterable[str], coeffs: Iterable[Rational]) -> str:
    """The sum of c*body as "a - b + 2*c": a coefficient c != +-1 is written
    in front as "c*", and each sign inline; the empty sum is "0"."""
    text = "".join([
        f" + {b}" if c == 1 else f" - {b}" if c == -1 else f" + {c}*{b}" if c > 0 else
        f" - {-c}*{b}" for b, c in zip(bodies, coeffs)
    ])
    return (text[3:] if text[1] == "+" else "-" + text[3:]) if text else "0"  # the first sign


class LinComb(_Frozen):
    """Finite linear combination of basis keys with exact coefficients.

    ``terms`` maps each key to a nonzero ``int | Fraction``; a coefficient
    stays an ``int`` until a rational one enters.  Subclasses fix the key,
    words (``Poly``) or word pairs (``hopf.Tensor2``), its check
    (``_check_key``) and its display order (``sorted_texts``: the keys'
    texts, keys and coefficients).  ``alphabet`` is the space the keys live
    in, and ``+`` and ``-`` need the same one on both sides.  Values are
    immutable, so memoized results are shared freely: accumulation in place
    writes only to a dict its caller created, and ``_make`` wraps that dict
    without a copy.
    """

    __slots__ = _fields = ("alphabet", "terms")

    def __new__(cls, alphabet, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            for key, c in terms.items():
                cls._check_key(key, alphabet)
                c = exact(c)
                if c:
                    clean[key] = c
        return cls._make(alphabet, clean)

    @classmethod
    def _make(cls, alphabet, terms: dict):
        """Trusted constructor: ``terms`` is already clean and is kept as is.  Not the
        base's loop: every product result comes through here."""
        out = object.__new__(cls)
        _set(out, "alphabet", alphabet)
        _set(out, "terms", terms)
        return out

    def __reduce__(self):  # a copy's terms are its own dict
        return (type(self)._make, (self.alphabet, dict(self.terms)))

    def _same_space(self, other: "LinComb") -> None:
        if other.alphabet is not self.alphabet:
            raise AlphabetMismatchError(f"{self.alphabet} vs {other.alphabet}")

    def _plus(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        self._same_space(other)
        terms = dict(self.terms)
        add_pairs(terms, other.terms.items(), sign)
        return self._make(self.alphabet, terms)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self._make(self.alphabet, {k: -c for k, c in self.terms.items()})

    def scale(self, coeff: Rational):
        coeff = exact(coeff)
        if coeff == 1:
            return self
        terms = {k: c * coeff for k, c in self.terms.items()} if coeff else {}
        return self._make(self.alphabet, terms)

    def __rmul__(self, coeff):
        if isinstance(coeff, _EXACT):
            return self.scale(coeff)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.alphabet is other.alphabet
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list:
        """(key, coefficient) pairs in the canonical display order."""
        return list(zip(*self.sorted_texts()[-2:]))

    def format_terms(self, body: Callable[[object], str]) -> str:
        """Signed sum in canonical order, key k shown as body(k) with a
        coefficient c != +-1 written in front as "c*"."""
        *_, keys, coeffs = self.sorted_texts()
        return signed_sum(map(body, keys), coeffs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.alphabet.tag}: {self})"


class Poly(LinComb):
    """Finite linear combination of words with exact coefficients.

    Never stores a zero coefficient; two Polys are equal iff their term maps
    are equal.  ``p * q`` is the concatenation product, extended bilinearly.
    Scalar multiplication via ``coeff * p``.
    """

    __slots__ = ()

    # the shared arithmetic is bound on Poly as well, so that instrumenting
    # Poly's own methods (perfbench/tracer.py) finds it
    __add__ = LinComb.__add__
    __sub__ = LinComb.__sub__
    __neg__ = LinComb.__neg__
    __rmul__ = LinComb.__rmul__
    __eq__ = LinComb.__eq__
    scale = LinComb.scale

    @staticmethod
    def _check_key(w: Word, alphabet: Alphabet) -> None:
        if w.alphabet is not alphabet:
            raise AlphabetMismatchError(f"term {w!r} not over {alphabet}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, alphabet: Alphabet) -> "Poly":
        return cls._make(alphabet, {})

    @classmethod
    def unit(cls, alphabet: Alphabet) -> "Poly":
        return cls._make(alphabet, {Word._make(alphabet, ()): 1})

    @classmethod
    def of(cls, word: Word, coeff: Rational = 1) -> "Poly":
        coeff = exact(coeff)
        return cls._make(word.alphabet, {word: coeff} if coeff else {})

    def __mul__(self, other):
        # concatenation product, bilinear
        if isinstance(other, _EXACT):
            return self.scale(other)
        if isinstance(other, Word):
            other = Poly.of(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_space(other)
        terms: dict[Word, Rational] = {}
        right = other.terms.items()
        add_pairs(terms, ((u * v, cu * cv) for u, cu in self.terms.items() for v, cv in right))
        return Poly._make(self.alphabet, terms)

    def sorted_texts(self) -> list[list]:
        return display_sorted(self.alphabet, self.terms, self.terms)

    def __iter__(self) -> Iterator[tuple[Word, Rational]]:
        return iter(self.sorted_terms())

    def coeff(self, word: Word) -> Rational:
        return self.terms.get(word, 0)

    def map_words(self, f: "Callable[[Word], Poly]") -> "Poly":
        """Linear extension of a word-level map into the same alphabet."""
        terms: dict[Word, Rational] = {}
        for w, c in self.terms.items():
            piece = f(w)
            self._same_space(piece)
            add_pairs(terms, piece.terms.items(), c)
        return Poly._make(self.alphabet, terms)

    def __str__(self) -> str:
        return self.format_terms(str)


def as_poly(x: Word | Poly) -> Poly:
    return Poly.of(x) if isinstance(x, Word) else x


def poly_on(x: Word | Poly, message: str, *alphabets: Alphabet) -> Poly:
    """x as a Poly, once it lies over one of alphabets; else AlphabetMismatchError(message)."""
    X = as_poly(x)
    if X.alphabet not in alphabets:
        raise AlphabetMismatchError(message)
    return X


# -- subalgebra membership --------------------------------------------------

_SPACES = {
    "H1": (PY, None, "y"),     # empty or ends in y
    "Hm1": (PY, "p", None),    # empty or starts with p
    "H0": (PY, "p", "y"),      # empty, or starts with p and ends in y
    "h1": (H2, None, "x1"),
    "hm1": (H2, "x0", None),
    "h0": (H2, "x0", "x1"),
}


def membership(word: Word, space: str) -> bool:
    """Boundary-letter membership tests for the six distinguished subalgebras."""
    try:
        alphabet, first, last = _SPACES[space]
    except KeyError:
        raise WordError(f"unknown space {space!r}; expected one of {sorted(_SPACES)}") from None
    if word.alphabet is not alphabet:
        raise AlphabetMismatchError(f"{space} is a space of {alphabet} words, got {word.alphabet}")
    letters = word.letters
    return not letters or (first in (None, letters[0]) and last in (None, letters[-1]))


def poly_membership(poly: Poly, space: str) -> bool:
    return all(membership(w, space) for w in poly.terms)


# -- bounded memos -----------------------------------------------------------

class Memo(dict):
    """A module-level cache: a dict whose store, once maxsize entries are held, first
    drops the oldest half by insertion order.  A hit stays a plain ``dict.get``; stores
    and evicted entries are counted.  Under a budget it also counts the terms its values
    hold (the sum of their lengths), and ``trim`` drops oldest halves until they fit the
    budget.  Every Memo registers itself in ``MEMOS``, and equals only itself, so ``in``,
    ``index`` and ``remove`` on ``MEMOS`` find that one."""

    __slots__ = ("maxsize", "budget", "stores", "evictions", "held")
    __eq__, __ne__ = object.__eq__, object.__ne__

    def __init__(self, maxsize: int, budget: int | None = None):
        self.maxsize, self.budget, self.stores, self.evictions, self.held = maxsize, budget, 0, 0, 0
        MEMOS.append(self)

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.maxsize:
            self._drop_oldest_half()
        self.stores += 1
        if self.budget is not None:  # an overwrite replaces its key's weight
            self.held += len(value) - len(dict.get(self, key, ()))
        dict.__setitem__(self, key, value)

    def _drop_oldest_half(self) -> None:
        old = [self.pop(k) for k in list(islice(self, (len(self) + 1) // 2))]
        self.evictions += len(old)
        self.held -= sum(map(len, old)) if self.budget is not None else 0

    def trim(self) -> None:
        """Drop the oldest half until the terms held fit the budget."""
        while self.held > self.budget:
            self._drop_oldest_half()

    def clear(self) -> None:
        dict.clear(self)
        self.held = 0

    def cache_info(self) -> dict[str, int | None]:
        return dict(size=len(self), **{name: getattr(self, name) for name in Memo.__slots__})


MEMOS: list[Memo] = []


class _Interned(Memo):
    """A Memo that fills itself, the values of ``make``: on a hit ``table[key]`` is one dict
    lookup in C, and a miss stores ``make(key)`` through the Memo's store, so the bound and
    the count apply to it; a key that ``make`` refuses stores nothing."""

    __slots__ = ("make",)

    def __init__(self, maxsize: int, make: Callable):
        super().__init__(maxsize)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def clear_caches() -> None:
    """Empty every Memo; its counts run on."""
    for memo in MEMOS:
        memo.clear()


# -- z-block codecs ----------------------------------------------------------

class _Table(dict):
    """A self-filling table of ``make``'s values, read in C by ``dict.__getitem__``, that keeps
    those of keys below ``limit`` only: the 256 least z-parts, or runs of fewer than 256
    x0s (as strings), so a larger part is built at each lookup, never kept."""

    __slots__ = ("make", "limit")

    def __init__(self, make: Callable, limit):
        self.make, self.limit = make, limit

    def __missing__(self, key):
        value = self.make(key)
        if key < self.limit:
            self[key] = value
        return value


# the entries of each interned table, composition -> its Word and Word -> its composition:
# ooz-explicit-vs-recursive at --max-weight 8 meets 12 868 compositions
INTERNED = 16384


class _ZCodec:
    """One alphabet's z-block codec, z_k = count^(k - least) terminal: the counting letter
    (x0 or p) and the terminal one (x1 or y), the table ``block`` of the 256 least parts'
    letters, and ``words``, each composition's interned Word (parts unchecked)."""

    __slots__ = ("alphabet", "least", "count", "terminal", "block", "words")

    def __init__(self, alphabet: Alphabet, least: int):
        count, terminal, join = alphabet.letters[0], alphabet.letters[-1], chain.from_iterable
        self.alphabet, self.least, self.count, self.terminal = alphabet, least, count, terminal
        block = self.block = _Table(lambda k: (count,) * (k - least) + (terminal,), least + 256)
        self.words = _Interned(
            INTERNED, lambda comp: _normal_word((alphabet, tuple(join(map(block.__getitem__, comp)))))
        )

    def size(self, comp: tuple[int, ...]) -> int:
        """The letter count of comp's word, once every part is at least ``least``."""
        least = self.least
        if comp and min(comp) < least:  # name the first offending part
            bad = next(k for k in comp if k < least)
            raise EncodingError(f"{self.alphabet.tag} z-block needs k >= {least}, got {bad}")
        return sum(comp) + len(comp) * (1 - least)  # z_k has k - least + 1 letters

    def decode(self, word: Word) -> tuple[int, ...]:
        """The composition of a z-decodable word: the miss of ``_COMP_CACHE``."""
        *runs, rest = "".join(word[1]).split(self.terminal)
        if rest:
            raise NotInSubalgebraError(f"{word!r} does not end in {self.terminal}; not z-decodable")
        return tuple(len(run) // len(self.count) + self.least for run in runs)


_ZCODECS = {PY: _ZCodec(PY, 0), H2: _ZCodec(H2, 1)}
_PY_WORD_CACHE, _H2_WORD_CACHE = _ZCODECS[PY].words, _ZCODECS[H2].words


def _codec_of(alphabet: Alphabet, error: type = EncodingError) -> _ZCodec:
    """alphabet's z-block codec; error when it has none."""
    codec = _ZCODECS.get(alphabet)
    if codec is None:
        raise error(f"no z-block codec on alphabet {alphabet.tag}")
    return codec


def z_encode(comp: Iterable[int], alphabet: Alphabet) -> Word:
    """Encode a composition as a word of z-blocks.

    PY:  z_k = p^k y   (k >= 0);   H2:  z_k = x0^(k-1) x1   (k >= 1).
    The empty composition encodes to the unit word.
    """
    comp, codec = tuple(comp), _codec_of(alphabet)
    codec.size(comp)  # the part check
    return codec.words[comp]


# word -> its composition, on both alphabets
_COMP_CACHE = _Interned(INTERNED, lambda w: _codec_of(w[0], NotInSubalgebraError).decode(w))


def z_decode(word: Word) -> tuple[int, ...]:
    """Inverse of z_encode on H1 (PY) / h1 (H2) words."""
    return _COMP_CACHE[word]


def zp(comp: Iterable[int], alphabet: Alphabet = PY, coeff: Rational = 1) -> Poly:
    return Poly.of(z_encode(comp, alphabet), coeff)


# a z-block's text by its run of x0s; the run "|" of word_texts stays "|"
_Z_TEXT = _Table(lambda run: f"z{{{len(run) // 2 + 1}}}", "x0" * 256)
_Z_TEXT["|"] = "|"


def word_texts(texts: list[str], alphabet: Alphabet) -> list[str]:
    """``format_word`` of each word from its letters, joined; x0/x1 words that all end
    in x1 (or are empty) take one split in C for all, and a table lookup per z-block."""
    joined = "|x1".join(texts) if alphabet is H2 else ""  # a split cuts each "|x1" to a run "|"
    if joined.endswith("x1") and joined.count("x1|") + joined.startswith("|") >= len(texts) - 1:
        texts = "".join(map(_Z_TEXT.__getitem__, joined.split("x1")[:-1])).split("|")
    elif joined and len(texts) > 1:
        return [word_texts([t], H2)[0] for t in texts]
    return [t or "1" for t in texts]


def format_word(w: Word) -> str:
    """Canonical text: z-block form for z-decodable x0/x1 words, letter
    juxtaposition otherwise, and "1" for the unit."""
    return word_texts(["".join(w[1])], w[0])[0]


# -- writers of Poly and Tensor2 ----------------------------------------------

def format_poly(p: Poly) -> str:
    texts, _, coeffs = p.sorted_texts()
    return signed_sum(word_texts(texts, p.alphabet), coeffs)


def format_tensor(t: Tensor2) -> str:
    left, right, _, coeffs = t.sorted_texts()
    bodies = map(" (x) ".join, zip(word_texts(left, t.alphabet), word_texts(right, t.alphabet)))
    return signed_sum(bodies, coeffs)


def _json_value(kind: str, alphabet: Alphabet, coeffs: list, **fields: Iterable[Word]) -> str:
    # a term is {"coeff", **fields}, each field's letters joined by '", "' in '["' and '"]'
    rows, close = map(str, coeffs), '"'  # close: the end of the field before
    for name, words in fields.items():
        letters = map('", "'.join, map(itemgetter(1), words))
        rows, close = map(f'{close}, "{name}": ["'.join, zip(rows, letters)), '"]'
    rows = '{"coeff": "' + '"]}, {"coeff": "'.join(rows) + '"]}' if coeffs else ""
    text = f'{{"type": "{kind}", "alphabet": "{alphabet.tag}", "terms": [{rows}]}}'
    return text.replace('[""]', "[]")  # the unit's letters


def poly_json(p: Poly) -> str:
    _, words, coeffs = p.sorted_texts()
    return _json_value("poly", p.alphabet, coeffs, word=words)


def tensor_json(t: Tensor2) -> str:
    *_, pairs, coeffs = t.sorted_texts()
    left, right = (map(itemgetter(i), pairs) for i in (0, 1))
    return _json_value("tensor", t.alphabet, coeffs, left=left, right=right)


# -- letter-level morphisms --------------------------------------------------

_SWAP = {"x0": "x1", "x1": "x0", "p": "y", "y": "p"}


def reverse_swap(word: Word) -> Word:
    """Reverse the word and swap the two weight-bearing letters.

    On x0/x1 this exchanges x0 and x1; on p/y it exchanges p and y.  Either
    way the result is an anti-automorphism involution of the word algebra.
    Undefined on p/d/y words (d has no partner).
    """
    if word.alphabet is PDY:
        raise AlphabetMismatchError("reverse_swap is not defined on p/d/y words")
    return _normal_word((word.alphabet, tuple(map(_SWAP.__getitem__, reversed(word.letters)))))


def weight_projection(poly: Poly, w: int) -> Poly:
    """Keep exactly the terms whose word has weight w."""
    return Poly(poly.alphabet, {word: c for word, c in poly.terms.items() if word.weight == w})


# -- enumeration helpers (deterministic: by weight, then canonical order) ----

def iter_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    """All normalized words of the exact letter length, in canonical order."""
    for letters in product(alphabet.letters, repeat=length):
        if alphabet is PDY and _normalize_pdy(letters) != letters:
            continue
        yield Word._make(alphabet, letters)


def iter_zcomps(total: int, depth: int, first_min: int, rest_min: int) -> Iterator[tuple[int, ...]]:
    """Compositions (k1..kn) with sum == total, n == depth, k1 >= first_min,
    kj >= rest_min for j >= 2.  Lexicographic order."""
    if depth == 0:
        return iter([()] if total == 0 else [])
    # a row of n places holds depth - 1 bars and the units left once each part has its least
    # value: a part is that value plus the b - a - 1 units between its bars a < b (-1 and n
    # at the ends), and the bars' places in lexicographic order give the parts in that order
    lows = (first_min - 1,) + (rest_min - 1,) * (depth - 1)
    n = total - sum(lows) - 1
    bars = combinations(range(n), depth - 1) if n >= depth - 1 else ()
    return (tuple(map(add, lows, map(sub, (*c, n), (-1, *c)))) for c in bars)
