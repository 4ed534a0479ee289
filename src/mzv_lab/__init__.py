"""Exact symbolic and numeric laboratory for (q-)multiple zeta value algebra.

The package implements three noncommutative word algebras with exact rational
coefficients, the full family of shuffle / quasi-shuffle type products on them,
a generic "transferred" Hopf-algebra construction, duality involutions and
transfer maps, and exact truncated q-series evaluators for the four standard
q-analogue models of multiple zeta values (Schlesinger-Zudilin, its star
version, Bradley-Zhao, and Ohno-Okuda-Zudilin), plus a floating-point
classical evaluator with a proven error bound, used as an oracle.

Modules
-------
words     alphabets, normalized words, weight and depth, the Poly carrier, codecs,
          text and JSON writers
products  every bilinear product (shuffle, quasi-shuffle, lambda-variants, ...),
          and the one driver that also sums coarsenings for maps and hopf
hopf      deconcatenation coalgebra, antipode, transferred Hopf structure
maps      duality involutions, derivations, U/V/S transfer maps
qseries   truncated q-series arithmetic and the four q-MZV evaluators
suites    the named verification suites, their default bounds, runner and export
cli       expression parser and command line interface
"""

from mzv_lab.words import Alphabet, Word, Poly, H2, PY, PDY

__all__ = ["Alphabet", "Word", "Poly", "H2", "PY", "PDY"]

__version__ = "0.1.0"
