"""Exception hierarchy shared by all gwverify modules."""

from __future__ import annotations


class GwError(Exception):
    """Base class for all errors raised by this package."""


# -- exact arithmetic ------------------------------------------------------

class DivisionByZero(GwError, ZeroDivisionError):
    pass


class DenominatorVanishes(GwError, ZeroDivisionError):
    """Substituting weights into a rational function zeroed its denominator."""


class Inhomogeneous(GwError, ValueError):
    """A weight polynomial, or a sum of scalars, mixes degrees in a1, a2."""


# -- psi recursion ---------------------------------------------------------

class UnstableInput(GwError, ValueError):
    """(g, n) with 2g - 2 + n <= 0 has no moduli space."""


class ResourceBound(GwError, ValueError):
    """Input exceeds the desk-scale bounds this package is built for."""


class NoZeroExponent(GwError, ValueError):
    pass


class NoUnitExponent(GwError, ValueError):
    pass


class UnstableReduction(GwError, ValueError):
    """Removing the marked point would leave an unstable (g, n)."""


# -- hodge oracle ----------------------------------------------------------

class GenusOutOfRange(GwError, ValueError):
    pass


class UnknownMonomial(GwError, LookupError):
    """A residual lambda-bearing monomial is not in the shipped tables.

    Raised instead of silently returning 0.
    """


class UnknownRubberKey(GwError, LookupError):
    pass


# -- cohomology ring -------------------------------------------------------

class BaseMismatch(GwError, ValueError):
    pass


class NonInvertible(GwError, ValueError):
    """Class has no invertible degree-0 part."""


# -- localization ----------------------------------------------------------

class NonInvertibleDeformation(GwError, ValueError):
    pass


class NonConstantSum(GwError, ValueError):
    """Weight symbols survived in a localization total that must be rational."""


class ExpectationMismatch(GwError, ValueError):
    pass


class ParseError(GwError, ValueError):
    pass


class SchemaError(GwError, ValueError):
    pass


# -- chern geometry --------------------------------------------------------

class InclusionUndeclared(GwError, ValueError):
    pass


class InternalMismatch(GwError, AssertionError):
    """Two independent computation paths disagreed; must never fire."""


# -- sum formula -----------------------------------------------------------

class ContactMismatch(GwError, ValueError):
    """Contact vector has an entry below 1 or does not sum to A.V."""
