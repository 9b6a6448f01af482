"""Exception types shared across the package.

Mathematical precondition failures get their own classes so the CLI can
distinguish them (exit 3) from input errors (exit 2: file validation and
arguments out of range), and internal errors (exit 70) from both.
"""


class AlexinvError(Exception):
    """Base class for all package errors."""


class InternalError(AssertionError):
    """A check of the package's own arithmetic failed: a bug, not bad
    input, so the CLI exits 70 (EX_SOFTWARE)."""


class BadArgument(AlexinvError, ValueError):
    """An argument outside the function's domain, such as a character of
    the wrong length or a cover order below 1: an input error (exit 2).
    It is also a ValueError, which these functions raised before."""


class ZeroInput(AlexinvError):
    """An operation received the zero polynomial where nonzero is required."""


class NotPolynomial(AlexinvError):
    """A formal product does not expand to a Laurent polynomial."""


class NotCoprime(AlexinvError):
    pass


class UnsupportedDimension(AlexinvError):
    """Polytope / face machinery is capped at three variables."""


class InvalidAbelianization(AlexinvError):
    """The declared abelianization map does not kill a relator."""


class TrivialCharacterUnsupported(AlexinvError):
    """Characteristic-variety operations exclude the identity character."""


class NonTorsionModule(AlexinvError):
    """The Alexander module has positive rank, so no order is defined."""


class MissingSublinkData(AlexinvError):
    pass


class BadWord(AlexinvError):
    """A group or braid word refers to a generator out of range."""


class Unsupported(AlexinvError):
    pass


class NonRationalInfinitelyNearPoint(AlexinvError):
    """Blow-up hit points whose coordinates generate a proper extension of Q.

    Carries the squarefree polynomial whose roots are the offending points.
    Of degree at most 3 it has no rational root, so it is the minimal
    polynomial; of degree 4 or more it may be a product of minimal
    polynomials.  Callers may supply an explicit resolution-tree file
    instead of a germ.
    """

    def __init__(self, polynomial: str, irreducible: bool):
        self.polynomial = polynomial
        kind = "minimal polynomial" if irreducible else "product of minimal polynomials"
        super().__init__(
            "infinitely near point with irrational coordinates; "
            f"{kind} {polynomial}; supply an explicit resolution tree file instead"
        )


class NotReduced(AlexinvError):
    """A germ (or the product of its components) is not squarefree."""


class BadGerm(AlexinvError):
    pass


class BadHodgeData(AlexinvError):
    pass


class UseFacesForMultiComponent(AlexinvError):
    """Constants of quasiadjunction are a one-branch notion; use faces."""


class TheoremViolation(AlexinvError):
    """A divisibility guaranteed by theory failed; indicates bad input data."""


class ValidationError(AlexinvError):
    """Input file failed schema or semantic validation.

    ``violations`` lists every problem found, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ResolutionDidNotTerminate(AlexinvError):
    pass
