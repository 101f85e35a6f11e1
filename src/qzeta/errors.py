"""Exception types shared across the package.

``InputError`` subclasses signal rejected input (CLI exit code 2).  A
failed correspondence, theorem or verify-batch check raises nothing: the
CLI reports it and returns exit code 3 itself.
"""


class QzetaError(Exception):
    pass


class InputError(QzetaError):
    """Invalid or unsupported input data."""


class EmptyDivisor(InputError):
    """D has no component with positive multiplicity."""


class LogPoleOutsideD(InputError):
    """A component outside supp(D) carries multiplicity -1 in W."""


class DuplicateBranch(InputError):
    """Two branches share the same coefficient class."""


class AdjunctionViolation(InputError):
    """An exceptional component violates sum(alpha_P - 1) = 2g - 2."""

    def __init__(self, component_id, residual):
        self.component_id = component_id
        self.residual = residual
        super().__init__(
            f"component {component_id!r}: sum(alpha-1) - (2g-2) = {residual}"
        )


class ZeroN(InputError):
    """alpha-values requested with respect to a component with N = 0."""


class ZeroDenominatorForm(InputError):
    """A component carries numerical data (0,0)."""


class OrderTwo(QzetaError):
    """Residue requested at a candidate pole of order two."""


class ZeroAlpha(QzetaError):
    """Residue formula invalid: some alpha-value vanishes."""


class NonSmallAction(InputError):
    """S-factor requested for a non-small action."""


class IndeterminateLimit(QzetaError):
    """Euler specialization met a term outside its closed form: more than
    2 factors, or a numerator vanishing below its factor count."""


class MixedOrbitMultiplicity(InputError):
    """Branches in one orbit carry unequal coefficients."""


class UnsupportedOrbit(InputError):
    """Branch set is not a union of full group orbits."""


class PathologicalCase(InputError):
    """No library path raises this: two branches swapped by the action
    build through the general quotient.  Kept only for callers that still
    import it."""
