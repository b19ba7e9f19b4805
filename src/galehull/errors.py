"""Exception hierarchy.

Every error carries a short machine-readable ``code`` used in CLI reports,
and an ``exit_code`` grouping: 2 for bad input, 3 for internal cross-check
failures (a bug indicator, never a tolerated outcome), 4 for resource caps.
"""

from __future__ import annotations


class GalehullError(Exception):
    code = "Error"
    exit_code = 2

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class InputError(GalehullError):
    """Invalid or rejected input."""

    exit_code = 2


class InternalCheckError(GalehullError):
    """Two independent routes disagreed, or a proved identity failed."""

    exit_code = 3


class ResourceLimitError(GalehullError):
    """Desk-scale size cap exceeded."""

    exit_code = 4


# --- input validation ---------------------------------------------------

class NotCubic(InputError):
    code = "NotCubic"


class BadEdge(InputError):
    code = "BadEdge"


class EulerViolation(InputError):
    code = "EulerViolation"


class Disconnected(InputError):
    code = "Disconnected"


class DegenerateFace(InputError):
    code = "DegenerateFace"


class BadInput(InputError):
    code = "BadInput"


class NotThreeColorable(InputError):
    code = "NotThreeColorable"


class UnknownName(InputError):
    code = "UnknownName"


class OddPrism(InputError):
    code = "OddPrism"


class BadParameters(InputError):
    code = "BadParameters"


class DimensionMismatch(InputError):
    code = "DimensionMismatch"


class DegenerateInput(InputError):
    code = "DegenerateInput"


# --- internal cross-checks (exit 3: these signal bugs) -------------------

class TheoremViolation(InternalCheckError):
    code = "TheoremViolation"


class DiagramMismatch(InternalCheckError):
    code = "DiagramMismatch"


class CriterionMismatch(InternalCheckError):
    code = "CriterionMismatch"


class StructureMismatch(InternalCheckError):
    code = "StructureMismatch"


# --- resource caps --------------------------------------------------------

class TooManyPoints(ResourceLimitError):
    code = "TooManyPoints"


class TooLarge(ResourceLimitError):
    code = "TooLarge"
