"""Exception types shared across the library, and `oracle`, the one place
where two routes to a verdict are compared."""


class LieOpError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(LieOpError):
    pass


class Singular(LieOpError):
    """Square matrix with nontrivial kernel where an inverse was required."""


class SkewViolation(LieOpError):
    def __init__(self, i, j, k):
        super().__init__(f"bracket tensor not skew at (i={i}, j={j}, k={k})")
        self.indices = (i, j, k)


class JacobiViolation(LieOpError):
    def __init__(self, i, j, k, defect):
        super().__init__(f"Jacobi identity fails on triple ({i}, {j}, {k}): defect {defect}")
        self.indices = (i, j, k)
        self.defect = defect


class RepViolation(LieOpError):
    def __init__(self, i, j, defect):
        super().__init__(f"action violates the bracket relation on pair ({i}, {j})")
        self.indices = (i, j)
        self.defect = defect


class NotSubalgebra(LieOpError):
    def __init__(self, witness=None, which=None):
        tag = f" ({which})" if which else ""
        super().__init__(f"subspace{tag} is not closed under the bracket; witness pair {witness}")
        self.witness = witness
        self.which = which


class NotIdeal(LieOpError):
    def __init__(self, witness=None):
        super().__init__(f"subspace is not an ideal; witness pair {witness}")
        self.witness = witness


class NotComplementary(LieOpError):
    pass


class NotOOperator(LieOpError):
    def __init__(self, residual=None):
        super().__init__("map fails the O-operator identity")
        self.residual = residual


class NotCocycle(LieOpError):
    def __init__(self, defect=None):
        super().__init__("map is not a 1-cocycle")
        self.defect = defect


class NotAdmissible(LieOpError):
    """id + B∘T is singular, so the gauge transform is undefined."""


class NotCompatible(LieOpError):
    def __init__(self, residual=None):
        super().__init__("O-operators are not compatible")
        self.residual = residual


class NotNijenhuis(LieOpError):
    def __init__(self, defect=None):
        super().__init__("map fails the Nijenhuis identity")
        self.defect = defect


class NotNijenhuisStructure(LieOpError):
    pass


class NotONStructure(LieOpError):
    def __init__(self, report=None):
        super().__init__("triple is not an ON-structure")
        self.report = report


class NotStrongMC(LieOpError):
    def __init__(self, defects=None):
        super().__init__("map is not a strong Maurer-Cartan solution")
        self.defects = defects


class NotPN(LieOpError):
    pass


class NotPreLie(LieOpError):
    def __init__(self, witness=None):
        super().__init__(f"product fails the left pre-Lie identity at {witness}")
        self.witness = witness


class NotStable(LieOpError):
    def __init__(self, witness=None):
        super().__init__(f"subspace is not stable under the action; witness {witness}")
        self.witness = witness


class ImageEscapesH(LieOpError):
    def __init__(self, witness=None):
        super().__init__(f"operator image leaves the chosen subalgebra; witness {witness}")
        self.witness = witness


class QuotientError(LieOpError):
    pass


class NotAntisymmetric(LieOpError):
    pass


class InvalidGCS(LieOpError):
    pass


class NotComplexStructure(LieOpError):
    pass


class NotComplexPair(LieOpError):
    pass


class OracleDisagreement(LieOpError):
    """Two independent implementations of the same predicate disagreed.

    This is always a bug in the library, never a property of the input.
    """

    def __init__(self, what, detail=None):
        super().__init__(f"oracle disagreement in {what}: {detail}")
        self.what = what
        self.detail = detail


def oracle(what, a, b, detail, **fields):
    """Return `a` when the two routes agree (a == b); otherwise raise
    OracleDisagreement(what, ...).  The detail template is formatted with a, b
    and `fields` only when it raises.  Every route comparison in the library
    goes through here."""
    if a == b:
        return a
    raise OracleDisagreement(what, detail.format(a=a, b=b, **fields))


def theorem(what, build, *args):
    """build(*args), a carrier a theorem makes valid from checked inputs: a refusal is a bug."""
    try:
        return build(*args)
    except (SkewViolation, JacobiViolation, RepViolation, NotOOperator, NotONStructure,
            NotPreLie, NotAntisymmetric, InvalidGCS) as exc:
        oracle(what, exc, None, "{a}")


class WorkspaceError(LieOpError):
    def __init__(self, message, defects=None):
        super().__init__(message)
        self.defects = defects or []
