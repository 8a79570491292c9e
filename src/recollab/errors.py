"""Exception taxonomy shared by every layer of the engine."""


class RecollabError(Exception):
    """Base class for all engine errors."""


class FieldMismatch(RecollabError):
    """Operands carry different field tags."""


class DimensionMismatch(RecollabError):
    """Matrix or vector shapes are incompatible."""


class AlgebraMismatch(RecollabError):
    """Modules belong to structurally different algebras."""


class NotFiniteDimensional(RecollabError):
    """Quiver closure did not terminate below the degree bound."""


class InvalidRelation(RecollabError):
    """A quiver relation has a term of path length < 2."""


class UnsupportedField(RecollabError):
    """Radical / simples unavailable for this field without a quiver presentation."""


class NotSplitBasic(RecollabError):
    """A/rad is not a product of copies of the ground field."""


class QuotientIsZero(RecollabError):
    """AeA = A but a unital quotient algebra was required downstream."""


class InputNotExact(RecollabError):
    """A short exact sequence failed its exactness precondition."""


class NotInHomSpace(RecollabError):
    """A matrix that should be a module map lies outside the hom space."""


class DepthMismatch(RecollabError):
    """Resolutions passed to a comparison lift have incompatible depths."""


class DepthInsufficient(RecollabError):
    """Stored resolution is shorter than the requested degree."""


class BudgetExceeded(RecollabError):
    """A truncated bar computation would exceed the configured size budget."""


class Inconclusive(RecollabError):
    """A decision procedure hit its deterministic search cap without a verdict."""


class NotStratifying(RecollabError):
    """The idempotent ideal failed a stratifying condition; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotPerfect(RecollabError):
    """Operation requires a recollement whose perfectness is Verified."""


class TransferFailed(RecollabError):
    """A theorem-predicted transfer failed re-certification; carries the certificate."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NotDegreewiseProjective(RecollabError):
    """Duality applies only to bounded complexes of f.g. projectives."""


class CertificationFailed(RecollabError):
    """An instance check that a theorem guarantees has failed (build-stopping)."""
