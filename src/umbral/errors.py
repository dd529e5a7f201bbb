"""Exception hierarchy for the umbral engine."""


class UmbralError(Exception):
    """Base class for all engine errors."""


class OrderMismatch(UmbralError):
    """Binary series operation on operands of different truncation orders."""


class OrderExceeded(UmbralError):
    """A moment or coefficient beyond the truncation order was requested."""


class DomainError(UmbralError):
    """Series has the wrong constant term for the requested operation."""


class NegativePowerOfDeltaSeries(UmbralError):
    """Negative integer power of a series whose constant term is not 1."""


class NotInvertible(UmbralError):
    """Series reversion needs a nonzero rational linear coefficient."""


class TooLarge(UmbralError):
    """Set-partition enumeration requested beyond the supported cap."""


class BadZerothMoment(UmbralError):
    """Umbra definition whose zeroth moment is not 1."""


class UndeclaredIndeterminate(UmbralError):
    """An indeterminate was used that the workspace does not declare."""


class ZeroMomentReciprocal(UmbralError):
    """Negative point power of an umbra with a non-invertible moment."""


class NonUnitLinearMoment(UmbralError):
    """Operation requiring an invertible first moment got a_1 = 0 (or a
    non-constant a_1 with no reciprocal in the coefficient ring)."""


class CoherenceError(UmbralError):
    """Internal consistency failure: an atom's stored moments disagree with
    its stored generating function.  ``moment`` is the k-th stored moment,
    ``gf_moment`` is k! times the t^k coefficient of the generating
    function, and ``order`` is the workspace truncation order."""

    def __init__(self, atom, k, moment, gf_moment, order):
        super().__init__(
            f"atom {atom!r}: moment {k} = {moment} but k![t^k]gf = {gf_moment}")
        self.atom, self.k, self.order = atom, k, order
        self.moment, self.gf_moment = moment, gf_moment

    def to_json(self) -> dict:
        """The failure witness: a statement and every field as a string."""
        fields = ("atom", "k", "moment", "gf_moment", "order")
        return {"statement": "an atom's moments disagree with its generating function",
                **{f: str(getattr(self, f)) for f in fields}}


class UnknownIdentity(UmbralError):
    """Identity id not present in the catalog."""


class UnknownAtom(UmbralError):
    """Expression references a name not registered in the workspace."""


class InvalidDistribution(UmbralError):
    """Discrete distribution with non-positive weights or mass != 1."""


class UsageError(UmbralError):
    """Command-line arguments that the CLI parser rejects."""


class ParseError(UmbralError):
    """Surface-syntax error; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
