"""Exception types shared across the toolkit."""


class HodgescreenError(Exception):
    """Base class for all errors raised by this package."""


class SpecValidationError(HodgescreenError):
    """A spec document failed schema validation or cross-field consistency.

    Carries a list of human-readable diagnostics, one per offending field.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class MathDomainError(HodgescreenError):
    """Input is schema-valid but mathematically malformed."""


class NormalizationError(MathDomainError):
    """diag(lambda) does not normalize the given algebra: some bracket
    [diag(lambda), b_j] falls outside the span of the basis."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"[diag(lambda), basis[{index}]] is not in the algebra")


class BracketClosureError(MathDomainError):
    """A claimed Lie algebra basis is not closed under the commutator."""

    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"[basis[{i}], basis[{j}]] is not in the span of the basis")


class NotAHodgeFiltration(MathDomainError):
    """A filtration fails to induce a bigrading with the declared Hodge
    numbers (wrong piece dimensions, or the pieces do not span)."""


class PrecisionExhausted(MathDomainError):
    """Interval refinement hit its budget before a sign could be decided."""


class DenominatorVanishes(MathDomainError):
    """A rational function was evaluated at a zero of its denominator."""


class IdentityViolation(MathDomainError):
    """An unconditional arithmetic identity failed; indicates a bug or
    corrupted input state, never a property of honest data."""
