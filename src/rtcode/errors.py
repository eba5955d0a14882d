"""Shared exception types for the solver stack."""


class SpecValidationError(ValueError):
    """A problem component violates one of its invariants.

    Carries the full list of violation messages so callers can report
    every problem at once instead of the first one found.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems) or "invalid problem data")


class CapacityError(RuntimeError):
    """An enumerated state or action space exceeds the configured limit."""

    def __init__(self, what, count, limit, hint=None):
        self.what = what
        self.count = count
        self.limit = limit
        # a count past 64 bits is worded by its bit length: str() refuses
        # integers of more than 4300 digits, and such counts are reachable
        # from a command line (a lookahead of 20000 symbols)
        bits = int(count).bit_length()
        need = count if bits <= 64 else f"at least 2**{bits - 1}"
        msg = f"{what} needs {need} entries, over the limit of {limit}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


class UnreachableObservationError(ValueError):
    """Conditioning on an observation that has probability zero."""


class NonConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, span=None, gain_bracket=None):
        super().__init__(message)
        self.span = span
        self.gain_bracket = gain_bracket
