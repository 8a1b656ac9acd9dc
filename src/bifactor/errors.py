"""Exception types shared across the package."""


class BifactorError(Exception):
    """Base class for every error raised by this package.

    ``report`` is None, or the certificate, stuck report or star witness
    behind the error.
    """

    def __init__(self, *args, report=None):
        super().__init__(*args)
        self.report = report


class GraphFormatError(BifactorError):
    """A graph or factor file violates the text format.

    ``line`` is the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MalformedHeaderError(GraphFormatError):
    pass


class IndexOutOfRangeError(GraphFormatError):
    pass


class DuplicateEdgeError(GraphFormatError):
    pass


class MatchingNotDisjointError(BifactorError):
    pass


class EmptyGraphError(BifactorError):
    pass


class DemandImbalanceError(BifactorError):
    pass


class FakeCertificateError(BifactorError):
    """A violator certificate failed its from-scratch audit."""


class NotRegularError(BifactorError):
    pass


class NotConnectedError(BifactorError):
    pass


class NotBipartiteError(BifactorError):
    pass


class ParamOrderError(BifactorError):
    """Threshold parameters outside their admissible range: 2 <= k <= l
    for threshold_c, and k, l, m >= 1 for threshold_c_prime."""


class ParamInvalidError(BifactorError):
    pass


class RetryExhaustedError(BifactorError):
    pass


class BudgetExceededError(BifactorError):
    pass


class HypothesisViolatedError(BifactorError):
    """An input fails one of a pipeline's stated preconditions.

    ``hypothesis`` names the failing precondition: one of ``connected``,
    ``balance``, ``min_degree``, ``skl_free``.
    """

    def __init__(self, hypothesis: str, detail: str = "", report=None):
        self.hypothesis = hypothesis
        msg = f"hypothesis violated: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg, report=report)


class TheoremContradictionError(BifactorError):
    """A pipeline reached a state its own guarantees rule out.

    Carries the diagnostic report (a StuckReport or certificate) so callers
    can inspect what happened.  Test suites treat this as a hard failure.
    """


class StructureUnrecognizedError(BifactorError):
    """No alternating-cycle exchange merges a stuck factor's components."""
