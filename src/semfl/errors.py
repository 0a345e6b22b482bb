"""Exception hierarchy shared across the pipeline."""


class SemflError(Exception):
    """Base class for all errors raised by this package."""


class MiniImpSyntaxError(SemflError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DuplicateFunction(SemflError):
    pass


class UndefinedNameAtParseScope(SemflError):
    pass


class NoTests(SemflError):
    pass


class NoFailingTests(SemflError):
    pass


class MalformedTrace(SemflError):
    pass


class ConflictingEvidence(SemflError):
    pass


class NoViableMutants(SemflError):
    pass
