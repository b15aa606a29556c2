"""Exception types shared across the package.

The CLI maps these onto its exit codes: QueryError -> 1,
ParameterError -> 2, LiftInconsistentError -> 3, ArtifactMismatchError
-> 4.  Bad input is one type: KeyParseError is a ParameterError that
also names the byte offset of the fault, so the CLI and the server catch
ParameterError alone.
"""


class ParameterError(ValueError):
    """Invalid or incompatible user-supplied parameters / inputs."""


class QueryError(RuntimeError):
    """A server answered with an error or the replies were inconsistent."""


class LiftInconsistentError(RuntimeError):
    """A freshly built scheme failed its multiplicity-2 certificate.

    The closed-form lift of a multiplicity-1 set satisfies every row, so
    this always signals a parameter or implementation bug and must abort
    loudly rather than be worked around.
    """


class ArtifactMismatchError(RuntimeError):
    """Persisted artifacts disagree (e.g. key digest vs. params file)."""


class FamilyViolationError(RuntimeError):
    """A dot product landed outside the allowed canonical set."""


class KeyParseError(ParameterError):
    """Malformed serialized key; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset
