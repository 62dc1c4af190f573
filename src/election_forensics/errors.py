"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``code`` so the CLI can emit
structured ``ERROR <code>: <message>`` lines and map failures to exit codes.
"""

from __future__ import annotations


class ForensicsError(Exception):
    """Base class for all library errors."""

    code = "GENERIC"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class MalformedRow(ForensicsError):
    code = "MALFORMED_ROW"

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvariantViolation(ForensicsError):
    code = "INVARIANT_VIOLATION"

    def __init__(self, precinct_id: str, rule: str):
        super().__init__(f"precinct {precinct_id!r}: {rule}")
        self.precinct_id = precinct_id
        self.rule = rule


class UnknownLeader(ForensicsError):
    code = "UNKNOWN_LEADER"


class UnknownParty(ForensicsError):
    code = "UNKNOWN_PARTY"


class DegenerateX(ForensicsError):
    code = "DEGENERATE_X"


class BadBinWidth(ForensicsError):
    code = "BAD_BIN_WIDTH"


class EmptyReferenceWindow(ForensicsError):
    code = "EMPTY_REFERENCE_WINDOW"


class RosterMismatch(ForensicsError):
    code = "ROSTER_MISMATCH"


class UnitMismatch(ForensicsError):
    code = "UNIT_MISMATCH"


class PairMismatch(ForensicsError):
    code = "PAIR_MISMATCH"


class EmptySeries(ForensicsError):
    code = "EMPTY_SERIES"


class EmptySelection(ForensicsError):
    code = "EMPTY_SELECTION"


class InvalidModel(ForensicsError):
    code = "INVALID_MODEL"


class NonPositiveInput(ForensicsError):
    code = "NON_POSITIVE_INPUT"


class BadCounts(ForensicsError):
    code = "BAD_COUNTS"


class EmptyPlot(ForensicsError):
    code = "EMPTY_PLOT"
