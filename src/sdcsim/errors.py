"""Protocol error hierarchy.

Every guard violation raises a subclass of SdcError. A raised error means
the operation performed no state change at all: callers may treat any
SdcError as "rejected, nothing happened".
"""

from __future__ import annotations


class SdcError(Exception):
    """Base class for all protocol-level rejections."""


# --- ledger ---

class UnknownAccount(SdcError):
    pass


class NotIssuer(SdcError):
    pass


class InsufficientBalance(SdcError):
    pass


class InsufficientAllowance(SdcError):
    pass


class InsufficientSegregated(SdcError):
    pass


# --- journal ---

class CorruptJournal(SdcError):
    pass


# --- valuation ---

class PastMaturity(SdcError):
    pass


class TimestampMismatch(SdcError):
    pass


class MissingSnapshot(SdcError):
    pass


class ValuationOutOfRange(SdcError):
    """The pricer leaves the float range: an overflow or a non-finite value."""


class EmptySamples(SdcError):
    pass


class UnknownPricer(SdcError):
    pass


# --- contract lifecycle ---

class PreconditionFailed(SdcError):
    """Contract initialization refused; `party` names the deficient account."""

    def __init__(self, party: str, message: str):
        super().__init__(message)
        self.party = party


class AccountsNotOpen(SdcError):
    pass


class NotAParty(SdcError):
    pass


class WrongState(SdcError):
    pass


class TooEarly(SdcError):
    pass


# --- scenario files ---

class ScenarioParseError(SdcError):
    def __init__(self, reason: str, line: int | None = None):
        loc = f"line {line}: " if line is not None else ""
        super().__init__(f"{loc}{reason}")
        self.line = line
        self.reason = reason


class ScenarioValidationError(SdcError):
    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
