"""Exception types shared across the solver modules."""


class RicadiError(Exception):
    """Base class for all solver errors."""


class NotPositiveDefiniteError(RicadiError):
    """Cholesky breakdown; carries the index of the offending pivot."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class SylvesterSingularError(RicadiError):
    """Small Sylvester/Lyapunov operator is (near) singular."""


class SingularShiftError(RicadiError):
    """Shifted system matrix is structurally or numerically singular."""

    def __init__(self, message, shift=None):
        super().__init__(message)
        self.shift = shift


class SMWSingularError(RicadiError):
    """Capacitance matrix of the Sherman-Morrison-Woodbury solve is singular."""

    def __init__(self, message, shift=None):
        super().__init__(message)
        self.shift = shift


class ExpansionDegenerateError(RicadiError):
    """Absorbing an expansion block failed (near-deflation or repeated pole)."""


class ShiftsExhaustedError(RicadiError):
    """A precomputed shift list ran out before convergence."""


class ShiftStrategyError(RicadiError):
    """The adaptive shift strategy produced no admissible shift."""


class MatrixMarketError(RicadiError):
    """Malformed Matrix Market input."""
