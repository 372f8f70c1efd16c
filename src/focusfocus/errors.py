"""Exception hierarchy for the toolkit."""


class FocusFocusError(Exception):
    """Base class for all toolkit errors."""


class SystemRejected(FocusFocusError):
    """Linearization is not a (possibly degenerate) focus-focus quadruple."""


class NoTorusError(FocusFocusError):
    """The requested (h, l) value carries no regular torus."""


class TurningPointDegeneracy(NoTorusError):
    """Near-double turning point: too close to an elliptic boundary."""


class WindowError(FocusFocusError):
    """(h, l) outside the declared regular window (|j| floor or cap)."""


class FlowError(FocusFocusError):
    """ODE integration failed (step underflow, budget exceeded, ...)."""


class QuadratureError(FocusFocusError):
    """Adaptive quadrature did not converge to the requested tolerance."""


class BracketError(FocusFocusError):
    """Root bracket invalid (no sign change)."""


class BranchError(FocusFocusError):
    """Branch tracking failed (step too large between samples)."""


class CrossEngineMismatch(FocusFocusError):
    """Quadrature and flow engines disagree beyond cross_tol."""


class FitError(FocusFocusError):
    """Least-squares fit rejected (ill-conditioned or insufficient data)."""


class ScanError(FocusFocusError):
    """Sign scan found no root or more than one root in the window."""
