"""Exception hierarchy shared across the library.

Two families matter to callers: configuration problems (bad input files,
inconsistent parameters) and numeric problems (a formula evaluated outside
its validity region, a series that failed to converge, an infeasible
scenario).  The CLI maps them to distinct exit codes.
"""


class InacError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(InacError):
    """Configuration file could not be parsed or violates an invariant."""


class NumericError(InacError):
    """Base class for numeric-domain failures."""


class RegionError(NumericError):
    """A series or approximation was requested outside its validity region."""


class ConvergenceError(NumericError):
    """A truncated series did not reach the requested tolerance."""


class InfeasibleError(NumericError):
    """The requested scenario admits no solution (SIC split, zero coverage)."""


class DegenerateGeometryError(NumericError):
    """Anchor geometry is degenerate: a point on an anchor or a (near) singular design matrix."""
