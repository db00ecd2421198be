"""The exception raised on data-dependent failures of the fitting pipeline."""


class DegenerateDataError(RuntimeError):
    """The series is degenerate: singular normal equations, a zero scale
    estimate, or residuals that are rounding noise."""
