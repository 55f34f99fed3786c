"""Exception types shared across modules."""

__all__ = ["BudgetExceededError", "CrossCheckError"]


class BudgetExceededError(ValueError):
    """An exhaustive search was asked to run beyond its documented budget.

    Raised before the search starts, or as soon as its counted work passes
    the budget, so callers get an explicit "infeasible" signal and never a
    silently wrong or absurdly slow answer.
    """


class CrossCheckError(RuntimeError):
    """Two independent computations of the same quantity disagreed.

    This marks states the underlying mathematics rules out. If it ever
    fires, there is a bug somewhere; surfacing it loudly is the point.
    """
