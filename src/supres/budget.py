"""The one memory budget of the toolkit.

Every allocation that grows with the input (the boundedness scan, the Gram
assembly, the dense limit matrix, the Lanczos section) estimates its peak
in bytes and passes it through check_budget before allocating anything.
Stdlib only, so that importing it pulls in no numerical package.
"""

CAP_BYTES = 1e9


class BudgetExceeded(ValueError):
    """An allocation would exceed the memory budget."""


def check_budget(need_bytes: float, what: str) -> None:
    """Raise BudgetExceeded when what needs more than CAP_BYTES."""
    if need_bytes > CAP_BYTES:
        raise BudgetExceeded(f"{what} needs {need_bytes / 1e9:.3g} GB, "
                             f"cap {CAP_BYTES / 1e9:g} GB")
