"""The one error base every mvkit module's error class derives from."""

from __future__ import annotations


class MvkitError(ValueError):
    """Failure with a stable machine-checkable ``category``.

    Each module raises its own one-line subclass, so ``except`` clauses
    and ``pytest.raises`` stay as strict as the module they name.
    """

    def __init__(self, category: str, message: str) -> None:
        super().__init__(f"{category}: {message}")
        self.category = category
        self.message = message
