"""Resource caps and the refusal error raised when a computation would exceed them."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Caps", "DEFAULT_CAPS", "CapExceeded"]


@dataclass(frozen=True)
class Caps:
    """Hard budgets for dense work; exceeding any of them raises CapExceeded up front."""

    dense_pmf_entries: int = 1 << 24
    tuple_products: int = 100_000_000
    code_enumeration: int = 1_000_000

    def admit(self, what: str, cost: int, field: str) -> int:
        """cost, if it fits the cap named by field; else CapExceeded for what."""
        cap = getattr(self, field)
        if cost > cap:
            raise CapExceeded(what, cost, cap)
        return cost


DEFAULT_CAPS = Caps()


class CapExceeded(RuntimeError):
    """A computation was refused because its estimated cost exceeds a cap; a
    cost too large to form is given as a formula such as "2^16384", and one
    too long to print by its magnitude, such as "at least 2^200016"."""

    def __init__(self, what: str, cost: int | str, cap: int):
        try:
            shown = str(cost)
        except ValueError:  # past the interpreter's limit on digits an int prints
            shown = f"at least 2^{cost.bit_length() - 1}"
        super().__init__(f"{what}: estimated cost {shown} exceeds cap {cap}")
        self.what = what
        self.cost = cost
        self.cap = cap
