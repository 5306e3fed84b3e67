"""Size and search-frontier budgets enforced by constructors and search kernels.

Every public function that takes a budget declares ``budget: Budget =
DEFAULT_BUDGET``; ``Budget`` is frozen, so the shared default is safe.  A
constructor or kernel that runs out raises SizeOverflowError, except the
brute-force oracles of ``counting``, which report an exhausted oracle as a
null ``brute_force_value`` next to the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeOverflowError


@dataclass(frozen=True)
class Budget:
    """Caps that turn runaway inputs into a SizeOverflowError instead of a hang.

    max_order: largest magma / morphism count a constructor will produce.
    max_nodes: search nodes a single enumeration or canonical form may visit.
    """

    max_order: int = 64
    max_nodes: int = 10_000_000


DEFAULT_BUDGET = Budget()


class NodeCounter:
    """Mutable node counter for one enumeration run."""

    __slots__ = ("remaining",)

    def __init__(self, budget: Budget):
        self.remaining = budget.max_nodes

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise SizeOverflowError("search budget exhausted")


def check_order(order: int, budget: Budget) -> None:
    if order > budget.max_order:
        raise SizeOverflowError(f"order {order} exceeds the cap of {budget.max_order}")
