"""The fixed order cap of every constructor and the node budget of every search.

check_order holds a magma order, or a morphism, object or pair count, to
MAX_ORDER, which no argument raises.  A Budget caps search nodes only: every
public function that spends them declares ``budget: Budget = DEFAULT_BUDGET``,
a frozen and so safely shared default.  A search out of nodes raises
SizeOverflowError; ``counting`` reports an exhausted oracle as a null
``brute_force_value``.  max_nodes is a plain int >= 0 (``check_count``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeOverflowError, check_count

MAX_ORDER = 64


@dataclass(frozen=True)
class Budget:
    """A cap that turns a runaway search into a SizeOverflowError instead of a hang.

    max_nodes: search nodes a single enumeration or canonical form may visit.
    """

    max_nodes: int = 10_000_000

    def __post_init__(self):
        check_count(self.max_nodes, "max_nodes", least=0)


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


def check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise SizeOverflowError(f"order {order} exceeds the cap of {MAX_ORDER}")
