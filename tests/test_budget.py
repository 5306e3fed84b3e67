import inspect

import pytest

from gradeforge import algebra, category, counting, io, magma
from gradeforge.budget import DEFAULT_BUDGET, Budget, NodeCounter
from gradeforge.errors import SizeOverflowError, ValidationError


def test_every_public_budget_parameter_defaults_to_the_default_budget():
    budgeted = {
        f"{module.__name__}.{name}": inspect.signature(value).parameters["budget"]
        for module in (magma, category, algebra, counting, io)
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
        and "budget" in inspect.signature(value).parameters
    }
    assert len(budgeted) > 30  # the scan sees the package, not an empty namespace
    assert [name for name, param in budgeted.items() if param.default is not DEFAULT_BUDGET] == []


@pytest.mark.parametrize(
    "fields",
    [{"max_order": "64"}, {"max_nodes": None}, {"max_order": 64.0}, {"max_nodes": True}, {"max_order": -1}],
    ids=["order-str", "nodes-none", "order-float", "nodes-bool", "order-negative"],
)
def test_caps_are_plain_ints_of_at_least_zero(fields):
    # Accepted before, each of these raised a bare TypeError at the first check_order or spend, or capped nothing.
    with pytest.raises(ValidationError):
        Budget(**fields)


def test_zero_caps_stay_valid():
    # The CLI's count surjections runs its oracle at Budget(max_nodes=0), which skips it.
    assert Budget(max_order=0, max_nodes=0) == Budget(0, 0)
    with pytest.raises(SizeOverflowError):
        NodeCounter(Budget(max_nodes=0)).spend()
