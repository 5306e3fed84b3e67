import inspect

from gradeforge import algebra, category, counting, io, magma
from gradeforge.budget import DEFAULT_BUDGET


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
