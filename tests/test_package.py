"""The package re-exports every public name of its library modules."""

import i3metrics
from i3metrics import catalog, core, dynamics, generate, ledger, ranking

MODULES = (catalog, core, dynamics, generate, ledger, ranking)


def test_every_module_name_is_re_exported():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names)), "two modules export the same name"
    assert sorted(i3metrics.__all__) == sorted(
        names + ["InputError", "ResolutionError", "__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(i3metrics, name) is getattr(module, name)
    for name in i3metrics.__all__:
        assert hasattr(i3metrics, name)
