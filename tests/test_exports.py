import inspect

import duploss
from duploss import bench, classes, errors, permutation, scenarios, steps, vp


def test_package_reexports_exactly_the_module_exports():
    exported = {
        name for name, obj in vars(duploss).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    error_types = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.DupLossError)
    }
    modules = (permutation, steps, scenarios, classes, vp, bench)
    assert exported == error_types.union(*(m.__all__ for m in modules))
