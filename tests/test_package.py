from types import ModuleType

import sinkhornlab


def test_all_names_every_public_object_and_no_submodule():
    public = {
        name
        for name, value in vars(sinkhornlab).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(sinkhornlab.__all__) == len(set(sinkhornlab.__all__))
    assert set(sinkhornlab.__all__) == public
