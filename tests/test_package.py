import types

import weaksup


def test_every_public_name_resolves_and_is_listed_once():
    names = weaksup.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(weaksup, name) for name in names)
    # and every name the package binds, other than its submodules, is listed
    bound = {name for name, value in vars(weaksup).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(names)
