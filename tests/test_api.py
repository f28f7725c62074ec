"""The package's public surface: __all__ matches what the package exports."""

import types

import spherebound


def test_every_listed_name_resolves():
    missing = [name for name in spherebound.__all__ if not hasattr(spherebound, name)]
    assert missing == []


def test_no_duplicates():
    assert len(set(spherebound.__all__)) == len(spherebound.__all__)


def test_every_public_attribute_is_listed():
    public = {name for name, value in vars(spherebound).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(spherebound.__all__)) == []
