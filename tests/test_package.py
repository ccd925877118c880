import importlib
import pkgutil

import pytest

import synhash

# every module but __main__, which runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(synhash.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    # a name deleted from a module but left in its __all__ breaks `import *`
    module = importlib.import_module(f"synhash.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from synhash.{name} import *", {})
