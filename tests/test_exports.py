"""The package's public names are declared once, in each module's __all__."""

import importlib
import pkgutil
import re
from pathlib import Path

import polytnn

# every library module: cli and __main__ are the command, which polytnn does not re-export
MODULES = sorted({m.name for m in pkgutil.iter_modules(polytnn.__path__)} - {"cli", "__main__"})
README = Path(__file__).resolve().parent.parent / "README.md"


def _owners():
    owners = {}
    for short in MODULES:
        module = importlib.import_module(f"polytnn.{short}")
        for name in module.__all__:
            assert name not in owners, f"{name} is in both {owners[name]}.__all__ and {short}.__all__"
            owners[name] = short
    return owners


def test_package_exports_the_union_of_the_module_lists():
    owners = _owners()
    assert polytnn.__all__ == sorted(owners)
    for name, short in owners.items():
        assert getattr(polytnn, name) is getattr(importlib.import_module(f"polytnn.{short}"), name), name


def test_readme_module_table_follows_each_modules_list():
    owners = _owners()
    rows = dict(re.findall(r"^\| `polytnn\.(\w+)` \| (.*) \|$", README.read_text(), re.M))
    for short in MODULES:
        listed = set(re.findall(r"`(\w+)", rows[short]))
        mine = {name for name, owner in owners.items() if owner == short}
        assert mine <= listed, (short, sorted(mine - listed))
        assert not {name for name in listed & owners.keys() if owners[name] != short}, short


def test_names_read_from_outside_stay_bound():
    # bench/tracing.py counts polyvec's binomial calls by patching polyvec.binomial, and the
    # lgv-certify workload reads lgv.path_weight_closed_form; neither module calls its name,
    # so only this test stops a tidy-up from deleting the import and failing every pass
    from polytnn import exactnum, lgv, polyvec, transfer

    assert polyvec.binomial is exactnum.binomial
    assert lgv.path_weight_closed_form is transfer.path_weight_closed_form
