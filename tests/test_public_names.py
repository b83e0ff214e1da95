"""Every public operation of the package has one name.

In ``qha`` and in every ``qha.*`` module, no function or class may be bound
under two public names: a second spelling of an operation is a second way
to reach one body, and callers should read the one name.
"""

import importlib
import pkgutil

import qha


def test_no_callable_has_two_public_names():
    namespaces = [qha] + [importlib.import_module("qha." + m.name)
                          for m in pkgutil.iter_modules(qha.__path__)]
    assert {"qha.linalg", "qha.quasihopf", "qha.algebroid", "qha.coefficients",
            "qha.center", "qha.cyclic", "qha.cli"} <= {ns.__name__ for ns in namespaces}
    doubles = []
    for ns in namespaces:
        names = {}
        for name, value in vars(ns).items():
            if not name.startswith("_") and callable(value):
                names.setdefault(id(value), []).append(name)
        doubles += ["%s: %s" % (ns.__name__, ", ".join(sorted(group)))
                    for group in names.values() if len(group) > 1]
    assert doubles == []
