"""Exact bipartite partition counts with steadily decreasing parts,
crank tables, cubic partitions, and their uniform asymptotics.

Importing the package compiles none of its modules.  Each one is put in
sys.modules and on the package at once, through importlib.util.LazyLoader,
and is compiled and run on its first attribute access, so that a command
loads only the modules it calls.  A function is reached through the module
that defines it, as ``steadyparts.bipartite.pi_value`` or ``from
steadyparts.bipartite import pi_value``.

The deferred load takes no lock on Python 3.10, 3.11 and 3.12.1 (it does
from 3.13): a multi-threaded caller should touch each module it uses, for
example by importing a name from it, before it starts threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# steadyparts.cli stays out: `python -m steadyparts.cli` runs it as __main__
__all__ = (
    "asymptotics", "bipartite", "crank", "formatting", "oracles", "partitions", "reports", "series", "usage",
)


def _register(name: str):
    """The stdlib recipe for a lazy import, with the module also bound on
    the package, where `from . import name` finds it without loading it."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


for _name in __all__:
    _register(_name)
del _name
