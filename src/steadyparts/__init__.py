"""Exact bipartite partition counts with steadily decreasing parts,
crank tables, cubic partitions, and their uniform asymptotics.

Importing the package compiles none of its modules.  Each one is put in
sys.modules and on the package at once, through importlib.util.LazyLoader,
and is compiled and run on its first attribute access, so that a command
loads only the modules it calls.  The public names below resolve through
__getattr__ to the module that defines them.

The deferred load takes no lock on Python 3.10, 3.11 and 3.12.1 (it does
from 3.13): a multi-threaded caller should touch each module it uses, for
example by importing a name from it, before it starts threads.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("C", "KAPPA", "asym_D", "asym_M", "asym_c", "asym_p", "asym_pi", "f_saddle"), "asymptotics"),
    **dict.fromkeys((
        "alpha_row", "d_value", "d_value_by_crank", "enumerate_steady", "gf_table", "is_steady",
        "pi_value", "pi_value_by_alpha", "steady_partitions",
    ), "bipartite"),
    **dict.fromkeys((
        "build_crank_table", "build_crank_table_lambert", "crank_column", "crank_counts_by_enumeration",
        "crank_of", "crank_value_direct", "partitions_of",
    ), "crank"),
    **dict.fromkeys(("ratio_string", "sci_from_int", "sci_from_log"), "formatting"),
    **dict.fromkeys((
        "build_c_table", "build_g_table", "build_p_table", "c_values_via_inversion", "g_values_via_chain",
    ), "partitions"),
    **dict.fromkeys((
        "CoefficientTable", "divide_by_euler", "divide_by_phi", "euler_product", "invert", "mul",
        "theta_coefficient",
    ), "series"),
}
__all__ = sorted(_EXPORTS)


def _register(name: str):
    """The stdlib recipe for a lazy import, with the module also bound on
    the package, where `from . import name` finds it without loading it."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


# the modules that define a public name, and the two that hold command
# bodies; steadyparts.cli stays out: `python -m steadyparts.cli` runs it as
# __main__
for _name in sorted({*_EXPORTS.values(), "oracles", "reports"}):
    _register(_name)
del _name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
