"""repro — reproduction of "Recursives in the Wild: Engineering
Authoritative DNS Servers" (Müller, Moura, Schmidt, Heidemann; IMC 2017).

Subpackages
-----------
``repro.dns``
    From-scratch DNS substrate: wire format, zones, authoritative engine.
``repro.netsim``
    Simulated Internet: virtual time, geography→latency, unicast/anycast.
``repro.resolvers``
    Recursive resolver models: caches and real selection algorithms.
``repro.atlas``
    RIPE-Atlas-like vantage-point platform and measurement campaigns.
``repro.passive``
    DITL/ENTRADA-style production trace synthesis (Root, .nl).
``repro.core``
    The paper's experiments (Table 1 combinations) and the §7
    deployment planner.
``repro.analysis``
    One analysis per figure/table of the paper.
``repro.telemetry``
    Metrics registry, query-lifecycle tracing, and run profiling.

Importing a module never imports its siblings: ``import repro`` loads
no subpackage, and a package root loads the submodule behind one of its
public names when that name is first read (``repro.core.run_campaign``,
``from repro.dns import Message``).  So ``repro-dns serve`` loads the
DNS engine and not the simulator.
"""

import logging
import sys

__version__ = "1.0.0"

# Library etiquette: never log unless the application opts in.  The CLI
# attaches a real stderr handler via its --log-level flag.
logging.getLogger("repro").addHandler(logging.NullHandler())


def _lazy_exports(package: str, table: dict[str, str]):
    """PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` for a package
    root that re-exports its submodules' public names on first access.

    ``table`` maps each submodule (relative name) to the space-separated
    names it provides; a submodule that provides its own name is itself
    the value (how this root exposes its subpackages).

    A submodule loads through ``__import__``, which ``-X importtime``
    logs (``importlib.import_module`` is not logged there).
    """
    namespace = vars(sys.modules[package])
    source = {name: module for module, names in table.items() for name in names.split()}

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        qualified = f"{package}.{module}"
        __import__(qualified)
        loaded = sys.modules[qualified]
        value = loaded if name == module else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__, sorted(source)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    name: name
    for name in (
        "analysis", "atlas", "core", "dns", "netsim", "passive", "resolvers",
        "telemetry",
    )
})
__all__.append("__version__")
