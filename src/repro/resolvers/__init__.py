"""Recursive resolver models: caches, selection algorithms, resolution."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "base": "ServerSelector",
    "bind": "BindSelector",
    "forwarder": "DnsForwarder ForwardPolicy",
    "infracache": "InfraEntry InfrastructureCache",
    "naive": "RandomSelector RoundRobinSelector StickySelector",
    "population": "DEFAULT_MIX INFRA_TTL_S SELECTOR_CLASSES PopulationSample "
    "ResolverPopulation",
    "powerdns": "PowerDnsSelector",
    "resolver": "ExchangeRecord RecursiveResolver ResolutionResult",
    "rrcache": "CacheEntry NegativeEntry RecordCache",
    "unbound": "UnboundSelector",
    "windows": "WindowsSelector",
})
