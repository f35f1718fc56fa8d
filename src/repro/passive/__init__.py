"""Passive production traces: DITL-style Root and .nl ccTLD synthesis."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "ditl": "MISSING_LETTERS OBSERVED_LETTERS ROOT_LETTERS ROOT_MIX "
    "generate_ditl_trace root_server_set",
    "generator": "GeneratorConfig MAX_RECURSIVES PassiveTraceGenerator ServerSet "
    "recursive_address",
    "nl": "NL_OBSERVED generate_nl_trace nl_server_set",
    "trace": "Trace TraceRecord load_trace save_trace",
})
