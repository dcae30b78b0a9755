"""discodep: discourse annotations to dependency graphs, plus distance metrics.

PDTB 3.0 relation files convert into local dependency forests; RST-DT
constituency trees convert into rooted dependency trees. Both feed the
same dependency-distance statistics (MDD, SD, Pearson correlation).

``import discodep`` loads no submodule: each public name is imported
from the module that defines it on first use (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "align": ("read_segmentation", "resolve_span_set"),
    "formats": ("read_dep", "read_metrics", "write_correlation", "write_dep", "write_metrics"),
    "metrics": (
        "CorrelationResult", "MetricsRecord", "mdd_local", "mdd_rooted",
        "metrics_record", "pearson", "sd_distances",
    ),
    "model": (
        "DependencyArc", "DependencyGraph", "Diagnostic", "Document", "GraphFlavor",
        "Nuclearity", "PdtbRelation", "RelationKind", "RstChild", "RstInternal", "RstLeaf",
        "RstTree", "SenseTag", "Span", "validate_graph",
    ),
    "pdtb": ("ColumnMap", "parse_relation_file", "parse_relation_line"),
    "pdtb2dep": ("convert_pdtb", "sense_symmetry"),
    "rst": ("edu_inventory_of", "parse_dis", "parse_dis_file", "pretty_print"),
    "rst2dep": ("hirao_convert", "li_convert"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
