"""The package's export contract: its public names, and that it imports them on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import discodep

SRC = Path(__file__).parent.parent / "src"

# discodep.__all__: the names the commands and the documented library paths use
EXPORTS = [
    "ColumnMap",
    "CorrelationResult",
    "DependencyArc",
    "DependencyGraph",
    "Diagnostic",
    "Document",
    "GraphFlavor",
    "MetricsRecord",
    "Nuclearity",
    "PdtbRelation",
    "RelationKind",
    "RstChild",
    "RstInternal",
    "RstLeaf",
    "RstTree",
    "SenseTag",
    "Span",
    "convert_pdtb",
    "edu_inventory_of",
    "hirao_convert",
    "li_convert",
    "mdd_local",
    "mdd_rooted",
    "metrics_record",
    "parse_dis",
    "parse_dis_file",
    "parse_relation_file",
    "parse_relation_line",
    "pearson",
    "pretty_print",
    "read_dep",
    "read_metrics",
    "read_segmentation",
    "resolve_span_set",
    "sd_distances",
    "sense_symmetry",
    "validate_graph",
    "write_correlation",
    "write_dep",
    "write_metrics",
]

MODULES = ["align", "formats", "metrics", "model", "pdtb", "pdtb2dep", "rst", "rst2dep"]

# library code only tests called; the reference copies live in tests/seed_*.py
REMOVED = ["binarize", "corpus_mean", "head_of_constituent", "map_span_set", "tree_heads"]


def test_all_is_unchanged():
    assert discodep.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_object_of_its_defining_module(name):
    value = getattr(discodep, name)
    module = value.__module__
    assert module.removeprefix("discodep.") in MODULES
    assert value is getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("module", MODULES)
def test_module_name_is_the_submodule(module):
    assert getattr(discodep, module) is importlib.import_module(f"discodep.{module}")


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from discodep import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTS


def test_dir_lists_exports_and_modules():
    assert set(EXPORTS) | set(MODULES) <= set(dir(discodep))


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'discodep' has no attribute '{name}'"):
        getattr(discodep, name)


def test_convert_pdtb_takes_no_flip_directions(wsj_document, wsj_relations):
    with pytest.raises(TypeError, match="flip_directions"):
        discodep.convert_pdtb(wsj_document, wsj_relations, flip_directions=True)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'discodep' has no attribute 'nope'"):
        discodep.nope


def test_import_loads_no_submodule_until_a_name_is_read():
    code = (
        "import sys, discodep\n"
        "print(sorted(m for m in sys.modules if m.startswith('discodep.')))\n"
        "discodep.convert_pdtb\n"
        "print('discodep.pdtb2dep' in sys.modules)\n"
        "print(discodep.rst2dep.__name__)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert result.stdout == "[]\nTrue\ndiscodep.rst2dep\n"
