from __future__ import annotations

from pathlib import Path

import pytest

from discodep import convert_pdtb, parse_dis_file, parse_relation_file, read_segmentation

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def wsj_relations():
    relations, diagnostics = parse_relation_file(FIXTURES / "wsj_0618.pdtb")
    assert not diagnostics
    return relations


@pytest.fixture(scope="session")
def wsj_document():
    return read_segmentation(FIXTURES / "wsj_0618.seg")["wsj_0618"]


@pytest.fixture(scope="session")
def wsj_graph(wsj_document, wsj_relations):
    graph, _ = convert_pdtb(wsj_document, wsj_relations)
    return graph


@pytest.fixture(scope="session")
def fig1_tree():
    return parse_dis_file(FIXTURES / "fig1.dis")


@pytest.fixture(scope="session")
def deep_dis_text() -> str:
    """A right-branching tree 1,200 levels deep: each level is a Satellite
    leaf followed by a Nucleus subtree holding the rest."""
    n = 1200
    lines = ["( Root (span 1 1200)"]
    for i in range(1, n):
        lines.append(f"( Satellite (leaf {i}) (rel2par elaboration) (text _!unit {i}_!) )")
        if i < n - 1:
            lines.append(f"( Nucleus (span {i + 1} {n}) (rel2par span)")
    lines.append(f"( Nucleus (leaf {n}) (rel2par span) (text _!unit {n}_!) )")
    lines.append(")" * (n - 1))
    return "\n".join(lines) + "\n"
