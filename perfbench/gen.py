"""Seeded, stdlib-only corpus generator for the discodep benchmark.

Each workload's corpus is a pure function of (workload, seed): the same
seed always gives the same bytes. Documents are drawn independently from
a per-document ``random.Random`` keyed by workload, seed and doc_id.

EDU counts are stratified: the i-th document of N gets the
(i + 0.5) / N quantile of the workload's EDU distribution, and the seed
decides which doc_id receives which count. Every seed therefore sees the
same size multiset, so seeds differ in content and not in total work.

Where a share below comes from a published corpus count, the comment
cites it; every other share is marked as an assumption of this
generator, chosen so that the property it drives occurs often enough to
be timed and checked.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

# Document counts are scaled down from the real corpora (385 RST-DT trees,
# about 2,200 PDTB 3.0 documents) so that one timed round of a workload
# takes a few seconds; the per-document EDU distributions are kept.
WORKLOADS = {
    # RST-DT-like: skewed sizes, median near 50 EDUs, n-ary and
    # multinuclear nodes. The range and the median are the workload's
    # definition; the lognormal sigma of 0.75 is an assumption that
    # spreads the stratified counts over that range.
    "rst-corpus": {"docs": 56, "edus": ("lognormal", 10, 300, 50.0, 0.75)},
    # PDTB 3.0-like: a section of small relation files; the segmentation
    # file covers the whole 2,200-document corpus, as the real one does.
    "pdtb-corpus": {"docs": 160, "seg_docs": 2200, "edus": ("uniform", 10, 100)},
}

# The layers a workload's pipeline does not load are timed in the traced
# run on this many paired documents (one .dis tree and one relation file
# per doc_id) drawn from the same EDU distribution.
PROBE_DOCS = 16

RELATIONS_PER_EDU = 0.45  # about 25 relations at the PDTB mean of 55 EDUs (the workload's definition)

# Relation kinds in the published PDTB 2.0 token counts (Prasad et al.,
# "The Penn Discourse TreeBank 2.0", LREC 2008): Explicit 18,459,
# Implicit 16,053, EntRel 5,210, AltLex 624, NoRel 254 of 40,600. The
# PDTB 3.0 release adds mostly intra-sentential Implicit and AltLex
# tokens; its per-kind counts are not used here, so the mix is the
# PDTB 2.0 one.
KIND_WEIGHTS = (
    ("Explicit", 18459),
    ("Implicit", 16053),
    ("EntRel", 5210),
    ("AltLex", 624),
    ("NoRel", 254),
)

# Assumptions of this generator, not corpus counts: the share of
# arguments of 1, 2 and 3 EDUs, of discontinuous arguments, of arguments
# that start inside an EDU, of single-EDU arguments too short to align
# (fallbacks), of Explicit relations with Arg1 after Arg2, of Implicit
# rows in a link group, and of documents given one planted multi-head.
ARG_EDUS = ((1, 70), (2, 20), (3, 10))
DISCONTINUOUS_ARG = 0.12
PARTIAL_START_ARG = 0.2
FALLBACK_ARG = 0.03
EXPLICIT_ARG1_AFTER = 0.15
LINK_GROUP = 0.06
PLANTED_MULTI_HEAD = 0.3

SENSES = (
    "Contingency.Cause.Reason",
    "Contingency.Cause.Result",
    "Contingency.Condition.Arg2-as-cond",
    "Contingency.Purpose.Arg2-as-goal",
    "Comparison.Concession.Arg2-as-denier",
    "Comparison.Contrast",
    "Expansion.Conjunction",
    "Expansion.Level-of-detail.Arg2-as-detail",
    "Expansion.Instantiation.Arg2-as-instance",
    "Expansion.Manner.Arg1-as-manner",
    "Temporal.Asynchronous.Precedence",
    "Temporal.Synchronous",
)

CONNECTIVES = ("because", "so", "if", "but", "and", "when", "then", "for example", "while")

SATELLITE_RELATIONS = (
    "elaboration-additional",
    "attribution",
    "background",
    "circumstance",
    "explanation-argumentative",
    "contrast",
    "consequence-s",
    "purpose",
    "condition",
    "evidence",
)
MULTINUCLEAR_RELATIONS = ("List", "Sequence", "Same-Unit", "Contrast", "Joint")

WORDS = (
    "the market company shares board said year rose fell analysts investors "
    "plan quarter profit sales percent million new trading stock price bank "
    "could would after since because while which that expected earlier"
).split()

N_FIELDS = 34  # width of a PDTB 3.0 gold relation line
FIELD = {"kind": 0, "conn_span": 1, "conn1": 7, "sense1": 8, "arg1": 14, "arg2": 20, "link": 32}


@dataclass
class Doc:
    doc_id: str
    n_edus: int
    spans: list[tuple[int, int]]  # half-open character spans of EDUs 1..n
    has_rst: bool = False
    has_pdtb: bool = False
    props: dict[str, int] = field(default_factory=dict)


def edu_counts(spec: tuple, n_docs: int) -> list[int]:
    """Stratified EDU counts: the (i + 0.5) / n quantiles of the distribution."""
    kind, lo, hi = spec[0], spec[1], spec[2]
    counts = []
    for i in range(n_docs):
        p = (i + 0.5) / n_docs
        if kind == "uniform":
            value = lo + int(p * (hi - lo + 1))
        else:
            median, sigma = spec[3], spec[4]
            z = statistics.NormalDist().inv_cdf(p)
            value = round(math.exp(math.log(median) + sigma * z))
        counts.append(max(lo, min(hi, value)))
    return counts


def _edu_spans(rng: random.Random, n: int) -> list[tuple[int, int]]:
    spans = []
    pos = rng.randint(0, 40)
    for _ in range(n):
        length = rng.randint(25, 140)
        spans.append((pos, pos + length))
        pos += length + rng.choice((1, 1, 1, 2, 3))
    return spans


def _weighted(rng: random.Random, pairs):
    """A value drawn from (value, weight) pairs."""
    total = sum(w for _, w in pairs)
    x = rng.uniform(0, total)
    for value, weight in pairs:
        x -= weight
        if x <= 0:
            return value
    return pairs[-1][0]


# ---------------------------------------------------------------- PDTB


def _span_text(spans: list[tuple[int, int]]) -> str:
    """PDTB notation: inclusive a..b ranges joined by ';'."""
    return ";".join(f"{a}..{b - 1}" for a, b in spans)


def _arg_spans(rng: random.Random, doc: Doc, first: int, last: int, props: dict) -> list[tuple[int, int]]:
    """Character spans covering EDUs first..last (1-based), sometimes in two pieces."""
    start, end = doc.spans[first - 1][0], doc.spans[last - 1][1]
    if last > first and rng.random() < DISCONTINUOUS_ARG:
        # discontinuous argument split at an EDU boundary (same EDU set)
        cut = rng.randint(first, last - 1)
        props["multi_span_args"] += 1
        return [(start, doc.spans[cut - 1][1]), (doc.spans[cut][0], end)]
    if rng.random() < PARTIAL_START_ARG:
        # argument starts or ends inside an EDU but still covers most of it
        first_len = doc.spans[first - 1][1] - start
        start += rng.randint(0, first_len // 4)
    return [(start, end)]


def _fallback_span(rng: random.Random, doc: Doc, unit: int) -> list[tuple[int, int]]:
    """A span covering 20-40% of one EDU: meets theta=0.5 nowhere."""
    a, b = doc.spans[unit - 1]
    length = b - a
    piece = max(1, int(length * rng.uniform(0.2, 0.4)))
    offset = rng.randint(0, length - piece)
    return [(a + offset, a + offset + piece)]


def _relation_line(rng: random.Random, kind: str, sense: str, arg1, arg2, link: str | None) -> str:
    fields = [""] * N_FIELDS
    fields[FIELD["kind"]] = kind
    if kind in ("Explicit", "AltLex"):
        a, _ = arg2[0]
        fields[FIELD["conn_span"]] = f"{a}..{a + 3}"
        fields[FIELD["conn1"]] = rng.choice(CONNECTIVES)
    elif kind == "Implicit":
        fields[FIELD["conn1"]] = rng.choice(CONNECTIVES)
    if kind not in ("EntRel", "NoRel"):
        fields[FIELD["sense1"]] = sense
    fields[FIELD["arg1"]] = _span_text(arg1)
    fields[FIELD["arg2"]] = _span_text(arg2)
    fields[FIELD["link"]] = link or "PDTB3"
    return "|".join(fields)


def relation_file(doc: Doc, rng: random.Random) -> str:
    """PDTB 3.0-style pipe-delimited relation rows for one document."""
    n = doc.n_edus
    props = doc.props
    for key in ("relations", "norel_rows", "link_rows", "fallback_args", "multi_span_args", "planted_multi_head"):
        props.setdefault(key, 0)
    target = max(3, round(n * RELATIONS_PER_EDU))
    lines: list[str] = []
    links = 0
    while len(lines) < target:
        kind = _weighted(rng, KIND_WEIGHTS)
        sense = rng.choice(SENSES) if kind != "EntRel" else ""
        k = rng.randint(1, n - 1)  # boundary between the two arguments
        a = min(k, _weighted(rng, ARG_EDUS))
        b = min(n - k, _weighted(rng, ARG_EDUS))
        left = _arg_spans(rng, doc, k - a + 1, k, props)
        right = _arg_spans(rng, doc, k + 1, k + b, props)
        if a == 1 and rng.random() < FALLBACK_ARG:
            left = _fallback_span(rng, doc, k)
            props["fallback_args"] += 1
        arg1, arg2 = (right, left) if kind == "Explicit" and rng.random() < EXPLICIT_ARG1_AFTER else (left, right)
        if kind == "NoRel":
            props["norel_rows"] += 1
        if kind == "Implicit" and rng.random() < LINK_GROUP and len(lines) + 2 <= target:
            # a link group: two rows sharing one LINK token; the converter
            # keeps the first and reports the second
            links += 1
            tag = f"LINK{links}"
            lines.append(_relation_line(rng, kind, sense, arg1, arg2, tag))
            lines.append(_relation_line(rng, kind, rng.choice(SENSES), arg1, arg2, tag))
            props["link_rows"] += 2
            continue
        lines.append(_relation_line(rng, kind, sense, arg1, arg2, None))
    if n >= 3 and rng.random() < PLANTED_MULTI_HEAD:
        # two symmetric relations x-(x+1) and x-(x+2) make x a dependent twice
        x = rng.randint(1, n - 2)
        one = [doc.spans[x - 1]]
        lines.append(_relation_line(rng, "EntRel", "", one, [doc.spans[x]], None))
        lines.append(_relation_line(rng, "Implicit", "Expansion.Conjunction", one, [doc.spans[x + 1]], None))
        props["planted_multi_head"] = 1
    props["relations"] = len(lines)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------- RST


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(4, 14))) + "."


NARY_SHAPES = {3: ("NSS", "SNS", "SSN", "NNN"), 4: ("NSSS", "SSNS", "NNNN"), 5: ("NSSSS", "NNNNN")}

# Assumptions of this generator, not RST-DT counts: the share of internal
# nodes (of 3 or more leaves) that are n-ary, and the nuclearity mix of
# binary nodes.
NARY_NODE = 0.08
BINARY_SHAPES = (("NS", 60), ("SN", 25), ("NN", 15))


def _children_shape(rng: random.Random, size: int) -> str:
    """Nuclearity pattern of one internal node over ``size`` leaves."""
    if size >= 3 and rng.random() < NARY_NODE:
        return rng.choice(NARY_SHAPES[rng.randint(3, min(5, size))])
    return _weighted(rng, BINARY_SHAPES)


def dis_tree(doc: Doc, rng: random.Random) -> str:
    """RST-DT-style ``.dis`` tree over EDUs 1..n, built iteratively."""
    props = doc.props
    for key in ("nodes", "nary_nodes", "multinuclear_nodes", "leading_satellites"):
        props.setdefault(key, 0)
    lines: list[str] = []
    # stack items: (lo, hi, label, rel2par, depth) or a closing marker
    stack: list[tuple] = [(1, doc.n_edus, "Root", None, 0)]
    while stack:
        item = stack.pop()
        if item[0] == "close":
            lines.append("  " * item[1] + ")")
            continue
        lo, hi, label, rel, depth = item
        pad = "  " * depth
        rel_text = f" (rel2par {rel})" if rel else ""
        if lo == hi:
            lines.append(f"{pad}( {label} (leaf {lo}){rel_text} (text _!{_text(rng)}_!) )")
            continue
        props["nodes"] += 1
        lines.append(f"{pad}( {label} (span {lo} {hi}){rel_text}")
        shape = _children_shape(rng, hi - lo + 1)
        arity = len(shape)
        if arity > 2:
            props["nary_nodes"] += 1
            if shape.startswith("SS"):
                props["leading_satellites"] += 1
        nuclei = shape.count("N")
        if nuclei > 1:
            props["multinuclear_nodes"] += 1
        cuts = sorted(rng.sample(range(lo + 1, hi + 1), arity - 1))
        bounds = list(zip([lo] + cuts, [c - 1 for c in cuts] + [hi]))
        multi = rng.choice(MULTINUCLEAR_RELATIONS)
        children = []
        for (c_lo, c_hi), nuc in zip(bounds, shape):
            if nuc == "N":
                child_rel = multi if nuclei > 1 else "span"
                children.append((c_lo, c_hi, "Nucleus", child_rel, depth + 1))
            else:
                children.append((c_lo, c_hi, "Satellite", rng.choice(SATELLITE_RELATIONS), depth + 1))
        stack.append(("close", depth))
        stack.extend(reversed(children))
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- corpus


def _doc_rng(workload: str, seed: int, doc_id: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{doc_id}")


def _make_docs(workload: str, seed: int, prefix: str, spec: tuple, n_docs: int) -> list[Doc]:
    counts = edu_counts(spec, n_docs)
    random.Random(f"{workload}:{seed}:sizes:{prefix}").shuffle(counts)
    docs = []
    for i, n in enumerate(counts, start=1):
        doc_id = f"{prefix}_{i:04d}"
        docs.append(Doc(doc_id, n, _edu_spans(_doc_rng(workload, seed, doc_id + ":edus"), n)))
    return docs


def _write_segmentation(path: Path, docs: list[Doc]) -> None:
    lines = []
    for doc in sorted(docs, key=lambda d: d.doc_id):
        for index, (a, b) in enumerate(doc.spans, start=1):
            lines.append(f"{doc.doc_id}\t{index}\t{a}\t{b}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_docs(workload: str, seed: int, out: Path, docs: list[Doc], rst: bool, pdtb: bool) -> None:
    if rst:
        (out / "rst").mkdir(parents=True, exist_ok=True)
    if pdtb:
        (out / "pdtb").mkdir(parents=True, exist_ok=True)
    for doc in docs:
        rng = _doc_rng(workload, seed, doc.doc_id)
        if rst:
            (out / "rst" / f"{doc.doc_id}.dis").write_text(dis_tree(doc, rng), encoding="utf-8")
            doc.has_rst = True
        if pdtb:
            (out / "pdtb" / f"{doc.doc_id}.pdtb").write_text(relation_file(doc, rng), encoding="utf-8")
            doc.has_pdtb = True


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's corpus under ``out`` and return its manifest.

    Layout: ``rst/<doc_id>.dis`` (rst-corpus) or ``pdtb/<doc_id>.pdtb``
    and ``corpus.seg`` (pdtb-corpus), plus ``probe/`` with paired
    documents for the layers the workload's pipeline does not call.
    """
    spec = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    docs = _make_docs(workload, seed, "wsj", spec["edus"], spec["docs"])
    rst, pdtb = workload == "rst-corpus", workload == "pdtb-corpus"
    _write_docs(workload, seed, out, docs, rst, pdtb)
    seg_docs = list(docs)
    if pdtb:
        extra = spec.get("seg_docs", spec["docs"]) - spec["docs"]
        if extra > 0:
            # segmentation-only documents: the rest of the corpus
            seg_docs += _make_docs(workload, seed, "sec", spec["edus"], extra)
        _write_segmentation(out / "corpus.seg", seg_docs)
    probe = _make_docs(workload, seed, "probe", spec["edus"], PROBE_DOCS)
    _write_docs(workload, seed, out / "probe", probe, True, True)
    _write_segmentation(out / "probe" / "corpus.seg", probe)
    return {
        "workload": workload,
        "seed": seed,
        "docs": {d.doc_id: {"edus": d.n_edus, **d.props} for d in docs},
        "probe": {d.doc_id: {"edus": d.n_edus, **d.props} for d in probe},
        "seg_docs": len(seg_docs) if pdtb else 0,
        "shares": shares(docs),
    }


def shares(docs: list[Doc]) -> dict[str, float]:
    """Shares of the generated properties that the workload depends on."""
    n = len(docs)
    out: dict[str, float] = {}
    pdtb = [d.props for d in docs if d.has_pdtb]
    if pdtb:
        rows = sum(p["relations"] for p in pdtb)
        args = 2 * rows
        out["docs_with_planted_multi_head"] = sum(p["planted_multi_head"] for p in pdtb) / n
        out["args_with_alignment_fallback"] = sum(p["fallback_args"] for p in pdtb) / args
        out["multi_span_args"] = sum(p["multi_span_args"] for p in pdtb) / args
        out["norel_rows"] = sum(p["norel_rows"] for p in pdtb) / rows
        out["link_group_rows"] = sum(p["link_rows"] for p in pdtb) / rows
        out["relations_per_doc"] = rows / n
    rst = [d.props for d in docs if d.has_rst]
    if rst:
        nodes = sum(p["nodes"] for p in rst)
        out["docs_with_nary_node"] = sum(1 for p in rst if p["nary_nodes"]) / n
        out["docs_where_hirao_differs_from_li"] = sum(1 for p in rst if p["leading_satellites"]) / n
        out["nary_nodes"] = sum(p["nary_nodes"] for p in rst) / nodes
        out["multinuclear_nodes"] = sum(p["multinuclear_nodes"] for p in rst) / nodes
    counts = sorted(d.n_edus for d in docs)
    out["edus_min"] = counts[0]
    out["edus_median"] = statistics.median(counts)
    out["edus_max"] = counts[-1]
    return out
