"""In-memory span tracing for the benchmark's traced run.

Spans are recorded only here, around calls into the package's public
functions: the names that ``discodep.cli`` calls are swapped for traced
wrappers for the duration of a traced pass, and ``resolve_span_set`` is
swapped inside ``discodep.pdtb2dep`` so alignment shows as a child of
conversion. Nothing under ``src/`` is changed or instrumented.

A span is ``[id, name, start, end, parent_id, doc_id, phase]``; the
spans of one document share its doc_id. A layer's self time is its
span's duration minus the time covered by its child spans. Every
``*.ms_per_doc``, ``*.us_per_*`` and ``*.s`` metric is the mean self time
per call; ``*.slope`` fits a document's self time against its EDU count;
``<module>.self_s`` sums self time over the first traced pipeline pass and
the coverage pass.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import discodep.cli as cli
import discodep.pdtb2dep as pdtb2dep
from discodep.formats import FORMATS, FormatError

MODULES = ("align", "pdtb", "pdtb2dep", "rst", "rst2dep", "formats", "metrics", "model", "cli")


def _any(args) -> str:
    return "*"


def _stem(args) -> str:
    return Path(args[0]).stem


def _doc_of_first(args) -> str:
    return args[0].doc_id


def _doc_of_second(args) -> str:
    return args[1].doc_id


def _after_parse(tracer, rec, args, result) -> None:
    relations, diagnostics = result
    tracer.count("pdtb.relations", len(relations))
    tracer.count("pdtb.diagnostics", len(diagnostics))


def _after_convert(tracer, rec, args, result) -> None:
    graph, diagnostics = result
    tracer.count("pdtb2dep.arcs", len(graph.arcs))
    tracer.count("pdtb2dep.diagnostics", len(diagnostics))
    tracer.count("align.fallbacks", sum(d.code == "alignment-fallback" for d in diagnostics))


def _after_read(tracer, rec, args, result) -> None:
    rec[5] = result.doc_id


def _after_resolve(tracer, rec, args, result) -> None:
    tracer.count("align.resolve_span_set.calls")


# name in discodep.cli -> (span name or function of the call's args, doc_id of the call, hook)
CLI_FUNCTIONS = {
    "read_segmentation": ("align.read_segmentation", _any, None),
    "parse_relation_file": ("pdtb.parse_relation_file", _stem, _after_parse),
    "convert_pdtb": ("pdtb2dep.convert_pdtb", _doc_of_first, _after_convert),
    "parse_dis_file": ("rst.parse_dis_file", _stem, None),
    "hirao_convert": ("rst2dep.hirao_convert", _doc_of_first, None),
    "li_convert": ("rst2dep.li_convert", _doc_of_first, None),
    "write_dep": (lambda args: f"formats.write_dep.{args[1]}", _doc_of_first, None),
    "read_dep": (lambda args: f"formats.read_dep.{args[1]}", _any, _after_read),
    "read_metrics": ("formats.read_metrics", _any, None),
    "write_metrics": ("formats.write_metrics", _any, None),
    "write_correlation": ("formats.write_correlation", _any, None),
    "metrics_record": ("metrics.metrics_record", _doc_of_first, None),
    "pearson": ("metrics.pearson", _any, None),
    "validate_graph": ("model.validate_graph", _doc_of_first, None),
}


class Tracer:
    def __init__(self, doc_edus: dict[str, int]):
        self.doc_edus = doc_edus
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.counting = False
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self.fns = {
            attr: self._wrap(name, getattr(cli, attr), doc_of, hook)
            for attr, (name, doc_of, hook) in CLI_FUNCTIONS.items()
        }
        self._resolve = self._wrap(
            "align.resolve_span_set", pdtb2dep.resolve_span_set, _doc_of_second, _after_resolve
        )

    @contextmanager
    def span(self, name: str, doc_id: str = "*"):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        rec = [next(self._ids), name, perf_counter(), 0.0, stack[-1][0] if stack else -1, doc_id, self.phase]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            stack.pop()
            rec[3] = perf_counter()

    def count(self, key: str, n: int = 1) -> None:
        if self.counting:
            self.counts[key] += n

    def _wrap(self, name, fn, doc_of, hook):
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            with self.span(span_name, doc_of(args)) as rec:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, rec, args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route the CLI's and the converter's layer calls through the tracer."""
        saved = [(cli, attr, getattr(cli, attr)) for attr in self.fns]
        saved.append((pdtb2dep, "resolve_span_set", pdtb2dep.resolve_span_set))
        for attr, fn in self.fns.items():
            setattr(cli, attr, fn)
        pdtb2dep.resolve_span_set = self._resolve
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # ----------------------------------------------------------- coverage

    def coverage(self, steps, out: Path, corpus: Path, doc_ids: list[str]) -> None:
        """Call every layer the pipeline did not, on this workload's data.

        Every output graph is written and read in all three formats,
        validated and measured. PDTB or RST layers that the pipeline does
        not load run on the corpus's paired probe documents, and Pearson
        on (MDD, SD) when the pipeline has no correlate step.
        """
        f = self.fns
        commands = {s.command for s in steps}
        records = []
        for step in steps:
            if not step.converts:
                continue
            mode = "rooted" if step.rooted else "local"
            for doc_id in doc_ids:
                path = out / step.name / f"{doc_id}.{step.fmt}"
                if not path.is_file():
                    continue  # already counted as a failed operation
                graph = f["read_dep"](path.read_bytes(), step.fmt)
                for fmt in FORMATS:
                    self.count(f"formats.write_dep.{fmt}.attempts")
                    try:
                        data = f["write_dep"](graph, fmt)
                    except FormatError:
                        self.count(f"formats.write_dep.{fmt}.failed")
                        continue
                    f["read_dep"](data, fmt)
                f["validate_graph"](graph)
                records.append(f["metrics_record"](graph, mode))
        probe = corpus / "probe"
        if "convert-pdtb" not in commands:
            documents = f["read_segmentation"](probe / "corpus.seg")
            for path in sorted((probe / "pdtb").glob("*.pdtb")):
                relations, _ = f["parse_relation_file"](path)
                f["convert_pdtb"](documents[path.stem], relations)
        if "convert-rst" not in commands:
            for path in sorted((probe / "rst").glob("*.dis")):
                tree = f["parse_dis_file"](path)
                f["hirao_convert"](tree)
                f["li_convert"](tree)
        if "correlate" not in commands:
            pairs = [(r.mdd, r.sd) for r in records if r.mdd is not None and r.sd is not None]
            result = f["pearson"]([p[0] for p in pairs], [p[1] for p in pairs])
            f["write_correlation"](result)

    # ------------------------------------------------------------ metrics

    def self_times(self) -> list[tuple[list, float]]:
        covered: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[4] != -1:
                covered[rec[4]] += rec[3] - rec[2]
        return [(rec, rec[3] - rec[2] - covered[rec[0]]) for rec in self.spans]

    def layer_busy(self, phase: str) -> float:
        """Time inside layer calls made directly by the CLI in one phase."""
        roots = {rec[0] for rec in self.spans if rec[6] == phase and rec[1].startswith("cli.")}
        return sum(rec[3] - rec[2] for rec in self.spans if rec[4] in roots)

    def per_layer(self, counted_phases: set[str]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from every recorded span and the counters."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        by_doc: dict[str, dict[tuple[str, str], float]] = defaultdict(lambda: defaultdict(float))
        module_self: dict[str, float] = defaultdict(float)
        for rec, self_s in self.self_times():
            name = rec[1]
            calls[name] += 1
            total[name] += self_s
            by_doc[name][(rec[6], rec[5])] += self_s
            if rec[6] in counted_phases:
                module_self[name.split(".")[0]] += self_s

        def mean(name: str, scale: float) -> float:
            return total[name] / calls[name] * scale if calls[name] else 0.0

        def slope(name: str) -> float:
            return log_log_slope(
                [(self.doc_edus[doc], t) for (_, doc), t in by_doc[name].items() if doc in self.doc_edus]
            )

        c = self.counts
        m: dict[str, tuple[float, str]] = {
            "align.read_segmentation.s": (mean("align.read_segmentation", 1), "s"),
            "align.resolve_span_set.us_per_arg": (mean("align.resolve_span_set", 1e6), "us"),
            "align.resolve_span_set.calls": (c["align.resolve_span_set.calls"], "count"),
            "align.fallbacks": (c["align.fallbacks"], "count"),
            "pdtb.parse_relation_file.ms_per_doc": (mean("pdtb.parse_relation_file", 1e3), "ms"),
            "pdtb.relations": (c["pdtb.relations"], "count"),
            "pdtb.diagnostics": (c["pdtb.diagnostics"], "count"),
            "pdtb2dep.convert_pdtb.ms_per_doc": (mean("pdtb2dep.convert_pdtb", 1e3), "ms"),
            "pdtb2dep.convert_pdtb.slope": (slope("pdtb2dep.convert_pdtb"), "exponent"),
            "pdtb2dep.arcs": (c["pdtb2dep.arcs"], "count"),
            "pdtb2dep.diagnostics": (c["pdtb2dep.diagnostics"], "count"),
        }
        for name in ("rst.parse_dis_file", "rst2dep.hirao_convert", "rst2dep.li_convert"):
            m[f"{name}.ms_per_doc"] = (mean(name, 1e3), "ms")
            m[f"{name}.slope"] = (slope(name), "exponent")
        for op in ("write_dep", "read_dep"):
            for fmt in FORMATS:
                m[f"formats.{op}.{fmt}.ms_per_doc"] = (mean(f"formats.{op}.{fmt}", 1e3), "ms")
        attempts = c["formats.write_dep.conll.attempts"]
        m["formats.write_dep.conll.failed"] = (
            c["formats.write_dep.conll.failed"] / attempts if attempts else 0.0,
            "share",
        )
        m["metrics.metrics_record.us_per_doc"] = (mean("metrics.metrics_record", 1e6), "us")
        m["metrics.pearson.us"] = (mean("metrics.pearson", 1e6), "us")
        m["formats.write_metrics.ms"] = (mean("formats.write_metrics", 1e3), "ms")
        m["model.validate_graph.ms_per_doc"] = (mean("model.validate_graph", 1e3), "ms")
        m["model.validate_graph.slope"] = (slope("model.validate_graph"), "exponent")
        for module in MODULES:
            m[f"{module}.self_s"] = (module_self[module], "s")
        return m

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tdoc_id\tphase\n")
            for rec in self.spans:
                fh.write("\t".join(str(x) for x in rec) + "\n")


def log_log_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(EDUs).

    0.0 when fewer than two document sizes were timed, which happens only
    when the layer failed on nearly every document.
    """
    xs = [math.log(n) for n, t in points if t > 0]
    ys = [math.log(t) for n, t in points if t > 0]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
