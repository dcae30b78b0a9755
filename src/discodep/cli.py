"""Command-line toolkit: conversion pipelines, metrics, correlation, splits.

Every command is deterministic given its flags and inputs: documents are
processed one at a time in path order and diagnostics are written sorted,
and ``--workers`` selects nothing, so it never changes output bytes.

In ``convert-*``, a document whose conversion or serialization raises is
that document's ``doc-failed`` diagnostic, and the batch goes on; failing
to write an output file is an I/O error (exit 2). The diagnostics logged
at INFO are the lines of ``diagnostics.txt``, in the same order.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
from pathlib import Path

from . import __version__
from .formats import (
    FORMATS,
    FormatError,
    _check_metrics_doc_id,
    read_dep,
    read_metrics,
    write_correlation,
    write_dep,
    write_metrics,
)
from .model import Diagnostic, DiscodepError, validate_graph

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_USAGE = 2

# route module -> the names the commands call from it. A command imports
# only its own routes (``_bind``), so a start loads no other route.
_ROUTES = {
    "align": ("read_segmentation",),
    "pdtb": ("ColumnMap", "DEFAULT_COLUMNS", "parse_relation_file"),
    "pdtb2dep": ("DEFAULT_HEAD_RULES", "convert_pdtb", "load_head_rules"),
    "rst": ("DisParseError", "parse_dis_file"),
    "rst2dep": ("apply_label_map", "hirao_convert", "li_convert", "load_label_map"),
    "metrics": ("CorrelationError", "metrics_record", "pearson"),
}
_ROUTE_OF = {name: module for module, names in _ROUTES.items() for name in names}


def _bind(*modules: str) -> None:
    """Import each route module and bind its names into this module's globals.

    A name already bound is left alone: the commands call through these
    globals, so a name set on the module (a test's stand-in, a tracer's
    wrapper) is the one that runs.
    """
    scope = globals()
    for module in modules:
        for name in _ROUTES[module]:
            if name not in scope:
                scope[name] = getattr(importlib.import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    # a route name read from outside before a command bound it (PEP 562)
    if name not in _ROUTE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_ROUTE_OF[name])
    return globals()[name]


# the names that logging.getLevelName reads as INFO or a lower level
_INFO_OR_BELOW = {"INFO", "DEBUG", "NOTSET"}


def _logger():
    """The ``discodep`` logger. Logging is imported and configured on the
    first line logged, so a run that logs nothing never loads it."""
    import logging

    # getLevelName gives an int only for a level name; anything else is WARNING
    level = logging.getLevelName(os.environ.get("DISCODEP_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING, stream=sys.stderr)
    return logging.getLogger("discodep")


def _collect(path: Path, extensions: tuple[str, ...]) -> list[Path]:
    if path.is_file():
        return [path]
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix[1:] in extensions and p.is_file())
    raise FileNotFoundError(f"input path does not exist: {path}")


def _failure(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _convert_all(args, one, files: list[Path]) -> int:
    """Convert each file with ``one``, write its graph, then all diagnostics.

    ``one`` returns ``(graph, diagnostics)``, with graph ``None`` for a
    skipped document. A document whose conversion or serialization raised
    gets a ``doc-failed`` diagnostic in place of its own and makes the run
    exit 1; the other documents are still written. Failing to write a file
    is an I/O error, not a document's failure.
    """
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    diagnostics: list[Diagnostic] = []
    failed = False
    for path in files:
        try:
            graph, diags = one(path)
            payload = None if graph is None else write_dep(graph, args.format)
        except Exception as err:
            failed = True
            diagnostics.append(Diagnostic("doc-failed", _failure(err), doc_id=path.stem))
            continue
        diagnostics.extend(diags)
        if payload is not None:
            (out_dir / f"{path.stem}.{args.format}").write_bytes(payload)
    diagnostics.sort(key=lambda d: (d.doc_id or "", d.line_no or 0, d.code, d.message))
    lines = [str(d) for d in diagnostics]
    # a doc_id from a file stem that is not UTF-8 is written as that stem's bytes
    text = "".join(line + "\n" for line in lines)
    (out_dir / "diagnostics.txt").write_text(text, encoding="utf-8", errors="surrogateescape")
    # the lines are logged at INFO: without logging loaded (and perhaps
    # configured by a caller), only a DISCODEP_LOG at INFO or below shows them
    if lines and ("logging" in sys.modules or os.environ.get("DISCODEP_LOG", "").upper() in _INFO_OR_BELOW):
        log = _logger()
        for line in lines:
            log.info("%s", line)
    if failed or (diagnostics and args.strict):
        return EXIT_DIAGNOSTICS
    return EXIT_OK


def cmd_convert_pdtb(args) -> int:
    _bind("align", "pdtb", "pdtb2dep")
    if not 0 < args.theta <= 1:
        raise ValueError(f"--theta must be in (0, 1], got {args.theta}")
    columns = ColumnMap.from_string(args.columns) if args.columns else DEFAULT_COLUMNS
    head_rules = load_head_rules(args.head_rules) if args.head_rules else DEFAULT_HEAD_RULES
    files = _collect(Path(args.input), ("pdtb",))
    documents = read_segmentation(args.edus, {p.stem for p in files})

    def one(path: Path):
        doc_id = path.stem
        relations, diags = parse_relation_file(path, columns)
        doc = documents.get(doc_id)
        if doc is None:
            diags.append(
                Diagnostic(
                    "missing-segmentation",
                    f"no EDU inventory for {doc_id}; document skipped",
                    doc_id=doc_id,
                )
            )
            return None, diags
        graph, conv_diags = convert_pdtb(
            doc, relations, theta=args.theta, head_rules=head_rules
        )
        diags.extend(conv_diags)
        return graph, diags

    return _convert_all(args, one, files)


def cmd_convert_rst(args) -> int:
    _bind("rst", "rst2dep")
    label_map = load_label_map(args.label_map) if args.label_map else None
    convert = hirao_convert if args.algo == "hirao" else li_convert
    files = _collect(Path(args.input), ("dis",))

    def one(path: Path):
        try:
            tree = parse_dis_file(path)
        except DisParseError as err:
            return None, [Diagnostic("dis-parse-error", str(err), doc_id=path.stem)]
        graph = convert(tree)
        if label_map:
            graph = apply_label_map(graph, label_map)
        return graph, []

    return _convert_all(args, one, files)


def _read_dep_file(path: Path):
    fmt = path.suffix[1:]
    if fmt not in FORMATS:
        raise FormatError(f"cannot infer format from extension of {path.name}")
    graph = read_dep(path.read_bytes(), fmt)
    if not graph.doc_id:
        graph = dataclasses.replace(graph, doc_id=path.stem)
    return graph


def cmd_metrics(args) -> int:
    """Metrics of every readable file, one row per doc_id. An unreadable
    file, one whose doc_id a metrics file cannot hold, or one whose doc_id
    an earlier file already gave, is an ``error:`` line on stderr and makes
    the run exit 1."""
    _bind("metrics")
    paths = _collect(Path(args.input), FORMATS)
    records = []
    measured_from: dict[str, Path] = {}
    for path in paths:
        try:
            record = metrics_record(_read_dep_file(path), args.mode)
            _check_metrics_doc_id(record.doc_id)
        except Exception as err:
            print(f"error: {path}: {_failure(err)}", file=sys.stderr)
            continue
        if record.doc_id in measured_from:
            first = measured_from[record.doc_id]
            print(f"error: {path}: doc_id {record.doc_id!r} already measured from {first}", file=sys.stderr)
        else:
            measured_from[record.doc_id] = path
            records.append(record)
    Path(args.out).write_bytes(write_metrics(records))
    return EXIT_DIAGNOSTICS if len(records) < len(paths) else EXIT_OK


def _metrics_by_doc(path: str) -> dict:
    """The records of a metrics file by doc_id; a repeated doc_id raises ValueError."""
    records = {}
    for record in read_metrics(Path(path).read_bytes()):
        if record.doc_id in records:
            raise ValueError(f"{path}: doc_id {record.doc_id!r} appears more than once")
        records[record.doc_id] = record
    return records


def cmd_correlate(args) -> int:
    """Pearson correlation of one field over the doc_ids in both files.

    An unpaired doc_id, a pair with an undefined field and a pair whose
    unit counts differ (its distances span different EDU inventories) are
    each a WARNING line; the last is still correlated.
    """
    _bind("metrics")
    left = _metrics_by_doc(args.left)
    right = _metrics_by_doc(args.right)
    shared = sorted(set(left) & set(right))
    for doc_id in sorted(set(left) ^ set(right)):
        _logger().warning("unpaired document: %s", doc_id)
    xs, ys = [], []
    for doc_id in shared:
        first, second = left[doc_id], right[doc_id]
        if first.unit_count != second.unit_count:
            _logger().warning("unit counts differ for %s: %d vs %d", doc_id, first.unit_count, second.unit_count)
        x, y = getattr(first, args.field), getattr(second, args.field)
        if x is None or y is None:
            _logger().warning("skipping %s: undefined %s", doc_id, args.field)
            continue
        xs.append(x)
        ys.append(y)
    if not xs:
        print("error: no paired documents", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = pearson(xs, ys)
    except CorrelationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    Path(args.out).write_bytes(write_correlation(result))
    return EXIT_OK


def cmd_validate(args) -> int:
    graph = _read_dep_file(Path(args.input))
    diags = validate_graph(graph)
    for diag in diags:
        print(diag)
    if not diags:
        print(f"{graph.doc_id or args.input}: OK ({len(graph.arcs)} arcs, {graph.unit_count} units)")
    return EXIT_DIAGNOSTICS if diags else EXIT_OK


def cmd_split(args) -> int:
    import random

    in_path = Path(args.input)
    if not in_path.is_dir():
        print(f"error: --input must be a directory: {in_path}", file=sys.stderr)
        return EXIT_USAGE
    ids = sorted({p.stem for p in in_path.iterdir() if p.is_file()})
    total = args.train + args.dev + args.test
    if min(args.train, args.dev, args.test) < 0 or total != len(ids):
        print(
            f"error: split sizes {args.train}+{args.dev}+{args.test}={total} "
            f"must be non-negative and sum to corpus size {len(ids)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    shuffled = list(ids)
    random.Random(args.seed).shuffle(shuffled)
    parts = {
        "train": shuffled[: args.train],
        "dev": shuffled[args.train : args.train + args.dev],
        "test": shuffled[args.train + args.dev :],
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, members in parts.items():
        lines = [
            f"# discodep {name} manifest: seeded stand-in split, not a published partition",
            f"# seed = {args.seed}; sizes = {args.train}/{args.dev}/{args.test}",
        ]
        lines.extend(sorted(members))
        (out_dir / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discodep",
        description="Convert PDTB/RST discourse annotations into dependency "
        "graphs and compute dependency-distance statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument(
        "--workers", type=int, metavar="N",
        help="accepted for compatibility; documents always run one at a time",
    )

    p = sub.add_parser("convert-pdtb", parents=[batch], help="PDTB relation files to local dependency forests")
    p.add_argument("--input", required=True, help="relation file or directory of <doc_id>.pdtb files")
    p.add_argument("--edus", required=True, help="segmentation file (doc_id TAB index TAB start TAB end)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=FORMATS, default="conll")
    p.add_argument("--theta", type=float, default=0.5, help="EDU overlap fraction (default 0.5)")
    p.add_argument("--columns", help="comma-separated field index override (8 indices)")
    p.add_argument("--head-rules", help="per-class head rule override file")
    p.add_argument("--strict", action="store_true", help="exit 1 when any diagnostic is produced")
    p.set_defaults(fn=cmd_convert_pdtb)

    p = sub.add_parser("convert-rst", parents=[batch], help="RST .dis trees to rooted dependency trees")
    p.add_argument("--input", required=True, help=".dis file or directory")
    p.add_argument("--algo", choices=("hirao", "li"), default="hirao")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=FORMATS, default="conll")
    p.add_argument("--label-map", help="relation TAB class mapping file")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=cmd_convert_rst)

    p = sub.add_parser("metrics", parents=[batch], help="per-document MDD/SD over dependency files")
    p.add_argument("--input", required=True, help="dependency file or directory")
    p.add_argument("--mode", choices=("local", "rooted"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("correlate", help="Pearson correlation between paired metrics files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--field", choices=("mdd", "sd"), default="mdd")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_correlate)

    p = sub.add_parser("validate", help="check flavor invariants of a dependency file")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("split", help="deterministic seeded train/dev/test manifests")
    p.add_argument("--input", required=True, help="corpus directory (doc ids from file stems)")
    p.add_argument("--train", type=int, required=True)
    p.add_argument("--dev", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, DiscodepError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
