"""discodep benchmark: one workload per run, end to end or per layer.

    python3 perfbench/run.py --workload pdtb-corpus --seed 3 --seconds 56 --trace 0

Run it from the root of a source checkout; it imports and runs the
package from ``src/`` and keeps all of its files under
``.perfbench-work/``. It generates the workload's corpus from ``--seed``
(see ``gen.py``), measures for ``--seconds``, checks every output, and
prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

The whole run, corpus generation and checks included, stays within
``--seconds``: a round starts only while one more of the longest round
so far still ends inside it.

``--trace 0`` times the ``discodep`` CLI as child processes, untraced:
set-up time, throughput at ``--workers 1`` and ``2``, in-process
per-document latency of the library path, peak RSS of the children and
the share of operations that succeeded. ``--trace 1`` runs the same
pipeline in-process with spans around every layer call (``tracing.py``)
and reports per-layer metrics.

Only in-process timers (``time.perf_counter``) and the kernel's
per-child resource usage are read. Nothing traces the machine, and no
cache is dropped or warmed beyond one untimed CLI start.

``--record-manifest`` rewrites ``manifests/<workload>.json``, the
SHA-256 of every output at the default seed, from the code in ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
MANIFESTS = HERE / "manifests"

DEFAULT_SEED = 0
CLI_TIMEOUT_S = 60


@dataclass(frozen=True)
class Step:
    """One CLI command of a pipeline.

    ``name`` is the output directory of a conversion and the output file
    of a metrics or correlate step.
    """

    name: str
    command: str
    fmt: str = ""
    algo: str = ""
    source: str = ""
    mode: str = ""
    left: str = ""
    right: str = ""

    @property
    def converts(self) -> bool:
        return self.command.startswith("convert-")

    @property
    def rooted(self) -> bool:
        return self.command == "convert-rst"


# json for PDTB output: conll aborts a whole batch on the first
# multi-headed document, a defect the traced run counts as
# formats.write_dep.conll.failed.
PIPELINES = {
    "rst-corpus": (
        Step("hirao", "convert-rst", fmt="conll", algo="hirao"),
        Step("li", "convert-rst", fmt="conll", algo="li"),
        Step("hirao.csv", "metrics", source="hirao", mode="rooted"),
        Step("li.csv", "metrics", source="li", mode="rooted"),
        Step("corr.csv", "correlate", left="hirao.csv", right="li.csv"),
    ),
    "pdtb-corpus": (
        Step("local", "convert-pdtb", fmt="json"),
        Step("local.csv", "metrics", source="local", mode="local"),
    ),
}


def step_argv(step: Step, corpus: Path, out: Path, workers: int, input_dir: Path | None = None) -> list[str]:
    if step.command == "convert-pdtb":
        argv = ["--input", input_dir or corpus / "pdtb", "--edus", corpus / "corpus.seg", "--format", step.fmt]
    elif step.command == "convert-rst":
        argv = ["--input", input_dir or corpus / "rst", "--algo", step.algo, "--format", step.fmt]
    elif step.command == "metrics":
        argv = ["--input", out / step.source, "--mode", step.mode]
    else:
        argv = ["--left", out / step.left, "--right", out / step.right, "--field", "mdd"]
    if step.command != "correlate":
        argv += ["--workers", workers]
    return [step.command, *map(str, argv), "--out", str(out / step.name)]


class Ledger:
    """Operations attempted and failed; an operation is (run tag, step, doc_id).

    Every step of a pipeline, the library path (``lib``) and each set-up
    start (``setup``) has its documents; correlate has the single ``*``.
    """

    def __init__(self, steps, doc_ids: list[str]):
        self.step_docs = {s.name: doc_ids if s.command != "correlate" else ["*"] for s in steps}
        self.step_docs.update({"lib": doc_ids, "setup": ["*"]})
        self.attempted: set[tuple[str, str, str]] = set()
        self.failed: dict[tuple[str, str, str], str] = {}

    def attempt(self, tag: str, step: str) -> None:
        self.attempted.update((tag, step, d) for d in self.step_docs[step])

    def fail(self, tag: str, step: str, doc_id: str | None, reason: str) -> None:
        """Fail one document of a step, or every document when doc_id is None."""
        for d in self.step_docs[step] if doc_id is None else [doc_id]:
            self.attempted.add((tag, step, d))
            self.failed.setdefault((tag, step, d), reason)


class CliRunner:
    """Runs ``python -m discodep.cli`` from ``src/`` as a child process."""

    def __init__(self, log_path: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.log_path = log_path

    def __call__(self, argv: list[str]) -> int:
        with self.log_path.open("ab") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "discodep.cli", *argv],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=self.env,
                cwd=ROOT,
            )
            # a blocking wait returns the moment the child exits; wait(timeout=...)
            # polls every 50 ms and would round every timing up to that grid
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.daemon = True
            watchdog.start()
            try:
                return proc.wait()
            finally:
                watchdog.cancel()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


def owner(rel: str) -> tuple[str, str | None]:
    """(step, doc_id) that wrote an output path; None means the whole step."""
    if "/" in rel:
        step, name = rel.split("/", 1)
        return step, name.rsplit(".", 1)[0]
    return rel, None


def run_pipeline(
    steps, corpus: Path, out: Path, workers: int, runner, ledger: Ledger, tag: str, doc_ids, between=None
) -> float:
    """Run every step into a fresh ``out``; returns the summed wall time of the steps.

    ``between()``, when given, runs untimed after each step.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    codes = []
    wall = 0.0
    for step in steps:
        start = perf_counter()
        codes.append(runner(step_argv(step, corpus, out, workers)))
        wall += perf_counter() - start
        if between is not None:
            between()
    for step, code in zip(steps, codes):
        ledger.attempt(tag, step.name)
        if code != 0:
            ledger.fail(tag, step.name, None, f"exit code {code}")
        elif step.converts:
            for doc_id in doc_ids:
                if not (out / step.name / f"{doc_id}.{step.fmt}").is_file():
                    ledger.fail(tag, step.name, doc_id, "no output")
        elif not (out / step.name).is_file():
            ledger.fail(tag, step.name, None, "no output")
    return wall


def compare_trees(reference: dict[str, str], other: dict[str, str], ledger: Ledger, tag: str, what: str) -> None:
    for rel in sorted(set(reference) | set(other)):
        if reference.get(rel) != other.get(rel):
            step, doc_id = owner(rel)
            if step in ledger.step_docs:
                ledger.fail(tag, step, doc_id, f"{rel}: {what}")


def check_outputs(steps, out: Path, manifest: dict, seed: int, ledger: Ledger, tag: str) -> list[str]:
    """Check one round's outputs; returns the names of the checks that ran."""
    import checks

    def fail(step: str, doc_id: str | None, reason: str) -> None:
        ledger.fail(tag, step, doc_id, reason)

    doc_edus = {d: info["edus"] for d, info in manifest["docs"].items()}
    graphs = {}
    for step in steps:
        if step.converts:
            graphs[step.name] = checks.check_conversion(step, out, doc_edus, step.rooted, fail)
    for step in steps:
        if step.command == "metrics":
            checks.check_metrics(step, out, graphs[step.source], list(doc_edus), fail)
        elif step.command == "correlate":
            checks.check_correlation(step, out, fail)
    ran = ["round-trip", "naive-metrics"]
    ran += ["rst-validate"] if any(s.rooted for s in steps) else []
    ran += ["brute-force-pearson"] if any(s.command == "correlate" for s in steps) else []
    if seed == DEFAULT_SEED:
        path = MANIFESTS / f"{manifest['workload']}.json"
        if not path.is_file():
            fail(steps[0].name, None, f"missing {path.name}")
        else:
            expected = json.loads(path.read_text(encoding="utf-8"))["files"]
            checks.check_manifest(expected, checks.tree_hashes(out), owner, fail)
        ran.append("sha256-manifest")
    return ran


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated percentile; 0.0 when nothing was timed (the run then has failures)."""
    ordered = sorted(samples)
    if len(ordered) <= 1:
        return ordered[0] if ordered else 0.0
    k = (len(ordered) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail(samples: list[float]) -> str:
    """Median and the highest standard percentile with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    text = f"p50 {percentile(samples, 50):.4f}"
    if best is not None:
        text += f", p{best:g} {percentile(samples, best):.4f}"
    return f"{text} (n={n})"


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text(encoding="utf-8").strip()
            for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def print_header(args) -> None:
    print(f"# discodep benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python {platform.python_version()} ({sys.executable}); nproc {os.cpu_count()}; git {git_revision()}")
    print("# timers: in-process time.perf_counter and per-child rusage only; no machine-level tracing, no cache control")


class LibraryPath:
    """Per-document latency of the library path: read, parse, convert, write_dep.

    A document's latency is the sum over the pipeline's conversion steps.
    Each round's documents are shuffled into small chunks that run between
    the CLI steps, so one document's samples, and neighbouring documents,
    fall at different moments of the run.
    """

    def __init__(self, steps, corpus: Path, documents, ledger: Ledger, seed: int):
        self.conversions = [s for s in steps if s.converts]
        self.corpus = corpus
        self.documents = documents
        self.ledger = ledger
        self.rng = random.Random(seed)
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.chunks: list[list[str]] = []
        self.outputs: dict[str, list[bytes]] = {}
        self.tag = ""

    def plan(self, tag: str, doc_ids: list[str], slots: int) -> None:
        self.tag, self.outputs = tag, {}
        self.ledger.attempt(tag, "lib")
        order = self.rng.sample(doc_ids, len(doc_ids))
        self.chunks = [order[i::slots] for i in range(slots)]

    def run_chunk(self) -> None:
        from discodep import convert_pdtb, hirao_convert, li_convert, parse_dis_file, parse_relation_file, write_dep

        for doc_id in self.chunks.pop() if self.chunks else ():
            try:
                start = perf_counter()
                outputs = []
                for step in self.conversions:
                    if step.command == "convert-pdtb":
                        relations, _ = parse_relation_file(self.corpus / "pdtb" / f"{doc_id}.pdtb")
                        graph, _ = convert_pdtb(self.documents[doc_id], relations)
                    else:
                        tree = parse_dis_file(self.corpus / "rst" / f"{doc_id}.dis")
                        graph = (hirao_convert if step.algo == "hirao" else li_convert)(tree)
                    outputs.append(write_dep(graph, step.fmt))
                self.latencies[doc_id].append((perf_counter() - start) * 1e3)
                self.outputs[doc_id] = outputs
            except Exception as err:  # any library error fails this document
                self.ledger.fail(self.tag, "lib", doc_id, f"{type(err).__name__}: {err}")

    def finish(self, out: Path) -> None:
        """Run what is left of the round; the bytes must equal the CLI's output."""
        while self.chunks:
            self.run_chunk()
        for doc_id, outputs in self.outputs.items():
            for step, data in zip(self.conversions, outputs):
                path = out / step.name / f"{doc_id}.{step.fmt}"
                if not path.is_file() or path.read_bytes() != data:
                    self.ledger.fail(self.tag, "lib", doc_id, f"library bytes differ from CLI output {path.name}")


def another_round(started: float, round_s: list[float], seconds: float) -> bool:
    """Whether one more round as long as the longest so far still ends
    within ``seconds`` of ``started``, the start of the program."""
    return perf_counter() - started + max(round_s) <= seconds


def setup_start(steps, corpus: Path, work: Path, runner, ledger: Ledger, tag: str) -> float:
    """One CLI start on an empty input directory; returns its wall time."""
    empty = work / "empty"
    empty.mkdir(exist_ok=True)
    first = next(s for s in steps if s.converts)
    out = work / "setup-out"
    shutil.rmtree(out, ignore_errors=True)
    start = perf_counter()
    code = runner(step_argv(first, corpus, out, 1, input_dir=empty))
    elapsed = perf_counter() - start
    ledger.attempt(tag, "setup")
    if code != 0:
        ledger.fail(tag, "setup", None, f"exit code {code}")
    return elapsed


def measure_untraced(args, steps, corpus, work, manifest, ledger: Ledger, runner) -> dict:
    from checks import tree_hashes
    from discodep import read_segmentation

    doc_ids = sorted(manifest["docs"])
    documents = read_segmentation(corpus / "corpus.seg") if (corpus / "corpus.seg").is_file() else {}
    # the inventory lives for the whole run: frozen, it is left out of the
    # collector's full passes, which would otherwise land on random documents
    gc.collect()
    gc.freeze()
    walls: dict[int, list[float]] = {1: [], 2: []}
    setup: list[float] = []
    library = LibraryPath(steps, corpus, documents, ledger, args.seed)
    setup_start(steps, corpus, work, runner, ledger, "warmup.setup")  # untimed: first start fills caches
    reference = None
    round_s: list[float] = []
    r = 0
    while True:
        start = perf_counter()
        # one set-up start per round, so set-up samples spread over the run
        setup.append(setup_start(steps, corpus, work, runner, ledger, f"r{r}.setup"))
        library.plan(f"r{r}.lib", doc_ids, 2 * len(steps))
        for w in (1, 2) if r % 2 == 0 else (2, 1):
            walls[w].append(
                run_pipeline(steps, corpus, work / f"w{w}", w, runner, ledger, f"r{r}.w{w}", doc_ids, library.run_chunk)
            )
        library.finish(work / "w1")
        h1, h2 = tree_hashes(work / "w1"), tree_hashes(work / "w2")
        compare_trees(h1, h2, ledger, f"r{r}.w2", "--workers 2 output differs from --workers 1")
        reference = reference or h1
        compare_trees(reference, h1, ledger, f"r{r}.w1", "output differs from the first round")
        round_s.append(perf_counter() - start)
        if r == 0:
            # every later round must reproduce these bytes, so checking the
            # first round's outputs checks them all
            ran = check_outputs(steps, work / "w1", manifest, args.seed, ledger, "r0.w1")
        r += 1
        if not another_round(args.started, round_s, args.seconds):
            break
    n = len(doc_ids)
    return {
        "rounds": r,
        "checks": ["--workers 1 = --workers 2 bytes", "same bytes every round", "library = CLI bytes", *ran],
        "setup_s": setup,
        # throughput over the whole run (every round's documents over the
        # summed pipeline time), not a median of a few rounds: the speed of a
        # shared host flips between levels, and a median of eight rounds
        # follows whichever level held the majority
        "docs_per_s": {w: n * len(walls[w]) / sum(walls[w]) for w in walls},
        "round_docs_per_s": {w: [n / t for t in walls[w]] for w in walls},
        # a document's latency is its median over the rounds, so the
        # percentiles spread over documents and not over timing noise
        "doc_ms": [statistics.median(v) for v in library.latencies.values()],
        "samples": {"wall_s": walls, "setup_s": setup, "round_s": round_s, "doc_ms": library.latencies},
    }


def measure_traced(args, steps, corpus, work, manifest, ledger: Ledger, runner) -> dict:
    """Per-layer run: untraced and traced in-process pipelines, then CLI children."""
    import tracing
    from checks import tree_hashes
    from discodep.cli import main as cli_main

    doc_ids = sorted(manifest["docs"])
    edus = {d: info["edus"] for d, info in {**manifest["docs"], **manifest["probe"]}.items()}
    tracer = tracing.Tracer(edus)

    def in_process(argv: list[str]) -> int:
        try:
            return cli_main(argv)
        except Exception as err:  # the run goes on; the step counts as failed
            print(f"# in-process {argv[0]} raised {type(err).__name__}: {err}", file=sys.stderr)
            return 1

    def traced(argv: list[str]) -> int:
        with tracer.span(f"cli.{argv[0]}"):
            return in_process(argv)

    # untimed warm-up, so the first timed in-process pass pays no first-call costs
    run_pipeline(steps, corpus, work / "u", 1, in_process, ledger, "warmup.u", doc_ids)
    walls: dict[str, list[float]] = {"untraced": [], "traced": [], "w1": [], "w2": []}
    busy: list[float] = []
    reference = None
    round_s: list[float] = []
    r = 0
    while True:
        start = perf_counter()
        for kind in ("untraced", "traced") if r % 2 == 0 else ("traced", "untraced"):
            if kind == "traced":
                tracer.phase, tracer.counting = f"r{r}", r == 0
                with tracer.patched():
                    walls[kind].append(run_pipeline(steps, corpus, work / "t", 1, traced, ledger, f"r{r}.t", doc_ids))
                tracer.counting = False
                busy.append(tracer.layer_busy(f"r{r}"))
            else:
                walls[kind].append(run_pipeline(steps, corpus, work / "u", 1, in_process, ledger, f"r{r}.u", doc_ids))
        for w in (1, 2) if r % 2 == 0 else (2, 1):
            walls[f"w{w}"].append(run_pipeline(steps, corpus, work / f"w{w}", w, runner, ledger, f"r{r}.w{w}", doc_ids))
        h1 = tree_hashes(work / "w1")
        for other, tag in (("w2", f"r{r}.w2"), ("t", f"r{r}.t"), ("u", f"r{r}.u")):
            compare_trees(h1, tree_hashes(work / other), ledger, tag, f"{other} output differs from --workers 1")
        reference = reference or h1
        compare_trees(reference, h1, ledger, f"r{r}.w1", "output differs from the first round")
        round_s.append(perf_counter() - start)
        if r == 0:
            ran = check_outputs(steps, work / "w1", manifest, args.seed, ledger, "r0.w1")
            tracer.phase, tracer.counting = "cov", True
            with tracer.patched():
                tracer.coverage(steps, work / "t", corpus, doc_ids)
            tracer.counting = False
        r += 1
        if not another_round(args.started, round_s, args.seconds):
            break
    tracer.write(work / "trace.tsv")

    med = {k: statistics.median(v) for k, v in walls.items()}
    metrics = tracer.per_layer({"r0", "cov"})
    metrics["cli.overhead_share"] = ((med["w1"] - statistics.median(busy)) / med["w1"], "share")
    metrics["cli.parallel_speedup"] = (sum(walls["w1"]) / sum(walls["w2"]), "ratio")
    metrics["trace.overhead_share"] = ((med["traced"] - med["untraced"]) / med["untraced"], "share")
    return {
        "rounds": r,
        "checks": ["--workers 1 = --workers 2 bytes", "same bytes every round", "in-process = CLI bytes", *ran],
        "metrics": metrics,
        "samples": {"wall_s": walls, "round_s": round_s, "busy_s": busy},
    }


def record_manifest(workload: str) -> int:
    """Write the SHA-256 of every output at the default seed."""
    import gen
    from checks import tree_hashes

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = gen.generate(workload, DEFAULT_SEED, work / "corpus")
    steps = PIPELINES[workload]
    doc_ids = sorted(manifest["docs"])
    ledger = Ledger(steps, doc_ids)
    run_pipeline(steps, work / "corpus", work / "w1", 1, CliRunner(work / "cli.log"), ledger, "record", doc_ids)
    if ledger.failed:
        print(f"error: pipeline failed: {next(iter(ledger.failed.values()))}", file=sys.stderr)
        return 1
    files = {rel: h for rel, h in tree_hashes(work / "w1").items() if not rel.endswith("diagnostics.txt")}
    MANIFESTS.mkdir(exist_ok=True)
    body = {"workload": workload, "seed": DEFAULT_SEED, "docs": len(manifest["docs"]), "files": files}
    (MANIFESTS / f"{workload}.json").write_text(json.dumps(body, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} hashes to manifests/{workload}.json")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="discodep benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=sorted(PIPELINES), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-manifest", action="store_true")
    args = parser.parse_args()
    args.started = perf_counter()
    if not (SRC / "discodep" / "cli.py").is_file():
        print(f"error: no discodep sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_manifest:
        return record_manifest(args.workload)

    import gen

    print_header(args)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus = work / "corpus"
    manifest = gen.generate(args.workload, args.seed, corpus)
    print(f"# corpus: {len(manifest['docs'])} documents generated in {perf_counter() - args.started:.2f} s")
    for key, value in manifest["shares"].items():
        print(f"#   {key} = {value:.4f}" if isinstance(value, float) else f"#   {key} = {value}")

    steps = PIPELINES[args.workload]
    ledger = Ledger(steps, sorted(manifest["docs"]))
    runner = CliRunner(work / "cli.log")

    if args.trace:
        result = measure_traced(args, steps, corpus, work, manifest, ledger, runner)
        metrics = result["metrics"]
    else:
        result = measure_untraced(args, steps, corpus, work, manifest, ledger, runner)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup, lat, rate = result["setup_s"], result["doc_ms"], result["docs_per_s"]
        w1, w2 = result["round_docs_per_s"][1], result["round_docs_per_s"][2]
        print(f"# setup_s: {tail(setup)}")
        print(f"# docs_per_s.w1: {tail(w1)}; docs_per_s.w2: {tail(w2)} (per round)")
        print(f"# doc_ms: {tail(lat)} (per-document medians over the rounds)")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "docs_per_s.w1": (rate[1], "1/s"),
            "docs_per_s.w2": (rate[2], "1/s"),
            "doc_ms.p50": (percentile(lat, 50), "ms"),
            "doc_ms.p90": (percentile(lat, 90), "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MiB"),
        }
    attempted, failed = len(ledger.attempted), len(ledger.failed)
    fail_share = failed / attempted
    if not args.trace:
        metrics["ok_share"] = (1 - fail_share, "ratio")
    print(f"# rounds: {result['rounds']}; checks: {', '.join(result['checks'])}")
    print(f"# fail_share = {fail_share:.6f} ({failed} of {attempted} operations)")
    for (tag, step, doc_id), reason in sorted(ledger.failed.items())[:10]:
        print(f"#   FAIL {tag} {step} {doc_id}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {**summary, "samples": result["samples"], "failures": [list(k) + [v] for k, v in sorted(ledger.failed.items())]}
    (work / "result.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"# wall time {perf_counter() - args.started:.2f} s of a {args.seconds:g} s budget")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
