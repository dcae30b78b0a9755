"""Correctness checks on the outputs of one pipeline run.

Every check reports a failure through ``fail(step, doc_id, reason)`` so
the caller can count it against the operation it belongs to. The
reference computations here (MDD, SD, Pearson) are deliberately naive
loops, independent of ``discodep.metrics``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from discodep import read_dep, validate_graph, write_dep

ROOT_HEAD = 0
TOLERANCE = 1e-6


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by its relative path."""
    return {
        p.relative_to(out).as_posix(): sha256(p.read_bytes())
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def naive_metrics(graph, mode: str) -> tuple[float | None, float | None]:
    distances = [abs(a.dependent - a.head) for a in graph.arcs if a.head != ROOT_HEAD]
    if mode == "rooted":
        mdd = sum(distances) / (graph.unit_count - 1) if graph.unit_count >= 2 else None
    else:
        mdd = sum(distances) / len(distances) if distances else None
    sd = None
    if len(distances) >= 2:
        mean = sum(distances) / len(distances)
        sd = math.sqrt(sum((d - mean) ** 2 for d in distances) / (len(distances) - 1))
    return mdd, sd


def naive_pearson(xs: list[float], ys: list[float]) -> tuple[float, float, int]:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    df = n - 2
    t = math.copysign(math.inf, r) if abs(r) == 1.0 else r * math.sqrt(df / (1.0 - r * r))
    return r, t, df


def read_metrics_csv(path: Path) -> dict[str, tuple[int, int, float | None, float | None]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "doc_id,n_units,n_arcs,mdd,sd":
        raise ValueError(f"{path.name}: unexpected metrics header")
    rows = {}
    for line in lines[1:]:
        doc_id, units, arcs, mdd, sd = line.split(",")
        rows[doc_id] = (int(units), int(arcs), float(mdd) if mdd else None, float(sd) if sd else None)
    return rows


def _close(a: float | None, b: float | None, tol: float = TOLERANCE) -> bool:
    if a is None or b is None:
        return a is b
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def check_conversion(step, out: Path, doc_edus: dict[str, int], rooted: bool, fail) -> dict:
    """Round-trip every output; rooted outputs must also validate as trees.

    Returns the graphs read back, keyed by doc_id, for the metrics check.
    """
    graphs = {}
    for doc_id, edus in doc_edus.items():
        path = out / step.name / f"{doc_id}.{step.fmt}"
        if not path.is_file():
            fail(step.name, doc_id, "no output")
            continue
        data = path.read_bytes()
        try:
            graph = read_dep(data, step.fmt)
            again = write_dep(graph, step.fmt)
        except Exception as err:  # any reader or writer error fails this document
            fail(step.name, doc_id, f"round trip raised {type(err).__name__}: {err}")
            continue
        if again != data:
            fail(step.name, doc_id, "read_dep/write_dep round trip changed the bytes")
        if rooted:
            diags = validate_graph(graph)
            if diags:
                fail(step.name, doc_id, f"validate_graph: {diags[0]}")
            if not graph.unit_count == len(graph.arcs) == edus:
                fail(
                    step.name,
                    doc_id,
                    f"{graph.unit_count} units and {len(graph.arcs)} arcs for {edus} leaves",
                )
        graphs[doc_id] = graph
    return graphs


def check_metrics(step, out: Path, graphs: dict, doc_ids: list[str], fail) -> None:
    """Metrics CSV against a naive MDD/SD recomputation from the graphs."""
    try:
        rows = read_metrics_csv(out / step.name)
    except (OSError, ValueError) as err:
        for doc_id in doc_ids:
            fail(step.name, doc_id, f"metrics file unreadable: {err}")
        return
    for doc_id in doc_ids:
        graph = graphs.get(doc_id)
        row = rows.get(doc_id)
        if row is None:
            fail(step.name, doc_id, "no metrics row")
            continue
        if graph is None:
            continue  # already failed in the conversion check
        mdd, sd = naive_metrics(graph, step.mode)
        expected = (graph.unit_count, len(graph.arcs))
        if row[:2] != expected or not _close(row[2], mdd) or not _close(row[3], sd):
            fail(step.name, doc_id, f"metrics row {row} != naive {expected + (mdd, sd)}")


def check_correlation(step, out: Path, fail) -> None:
    """correlate output against a brute-force Pearson over the metrics files."""
    try:
        left = read_metrics_csv(out / step.left)
        right = read_metrics_csv(out / step.right)
        lines = (out / step.name).read_text(encoding="utf-8").splitlines()
        if len(lines) != 2 or lines[0] != "pairs,r,t,df":
            raise ValueError("unexpected correlation file layout")
        pairs, r, t, df = lines[1].split(",")
        got = (int(pairs), float(r), float(t), int(df))
    except (OSError, ValueError) as err:
        fail(step.name, "*", f"correlation unreadable: {err}")
        return
    xs, ys = [], []
    for doc_id in sorted(set(left) & set(right)):
        x, y = left[doc_id][2], right[doc_id][2]
        if x is not None and y is not None:
            xs.append(x)
            ys.append(y)
    if len(xs) < 3:
        fail(step.name, "*", f"only {len(xs)} defined pairs")
        return
    n_r, n_t, n_df = naive_pearson(xs, ys)
    # both sides read the same 6-decimal inputs, so only t's printed rounding differs
    t_tol = TOLERANCE + 1e-9 * abs(n_t) if not math.isinf(n_t) else 0
    if got[0] != len(xs) or got[3] != n_df or not _close(got[1], n_r) or not _close(got[2], n_t, t_tol):
        fail(step.name, "*", f"correlation {got} != brute force {(len(xs), n_r, n_t, n_df)}")


def check_manifest(expected: dict[str, str], hashes: dict[str, str], owner, fail) -> None:
    """Every file in the recorded manifest exists with the recorded SHA-256.

    ``owner(rel_path)`` maps an output path to its (step, doc_id), where a
    doc_id of None stands for every document of the step.
    """
    for rel, digest in sorted(expected.items()):
        if hashes.get(rel) != digest:
            step, doc_id = owner(rel)
            fail(step, doc_id, f"{rel} differs from the recorded manifest")
