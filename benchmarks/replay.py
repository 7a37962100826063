"""Per-layer replays: public functions timed on the workload's own inputs.

Every call runs inside a span of the run's tracer, named ``replay.<metric>``
and attributed to the function's module, so the same spans give both the
per-function numbers and each layer's share of the traced run.  Each
replay does a fixed amount of work, so a layer's self time moves only when
the layer's speed does.

Every workload replays every layer, so each per-layer metric exists on
each workload.  Where a chain writes no export (the two simulated
workloads), the ingest and scaling replays parse an export whose citation
counts are that workload's sample.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median

import numpy as np

from corpus import write_corpus

IMPORT_PROBE = ("import time; t = time.perf_counter(); import heavytails.cli; "
                "print(time.perf_counter() - t)")


class Replayer:
    def __init__(self, tracer, metrics: dict):
        self.tracer = tracer
        self.metrics = metrics

    def time(self, metric: str, layer: str, fn, *args, reps: int = 1,
             **kwargs):
        """Call ``fn`` ``reps`` times under spans; return the last result."""
        result = None
        for _ in range(reps):
            with self.tracer.span(f"replay.{metric}", layer):
                result = fn(*args, **kwargs)
        return result

    def durations(self, metric: str) -> list[float]:
        return self.tracer.durations(f"replay.{metric}")

    def median(self, metric: str) -> float:
        return median(self.durations(metric))

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}


def import_seconds(env: dict, reps: int) -> float:
    """Median time to import heavytails.cli in a fresh interpreter."""
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout.strip()))
    return median(times)


def scan_candidates(counts: np.ndarray, min_tail: int) -> int:
    """x_min candidates the scan fits: observed values >= 1 whose tail holds
    at least max(min_tail, 2) observations, except the largest value."""
    positive = counts[counts >= 1]
    values, first = np.unique(positive, return_index=True)
    tail = positive.size - first
    return int(np.sum(tail[:-1] >= max(min_tail, 2)))


def run_replays(ht, tracer, tally, plan, rep: Path, scratch: Path,
                seed: int, sizes: dict, tiny: bool, metrics: dict) -> None:
    """Time each layer's public functions on this workload's inputs.

    ``rep`` is a repetition directory the chain ran in; ``scratch`` takes
    files the replays write; ``ht`` is the imported package.  Results the
    replays can check go to ``tally``.  ``tiny`` repeats each call less.
    """
    r = Replayer(tracer, metrics)
    few = 1 if tiny else 5
    counts_path = rep / plan.counts

    # dataset
    sample = r.time("dataset.read_counts", "dataset", ht.read_counts,
                    counts_path, reps=3)
    r.time("dataset.write_counts", "dataset", ht.write_counts,
           scratch / "counts.txt", sample.counts, reps=3)
    r.put("dataset.read_counts_s", r.median("dataset.read_counts"), "s")
    r.put("dataset.write_counts_s", r.median("dataset.write_counts"), "s")

    # powerlaw: the scan, then the kernels at the fitted (alpha, x_min)
    fit = r.time("powerlaw.scan", "powerlaw", ht.fit_power_law, sample,
                 bootstrap_reps=0, seed=seed, reps=3)
    scan_s = r.median("powerlaw.scan")
    r.put("powerlaw.scan_ms", 1e3 * scan_s, "ms")
    r.put("powerlaw.scan_candidates",
          scan_candidates(sample.counts, ht.powerlaw.DEFAULT_MIN_TAIL), "count")
    reps = sizes["bootstrap"]
    r.time("powerlaw.bootstrap", "powerlaw", ht.fit_power_law, sample,
           bootstrap_reps=reps, seed=seed)
    r.put("powerlaw.bootstrap_rep_ms",
          1e3 * (r.durations("powerlaw.bootstrap")[0] - scan_s) / reps, "ms")
    r.time("powerlaw.fit_alpha", "powerlaw", ht.fit_alpha, sample,
           fit.x_min, reps=few)
    r.put("powerlaw.mle_ms", 1e3 * r.median("powerlaw.fit_alpha"), "ms")
    model = fit.model()
    r.time("powerlaw.ks_distance", "powerlaw", ht.ks_distance, sample, model,
           reps=few)
    r.put("powerlaw.ks_ms", 1e3 * r.median("powerlaw.ks_distance"), "ms")
    shifts = np.unique(sample.tail(fit.x_min))[:256].tolist()
    r.time("powerlaw.zeta", "powerlaw",
           lambda: [ht.hurwitz_zeta(fit.alpha, q) for q in shifts], reps=3)
    r.put("powerlaw.zeta_us",
          1e6 * r.median("powerlaw.zeta") / len(shifts), "us")
    # one GoF simulation draws about n_tail variates from the fitted model
    for k in range(3 if tiny else 5):
        r.time("powerlaw.sample", "powerlaw", ht.sample_power_law, model,
               fit.n_tail, seed * 100 + k)
    draws = r.durations("powerlaw.sample")
    r.put("powerlaw.sample_ms", 1e3 * median(draws), "ms")
    r.put("powerlaw.sample_max_ms", 1e3 * max(draws), "ms")

    # gof: the same simulations on one worker and on two
    sims = sizes["replay_sims"]
    one = r.time("gof.gof_test_1w", "gof", ht.gof_test, sample, fit, sims,
                 seed, workers=1)
    two = r.time("gof.gof_test_2w", "gof", ht.gof_test, sample, fit, sims,
                 seed, workers=2)
    t1 = r.durations("gof.gof_test_1w")[0]
    t2 = r.durations("gof.gof_test_2w")[0]
    r.put("gof.sim_ms", 1e3 * t1 / sims, "ms")
    r.put("gof.speedup_2w", t1 / t2, "ratio")
    tally.check("gof_test equal on 1 and 2 workers", one == two)

    # altmodels at the fitted x_min
    for family in ht.FAMILIES:
        key = "fit_cutoff" if family == "powerlaw_cutoff" else f"fit_{family}"
        r.time(f"altmodels.{key}", "altmodels", ht.fit_alternative, sample,
               fit.x_min, family)
        r.put(f"altmodels.{key}_ms",
              1e3 * r.durations(f"altmodels.{key}")[0], "ms")
    comparisons = r.time("altmodels.compare_models", "altmodels",
                         ht.compare_models, sample, fit)
    r.put("altmodels.compare_models_s",
          r.durations("altmodels.compare_models")[0], "s")
    lr = {c.alternative: c.lr for c in comparisons}["powerlaw_cutoff"]
    tally.check("replayed cutoff lr <= 0", lr <= 0.0, f"lr {lr}")

    # ingest: the workload's export, or one built from its sample
    if plan.export:
        export = rep / plan.export
        journals = export.with_name("journals.csv")
    else:
        export, journals = scratch / "export.tsv", scratch / "journals.csv"
        write_corpus(export, journals, seed, citations=sample.counts)
    with open(export, encoding="utf-8") as fh:
        n_rows = sum(1 for _ in fh) - 1
    passes = 1 if n_rows > 50_000 else 3

    def parse():
        with open(export, "r", encoding="utf-8-sig", newline=None) as fh:
            return ht.parse_export(fh)
    parsed = r.time("ingest.parse_export", "ingest", parse, reps=passes)
    parse_s = r.median("ingest.parse_export")
    r.put("ingest.parse_export_s", parse_s, "s")
    r.put("ingest.rows_per_s", n_rows / parse_s, "1/s")
    r.put("ingest.kept_ratio", len(parsed.records) / n_rows, "ratio")
    with open(journals, "r", encoding="utf-8-sig", newline=None) as fh:
        classification = ht.read_classification(fh)
    aggregates, _ = r.time("ingest.build_aggregates", "ingest",
                           ht.build_aggregates, parsed.records,
                           classification, parsed.source_rows, reps=passes)
    r.put("ingest.build_aggregates_ms",
          1e3 * r.median("ingest.build_aggregates"), "ms")
    r.time("ingest.mode_samples", "ingest", ht.mode_samples, parsed.records,
           reps=passes)
    r.put("ingest.mode_samples_ms",
          1e3 * r.median("ingest.mode_samples"), "ms")

    # scaling: one regression is microseconds, so time batches of 20
    points, _ = ht.points_from_aggregates(aggregates, "overall")
    r.time("scaling.scaling_fit", "scaling",
           lambda: [ht.scaling_fit(points) for _ in range(20)], reps=3)
    r.put("scaling.scaling_fit_ms",
          1e3 * r.median("scaling.scaling_fit") / 20, "ms")

    # documents and report on the documents this chain wrote
    docs = [json.loads((rep / rel).read_text(encoding="utf-8"))
            for rel in plan.documents]
    r.time("documents.write_document", "documents",
           ht.documents.write_document, docs[0], scratch / "doc.json",
           reps=few)
    r.put("documents.write_document_ms",
          1e3 * r.median("documents.write_document"), "ms")
    r.time("documents.file_digest", "documents", ht.documents.file_digest,
           counts_path, reps=few)
    r.put("documents.file_digest_ms",
          1e3 * r.median("documents.file_digest"), "ms")
    r.time("report.render", "report",
           lambda: [ht.report.render(doc) for doc in docs], reps=few)
    r.put("report.render_ms",
          1e3 * r.median("report.render") / len(docs), "ms")
