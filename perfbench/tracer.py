"""Traced runner: time riskbench's public functions from outside, then run the CLI.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- <riskbench arguments>

The runner imports `riskbench.cli`, replaces the functions listed in
`COARSE` and `HOT` in every `riskbench.*` module namespace that holds them
(modules bind them with `from .vectorize import unit_rows` and similar), and
then calls `riskbench.cli.main(argv)`.  Coarse entry points record a span
(name, start, end, parent); hot functions keep only a call count and a total
time, because a span per call would distort the numbers.  Spans stay in
memory and are written to TRACE.json at exit.  The wrappers return what the
wrapped function returns, so reports are byte-identical with and without
tracing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (module, function) pairs recorded as spans.
COARSE = (
    ("corpus", "load_corpus"),
    ("vectorize", "load_word_vectors"),
    ("vectorize", "load_sentence_vectors"),
    ("vectorize", "tfidf_fit"),
    ("similarity", "directional_mean_matrix"),
    ("similarity", "pooling_similarity"),
    ("similarity", "match_registers"),
    ("similarity", "evaluation_level_report"),
    ("similarity", "document_similarity"),
    ("template", "group_risks"),
    ("template", "build_template"),
    ("template", "evaluate_template"),
    ("rbs", "coverage"),
    ("lifecycle", "corpus_ratios"),
    ("lifecycle", "tabulated_ratios"),
    ("report", "emit_report"),
    ("report", "canonical_json"),
    ("parallel", "parallel_map"),
)

# (module, function) pairs recorded as a call count and a total time.
HOT = (
    ("corpus", "parse_register"),
    ("corpus", "normalize_assessment"),
    ("vectorize", "embed_text"),
    ("vectorize", "cosine_table"),
    ("vectorize", "cosine"),
    ("vectorize", "tfidf_vector"),
    ("template", "classify_risk"),
    ("lifecycle", "build_lifecycle"),
    ("lifecycle", "classify_style"),
    ("report", "file_digest"),
)


class Tracer:
    """Spans, hot-function counters and named counts of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, float] = {}
        self.embedded: set = set()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def coarse(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn, on_result=None):
        hot = self.hot
        # cosine() serves both the dense kernel and TF-IDF: count them apart
        split = name == "vectorize.cosine"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (name + ("_sparse" if hasattr(args[0], "entries") else "_dense")
                       if split else name)
                totals = hot.setdefault(key, [0, 0.0])
                totals[0] += 1
                totals[1] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # ---- hooks: counts derived from arguments and results, outside the timing

    def _rows(self, args, kwargs, corpus):
        self.add("corpus.rows", sum(len(s.items) for p in corpus.projects for s in p.snapshots))

    def _backend_bytes(self, args, kwargs, backend):
        self.add("vectorize.backend_bytes", os.path.getsize(args[0]))

    def _embedded(self, args, kwargs, embedded):
        self.embedded.add((id(args[0]), args[1]))
        if embedded.all_oov:
            self.add("vectorize.oov_rows", 1)

    def _kernel(self, args, kwargs, scores):
        (m, d), n = args[0].shape, args[1].shape[0]
        self.add("vectorize.kernel_flops", 2 * m * n * d)
        self.add("vectorize.kernel_bytes", 8 * (m * d + n * d + m * n))
        if self.innermost() == "template.group_risks":
            self.add("template.group_cells", m * n)

    def _cosine(self, args, kwargs, score):
        if hasattr(args[0], "entries"):
            return
        d = len(args[0])
        self.add("vectorize.kernel_flops", 2 * d)
        self.add("vectorize.kernel_bytes", 8 * (2 * d + 1))

    def _matches(self, args, kwargs, matches):
        self.add("similarity.match_count", len(matches))

    def _groups(self, args, kwargs, groups):
        self.add("template.groups", len(groups))

    def _coverage_rows(self, args, kwargs, report):
        self.add("rbs.coverage_rows", len(report.rows))

    def _report_bytes(self, args, kwargs, written):
        self.add("report.bytes", written)

    def _digest_bytes(self, args, kwargs, digest):
        self.add("report.digest_bytes", os.path.getsize(args[0]))

    def _items(self, args, kwargs, results):
        self.add("parallel.items", len(results))

    def hooks(self) -> dict:
        return {
            "load_corpus": self._rows,
            "load_word_vectors": self._backend_bytes,
            "load_sentence_vectors": self._backend_bytes,
            "embed_text": self._embedded,
            "cosine_table": self._kernel,
            "cosine": self._cosine,
            "match_registers": self._matches,
            "group_risks": self._groups,
            "coverage": self._coverage_rows,
            "emit_report": self._report_bytes,
            "file_digest": self._digest_bytes,
            "parallel_map": self._items,
        }

    def install(self) -> int:
        """Wrap every listed function wherever a riskbench module binds it."""
        hooks = self.hooks()
        replaced = 0
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "riskbench" or name.startswith("riskbench.")) and m is not None]
        for kind, table in ((self.coarse, COARSE), (self.counted, HOT)):
            for module_name, fn_name in table:
                original = getattr(sys.modules[f"riskbench.{module_name}"], fn_name)
                wrapper = kind(f"{module_name}.{fn_name}", original, hooks.get(fn_name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            replaced += 1
        return replaced

    def dump(self, path: str, **extra) -> None:
        counts = dict(self.counts)
        counts["vectorize.embed_distinct"] = len(self.embedded)
        payload = {"spans": self.spans, "hot": self.hot, "counts": counts, **extra}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# per-layer metric -> the spans (total duration) or hot functions it sums
SPAN_TIMES = {
    "corpus.load_s": ("corpus.load_corpus",),
    "vectorize.backend_load_s": ("vectorize.load_word_vectors", "vectorize.load_sentence_vectors"),
    "similarity.matrix_s": ("similarity.directional_mean_matrix",),
    "similarity.pooling_s": ("similarity.pooling_similarity",),
    "similarity.match_s": ("similarity.match_registers",),
    "similarity.evaluation_s": ("similarity.evaluation_level_report",),
    "similarity.docs_s": ("similarity.document_similarity",),
    "template.group_s": ("template.group_risks",),
    "template.evaluate_s": ("template.evaluate_template",),
    "rbs.coverage_s": ("rbs.coverage",),
    "lifecycle.ratios_s": ("lifecycle.corpus_ratios", "lifecycle.tabulated_ratios"),
    "report.serialize_s": ("report.canonical_json",),
    "parallel.map_s": ("parallel.parallel_map",),
}
HOT_TIMES = {
    "vectorize.embed_s": ("vectorize.embed_text",),
    "vectorize.kernel_s": ("vectorize.cosine_table", "vectorize.cosine_dense"),
    "vectorize.tfidf_s": ("vectorize.tfidf_vector", "vectorize.cosine_sparse"),
    "template.classify_s": ("template.classify_risk",),
    "lifecycle.styles_s": ("lifecycle.classify_style",),
    "report.digest_s": ("report.file_digest",),
}
HOT_CALLS = {
    "corpus.register_files": ("corpus.parse_register",),
    "corpus.normalize_calls": ("corpus.normalize_assessment",),
    "vectorize.embed_calls": ("vectorize.embed_text",),
    "vectorize.kernel_calls": ("vectorize.cosine_table", "vectorize.cosine_dense"),
    "vectorize.sparse_cosine_calls": ("vectorize.cosine_sparse",),
    "template.classify_calls": ("template.classify_risk",),
    "lifecycle.words": ("lifecycle.build_lifecycle",),
}
COUNTS = (
    "corpus.rows", "vectorize.backend_bytes", "vectorize.embed_distinct", "vectorize.oov_rows",
    "vectorize.kernel_flops", "vectorize.kernel_bytes", "similarity.match_count",
    "template.groups", "template.group_cells", "rbs.coverage_rows", "report.bytes",
    "report.digest_bytes", "parallel.items",
)


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass: sums over its commands' trace dumps.

    `cli.import_s` is the median import time of one process; ratios are
    taken over the sums.  A layer the pass never calls reads 0.
    """
    metrics = {name: 0.0 for name in (*SPAN_TIMES, *HOT_TIMES, "vectorize.tfidf_s",
                                      "cli.self_s")}
    metrics.update({name: 0 for name in (*HOT_CALLS, *COUNTS)})
    for trace in traces:
        spans = trace["spans"]
        totals: dict[str, float] = {}
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            totals[name] = totals.get(name, 0.0) + end - start
            if name == "cli.main":
                metrics["cli.self_s"] += own
        for metric, names in SPAN_TIMES.items():
            metrics[metric] += sum(totals.get(n, 0.0) for n in names)
        metrics["vectorize.tfidf_s"] += totals.get("vectorize.tfidf_fit", 0.0)
        for metric, names in HOT_TIMES.items():
            metrics[metric] += sum(trace["hot"].get(n, (0, 0.0))[1] for n in names)
        for metric, names in HOT_CALLS.items():
            metrics[metric] += sum(trace["hot"].get(n, (0, 0.0))[0] for n in names)
        for metric in COUNTS:
            metrics[metric] += trace["counts"].get(metric, 0)
    imports = sorted(t["import_s"] for t in traces)
    metrics["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    load = metrics["corpus.load_s"]
    metrics["corpus.rows_per_s"] = metrics["corpus.rows"] / load if load else 0.0
    calls = metrics["vectorize.embed_calls"]
    metrics["vectorize.embed_useful_ratio"] = (
        metrics["vectorize.embed_distinct"] / calls if calls else 0.0)
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <riskbench arguments>", file=sys.stderr)
        return 2
    out, cli_argv = argv[0], argv[2:]
    start = perf_counter()
    import riskbench.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    replaced = tracer.install()
    code = 1
    try:
        code = tracer.coarse("cli.main", riskbench.cli.main)(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(out, import_s=import_s, replaced=replaced,
                    module=riskbench.cli.__file__)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
