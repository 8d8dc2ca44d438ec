"""riskbench command line: ingest, similarity, template, lifecycle, rbs.

Exit codes: 0 success, 1 validation error, 2 usage error. Reports embed
the analytic configuration and input digests; output destinations are not
echoed so reruns over identical inputs stay byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import __version__
from .corpus import (
    Corpus,
    ProjectRecord,
    default_scale_config,
    load_corpus,
    load_register,
    load_scale_config,
)
from .errors import EmptyReportError, LifecycleError, ParseError, RiskbenchError
from .lifecycle import (
    StyleThresholds,
    classify_style,
    corpus_ratios,
    hotelling_t2,
    read_lifecycle_csv,
    tabulated_ratios,
)
from .parallel import parallel_map
from .rbs import (
    DEFAULT_COVERAGE_THRESHOLD,
    cooccurrence,
    coverage,
    default_rbs,
    load_covered_texts,
    load_rbs,
    summarize_coverage,
)
from .report import emit_report, file_digest, write_csv, write_heatmap_csv
from .resources import data_path, read_json_checked
from .similarity import (
    EVALUATION_THRESHOLDS,
    document_similarity,
    evaluation_level_report,
    match_registers,
    pooling_similarity,
    risk_level_summary,
)
from .template import (
    DEFAULT_LABEL_THRESHOLD,
    DEFAULT_MATCH_THRESHOLD,
    SORT_KEYS,
    build_template,
    classify_risk,
    evaluate_template,
    filter_projects,
    group_risks,
    load_categories,
    load_template,
    parse_filter,
)
from .vectorize import EmbeddingBackend, load_sentence_vectors, load_stopwords, load_word_vectors


# Each loader records the digest of every file it reads in `digests`, which
# becomes the report's "inputs" map.


def _corpus(args, digests: dict, scales: str | None = None) -> Corpus:
    config = load_scale_config(scales) if scales else default_scale_config()
    corpus = load_corpus(args.manifest, config)
    digests.update(corpus.digests)
    if scales:
        digests["scales"] = file_digest(scales)
    return corpus


def _stop_words(args, digests: dict) -> frozenset[str]:
    path = args.stopwords or data_path("stopwords_en.txt")
    stop_words = load_stopwords(path)
    digests["stopwords"] = file_digest(path)
    return stop_words


def _backend(args, digests: dict) -> EmbeddingBackend:
    """The sentence table with the word vectors as its fallback, or either alone."""
    stop_words = _stop_words(args, digests)
    word = load_word_vectors(args.embeddings, stop_words) if args.embeddings else None
    if word is not None:
        digests["embeddings"] = word.digest
    if args.sentence_embeddings:
        sentence = load_sentence_vectors(args.sentence_embeddings)
        digests["sentence_embeddings"] = sentence.digest
        return replace(sentence, fallback=word)
    if word is None:
        raise RiskbenchError(
            "an embedding backend is required: pass --embeddings or --sentence-embeddings"
        )
    return word


# ---------------------------------------------------------------- ingest


def _cmd_ingest(args, digests):
    corpus = _corpus(args, digests, args.scales)
    projects = []
    total = 0
    for project in corpus.projects:
        sizes = [len(s.items) for s in project.snapshots]
        total += sum(sizes)
        projects.append(
            {
                "id": project.project_id,
                "delivery_method": project.delivery_method,
                "project_type": project.project_type,
                "size_band": project.size_band.value,
                "snapshots": len(project.snapshots),
                "risks_per_snapshot": sizes,
            }
        )
    return {}, {"project_count": len(corpus.projects), "total_rows": total, "projects": projects}


# ------------------------------------------------------------ similarity


def _similarity_config(mode: str, group_by=None, threshold=None, use_description=False) -> dict:
    return {
        "mode": mode,
        "group_by": group_by,
        "threshold": threshold,
        "use_description": use_description,
    }


def _cmd_similarity_docs(args, digests):
    corpus = _corpus(args, digests)
    stop_words = _stop_words(args, digests)
    result = document_similarity(corpus, stop_words=stop_words, group_by=args.group_by)
    if args.heatmap:
        pairs = result["pairs"]
        matrix = [[1.0] * len(pairs.labels) for _ in pairs.labels]
        for a, b, score in zip(pairs.source_rows.tolist(), pairs.target_rows.tolist(),
                               pairs.scores.tolist()):
            matrix[a][b] = matrix[b][a] = score
        write_heatmap_csv(args.heatmap, pairs.labels, pairs.labels, matrix)
    return _similarity_config("docs", args.group_by), result


def _cmd_similarity_risks(args, digests):
    corpus = _corpus(args, digests)
    backend = _backend(args, digests)
    result = risk_level_summary(corpus, backend, args.use_description, args.group_by)
    if args.heatmap:
        ids = result["projects"]
        write_heatmap_csv(args.heatmap, ids, ids, result["directional_mean_matrix"])
    config = _similarity_config("risks", args.group_by, use_description=args.use_description)
    return config, result


def _cmd_similarity_pooling(args, digests):
    corpus = _corpus(args, digests)
    backend = _backend(args, digests)
    result = pooling_similarity(corpus, backend, args.use_description)
    return _similarity_config("pooling", use_description=args.use_description), result


def _cmd_similarity_evaluation(args, digests):
    corpus = _corpus(args, digests, args.scales)
    backend = _backend(args, digests)
    base = args.threshold
    thresholds = sorted({base} | {t for t in EVALUATION_THRESHOLDS if t >= base})
    matches = match_registers(corpus, backend, min_score=base, use_description=args.use_description)
    result = evaluation_level_report(matches, corpus, thresholds, args.group_by)
    config = _similarity_config("evaluation", args.group_by, base, args.use_description)
    return config, result


# -------------------------------------------------------------- template


def _cmd_template_build(args, digests):
    corpus = _corpus(args, digests, args.scales)
    backend = _backend(args, digests)
    criteria = parse_filter(args.filter)
    selected = filter_projects(corpus, criteria)
    if not selected:
        raise EmptyReportError("the filter selected zero projects")
    categories_path = args.categories or data_path("wsdot_categories.json")
    categories = load_categories(categories_path)
    digests["categories"] = file_digest(categories_path)
    groups = group_risks(selected, backend, args.match_threshold, args.use_description)
    template = build_template(groups, args.sort, args.top, criteria, len(selected))
    result = template.to_dict()
    labels = classify_risk([entry.text for entry in template.entries], categories, backend)
    for entry, label in zip(result["entries"], labels):
        entry["category"] = label.label
    result["group_count"] = len(groups)
    config = {
        "filter": criteria.describe(),
        "sort": args.sort,
        "top": args.top,
        "match_threshold": args.match_threshold,
        "use_description": args.use_description,
    }
    return config, result


def _cmd_template_eval(args, digests):
    backend = _backend(args, digests)
    template = load_template(args.template)
    digests["template"] = file_digest(args.template)
    register = load_register(args.register)
    digests["register"] = file_digest(args.register)
    counts = evaluate_template(template, register, backend, args.label_threshold)
    return {"label_threshold": args.label_threshold}, counts.to_dict()


# -------------------------------------------------------------- lifecycle


def _lifecycle_tables(args, digests):
    """Per-project and pooled ratios, and the config naming their source."""
    if args.lifecycle_csv:
        path = Path(args.lifecycle_csv)
        if not path.exists():
            raise RiskbenchError(f"lifecycle csv not found: {path}")
        observations = read_lifecycle_csv(path.read_bytes(), source=str(path))
        digests["lifecycle_csv"] = file_digest(path)
        try:
            return *tabulated_ratios(observations), {"source": "lifecycle_csv"}
        except LifecycleError as exc:
            raise LifecycleError(f"{path}: {exc}") from exc
    if args.manifest:
        return *corpus_ratios(_corpus(args, digests)), {"source": "manifest"}
    raise RiskbenchError("pass --manifest or --lifecycle-csv")


def _cmd_lifecycle_ratios(args, digests):
    per_project, pooled, config = _lifecycle_tables(args, digests)
    result = {
        "projects": [
            {"project_id": project_id, **ratios.to_dict()}
            for project_id, ratios in per_project.items()
        ],
        "pooled": pooled.to_dict(),
    }
    return config, result


def _cmd_lifecycle_styles(args, digests):
    per_project, pooled, config = _lifecycle_tables(args, digests)
    thresholds = StyleThresholds()
    if args.thresholds:
        names = [f.name for f in fields(StyleThresholds)]
        raw = read_json_checked(args.thresholds, "thresholds file",
                                {f"{name}?": float for name in names})
        for key in raw:
            if key not in names:
                raise ParseError(f"{args.thresholds}: unknown key {key!r} "
                                 f"(expected {' or '.join(map(repr, names))})")
        thresholds = StyleThresholds(**raw)
        digests["thresholds"] = file_digest(args.thresholds)
    rows = []
    groups: dict[str, list[str]] = {}
    for project_id, ratios in per_project.items():
        label = classify_style(ratios, thresholds)
        if label is None:
            style = "unclassifiable"
            groups.setdefault("unclassifiable", []).append(project_id)
        else:
            style = f"{label.axis2} {label.axis1}"
            groups.setdefault(label.axis1, []).append(project_id)
        rows.append({"project_id": project_id, "style": style, **ratios.to_dict()})
    config["thresholds"] = asdict(thresholds)
    return config, {"projects": rows, "groups": groups, "pooled": pooled.to_dict()}


def _cmd_lifecycle_compare(args, digests):
    path = args.groups
    raw = read_json_checked(path, "groups file",
                            {"groups": {str: [str]}, "metrics": {str: {str: float}}})
    digests["groups"] = file_digest(path)
    groups, metrics = raw["groups"], raw["metrics"]
    if len(groups) != 2:
        raise ParseError(f"{path}: groups file must hold exactly two 'groups' lists of project "
                         "ids and a 'metrics' table")
    names = sorted(groups)
    dims = [m.strip() for m in args.metric.split(",") if m.strip()]
    if not dims:
        raise RiskbenchError("pass at least one metric name")

    def points(name: str):
        rows = []
        for project_id in groups[name]:
            entry = metrics.get(project_id)
            if entry is None:
                raise ParseError(f"{path}: no metrics object for project {project_id!r}")
            try:
                rows.append([float(entry[dim]) for dim in dims])
            except KeyError as exc:
                raise ParseError(f"{path}: project {project_id!r} is missing metric {exc}") from exc
        return rows

    outcome = hotelling_t2(points(names[0]), points(names[1]), alpha=args.alpha)
    result = {"groups": names, "metrics": dims, **asdict(outcome)}
    return {"metric": args.metric, "alpha": args.alpha}, result


# -------------------------------------------------------------------- rbs


def _cmd_rbs_coverage(args, digests):
    corpus = _corpus(args, digests, args.scales)
    backend = _backend(args, digests)
    rbs = load_rbs(args.rbs) if args.rbs else default_rbs()
    digests["rbs"] = file_digest(args.rbs or data_path("rbs_table21.json"))

    def one(project):
        return coverage(rbs, project.register, backend, threshold=args.threshold,
                        project_id=project.project_id)

    reports = parallel_map(one, list(corpus.projects), args.jobs)
    return {"threshold": args.threshold}, summarize_coverage(rbs, reports, args.threshold)


def _cmd_rbs_cooccur(args, digests) -> None:
    covered = load_covered_texts(args.coverage)
    rbs = load_rbs(args.rbs) if args.rbs else default_rbs()
    rows = cooccurrence(covered, rbs)
    write_csv(args.out, [("item_a", "item_b", "count"), *rows])


# ------------------------------------------------------------------ main


# --group-by takes a ProjectRecord field; "" groups nothing
_GROUP_BY = dict(
    choices=("", *(f.name for f in fields(ProjectRecord) if f.name != "snapshots")),
    metavar="FIELD",
    help="project field to group by",
)


def _bounded(low: float, high: float, closed: bool):
    """argparse type: a finite float in [low, high] (closed) or (low, high)."""
    interval = f"[{low:g}, {high:g}]" if closed else f"({low:g}, {high:g})"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        # nan fails both comparisons
        if not (low <= value <= high if closed else low < value < high):
            raise argparse.ArgumentTypeError(
                f"expected a finite number in {interval}, not {text!r}"
            )
        return value

    return parse


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, in decimal digits."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return int(text)


_COSINE = _bounded(-1.0, 1.0, closed=True)
_ALPHA = _bounded(0.0, 1.0, closed=False)


def _add_common(parser, manifest=True, scales=False, lifecycle_csv=False, stopwords=False,
                backend=False):
    if manifest:
        parser.add_argument("--manifest", required=not lifecycle_csv, help="corpus manifest JSON")
    if scales:  # only where a report reads a band or a qualitative level
        parser.add_argument("--scales", help="scale config JSON (band edges, risk matrix)")
    if lifecycle_csv:
        parser.add_argument("--lifecycle-csv", help="pre-tabulated risk state CSV")
    if backend:
        parser.add_argument("--embeddings", help="word-vector file (word_average backend)")
        parser.add_argument("--sentence-embeddings", help="JSON-Lines precomputed sentence vectors")
    if stopwords or backend:
        parser.add_argument("--stopwords", help="stop-word list, one per line")
    parser.add_argument("--out", required=True, help="report output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="riskbench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"riskbench {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="load and validate a corpus")
    _add_common(ingest, scales=True)
    ingest.set_defaults(func=_cmd_ingest)

    similarity = commands.add_parser("similarity", help="three-level similarity analysis")
    modes = similarity.add_subparsers(dest="mode", required=True)

    docs = modes.add_parser("docs", help="document-level TF-IDF cosine")
    _add_common(docs, stopwords=True)
    docs.add_argument("--group-by", default="delivery_method", **_GROUP_BY)
    docs.add_argument("--heatmap", help="write a project-by-project score CSV")
    docs.set_defaults(func=_cmd_similarity_docs)

    risks = modes.add_parser("risks", help="risk-level embedding matching")
    _add_common(risks, backend=True)
    risks.add_argument("--group-by", default="delivery_method", **_GROUP_BY)
    risks.add_argument("--use-description", action="store_true")
    risks.add_argument("--heatmap", help="write the directional mean matrix CSV")
    risks.set_defaults(func=_cmd_similarity_risks)

    pooling = modes.add_parser("pooling", help="match risks against pooled projects")
    _add_common(pooling, backend=True)
    pooling.add_argument("--use-description", action="store_true")
    pooling.set_defaults(func=_cmd_similarity_pooling)

    evaluation = modes.add_parser("evaluation", help="assessment similarity of matches")
    _add_common(evaluation, scales=True, backend=True)
    evaluation.add_argument("--group-by", **_GROUP_BY)
    evaluation.add_argument(
        "--threshold", type=_COSINE, default=0.5, help="minimum cosine for a match to count"
    )
    evaluation.add_argument("--use-description", action="store_true")
    evaluation.set_defaults(func=_cmd_similarity_evaluation)

    template = commands.add_parser("template", help="build and score risk templates")
    template_modes = template.add_subparsers(dest="mode", required=True)

    build = template_modes.add_parser("build", help="generate a ranked risk template")
    _add_common(build, scales=True, backend=True)
    build.add_argument("--filter", default="", help="e.g. type=Highway,size=over_1B")
    build.add_argument("--sort", default="prevalence", choices=SORT_KEYS)
    build.add_argument("--top", type=_positive_int, default=30)
    build.add_argument("--categories", help="category set JSON (default: bundled)")
    build.add_argument("--match-threshold", type=_COSINE, default=DEFAULT_MATCH_THRESHOLD)
    build.add_argument("--use-description", action="store_true")
    build.set_defaults(func=_cmd_template_build)

    evaluate = template_modes.add_parser("eval", help="score a template against a register")
    _add_common(evaluate, manifest=False, backend=True)
    evaluate.add_argument("--template", required=True)
    evaluate.add_argument("--register", required=True)
    evaluate.add_argument("--label-threshold", type=_COSINE, default=DEFAULT_LABEL_THRESHOLD)
    evaluate.set_defaults(func=_cmd_template_eval)

    lifecycle = commands.add_parser("lifecycle", help="risk lifecycle ratios and styles")
    lifecycle_modes = lifecycle.add_subparsers(dest="mode", required=True)

    ratios = lifecycle_modes.add_parser("ratios", help="per-project and pooled ratios")
    _add_common(ratios, lifecycle_csv=True)
    ratios.set_defaults(func=_cmd_lifecycle_ratios)

    styles = lifecycle_modes.add_parser("styles", help="classify management styles")
    _add_common(styles, lifecycle_csv=True)
    styles.add_argument("--thresholds", help="style threshold JSON")
    styles.set_defaults(func=_cmd_lifecycle_styles)

    compare = lifecycle_modes.add_parser("compare", help="Hotelling T^2 between two groups")
    _add_common(compare, manifest=False)
    compare.add_argument("--groups", required=True, help="groups + metrics JSON")
    compare.add_argument(
        "--metric", default="cost_growth,time_growth", help="comma-separated metric names"
    )
    compare.add_argument("--alpha", type=_ALPHA, default=0.05)
    compare.set_defaults(func=_cmd_lifecycle_compare)

    rbs = commands.add_parser("rbs", help="risk breakdown structure coverage")
    rbs_modes = rbs.add_subparsers(dest="mode", required=True)

    cover = rbs_modes.add_parser("coverage", help="semantic coverage of registers")
    _add_common(cover, scales=True, backend=True)
    cover.add_argument("--jobs", type=_positive_int, default=1, help="worker parallelism bound")
    cover.add_argument("--rbs", help="RBS JSON (default: bundled)")
    cover.add_argument("--threshold", type=_COSINE, default=DEFAULT_COVERAGE_THRESHOLD)
    cover.set_defaults(func=_cmd_rbs_coverage)

    cooccur = rbs_modes.add_parser("cooccur", help="item co-occurrence pairs CSV")
    cooccur.add_argument("--coverage", required=True, help="coverage report JSON")
    cooccur.add_argument("--rbs", help="RBS JSON (default: bundled)")
    cooccur.add_argument("--out", required=True)
    cooccur.set_defaults(func=_cmd_rbs_cooccur)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    digests: dict[str, str] = {}
    try:
        report = args.func(args, digests)
        if report is not None:
            config, result = report
            words = ("riskbench", args.command, getattr(args, "mode", None))
            emit_report({"command": " ".join(filter(None, words)), "config": config,
                         "version": __version__, "inputs": digests, "result": result}, args.out)
    except (RiskbenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
