"""Command-line pipeline: validate -> collect -> embed -> score -> report -> correlate.

Runs are driven by a YAML config file (schema xlconsist-run/1) with every
value overridable by a flag; flags win. A single --seed feeds exemplar
sampling and the mock provider: `collect` records it in the store header,
and `score` records it as the report's `provider.seed`.

Every failure prints one `Error:` line. Exit codes: 0 ok, 1 for inputs and
toolkit errors (violations, missing data), 2 for flags and config.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .answers import ground_truth_answers, load_answers, store_columns
from .collection import (
    VARIANTS,
    CollectionConfig,
    QuestionTemplates,
    collect_answers,
    load_paraphrases,
)
from .consistency import (
    PROSE,
    FORMULA,
    ConsistencyReport,
    PairMatrix,
    ScoringConfig,
    build_report,
    correlate_matrices,
)
from .dataset import check_file, dataset_hash, load_dataset
from .embedding import Embedder, EmbeddingProviderConfig, VectorCache
from .errors import ConfigFileError, XlconsistError
from .forked import Forked
from .textmetrics import ChrfConfig

RUN_CONFIG_SCHEMA = "xlconsist-run/1"


def load_run_config(path: str | Path | None) -> dict:
    """The run config at `path` ({} without one). An empty section means
    its defaults; ConfigFileError when the file is not a config."""
    if path is None:
        return {}
    import yaml  # only a run given --config loads PyYAML

    try:
        with open(path, "rb") as handle:
            config = yaml.safe_load(handle) or {}
    except OSError as exc:
        raise ConfigFileError(f"{path}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        reason = " ".join(str(exc).split())  # PyYAML's message spans lines
        raise ConfigFileError(f"{path}: not a YAML run config ({reason})") from exc
    if not isinstance(config, dict):
        raise ConfigFileError(f"{path}: the top level is not a mapping")
    schema = config.get("schema", RUN_CONFIG_SCHEMA)
    if schema != RUN_CONFIG_SCHEMA:
        raise ConfigFileError(f"{path}: unsupported config schema {schema!r}")
    for section in ("provider", "collection", "chrf", "modes"):
        if not isinstance(config.get(section) or {}, dict):
            raise ConfigFileError(f"{path}: section {section!r} is not a mapping")
    return config


def _pick(flag_value, config, *keys, default=None):
    """Flag wins over config; config wins over default."""
    if flag_value is not None:
        return flag_value
    node = config
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node if node is not None else default


def _switch(flag_value, config, *keys, default: bool) -> bool:
    """A boolean setting read as `_pick` reads it; exit 2 unless a boolean."""
    value = _pick(flag_value, config, *keys, default=default)
    if not isinstance(value, bool):
        raise click.UsageError(f"{'.'.join(keys)} must be true or false, got {value!r}")
    return value


def _require_file(path, what: str) -> str:
    """Config-supplied paths get the same exit-2 treatment as flag paths."""
    if path is None or not Path(path).is_file():
        raise click.UsageError(f"{what} {path!r} does not exist")
    return str(path)


def _languages(flag_value, config) -> list[str] | None:
    """The --languages (or config) subset, or None; exit 2 unless a list of codes."""
    subset = _pick(flag_value, config, "languages")
    if isinstance(subset, str):
        subset = [code.strip() for code in subset.split(",") if code.strip()]
    if subset is not None and not (
        isinstance(subset, list) and all(isinstance(code, str) for code in subset)
    ):
        raise click.UsageError(f"languages must be a list of language codes, got {subset!r}")
    return subset or None


def _load_dataset(path, subset):
    """The dataset at `path`, cut to `subset` when one is given."""
    dataset = load_dataset(path)
    return dataset.subset(subset) if subset else dataset


def _seed(flag_value, config) -> int:
    """--seed, else the config's `seed:`, else 0; exit 2 when not an integer."""
    seed = _pick(flag_value, config, "seed", default=0)
    try:
        return int(seed)
    except (TypeError, ValueError):
        raise click.UsageError(f"seed must be an integer, got {seed!r}")


def _provider_config(config, kind, endpoint, dims, batch_size, seed) -> EmbeddingProviderConfig:
    try:
        return EmbeddingProviderConfig(
            kind=_pick(kind, config, "provider", "kind", default="mock"),
            endpoint=_pick(endpoint, config, "provider", "endpoint"),
            expected_dims=int(_pick(dims, config, "provider", "expected_dims", default=32)),
            batch_size=int(_pick(batch_size, config, "provider", "batch_size", default=64)),
            mock_seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))


def _open_cache(path) -> VectorCache:
    """The vector cache at `path`; exit 1 with one line when it cannot be used."""
    try:
        return VectorCache(path)
    except OSError as exc:
        raise click.ClickException(str(exc))


def _scoring_config(config, xtc_mode, tau, include_timeliness) -> ScoringConfig:
    try:
        return ScoringConfig(
            chrf=ChrfConfig(
                char_ngram_max=int(_pick(None, config, "chrf", "char_ngram_max", default=6)),
                word_ngram_max=int(_pick(None, config, "chrf", "word_ngram_max", default=2)),
                beta=float(_pick(None, config, "chrf", "beta", default=2.0)),
                case_fold=_switch(None, config, "chrf", "case_fold", default=False),
            ),
            xtc_mode=_pick(xtc_mode, config, "modes", "xtc_mode", default=PROSE),
            tau=float(_pick(tau, config, "modes", "tau", default=0.0)),
            include_timeliness=_switch(
                include_timeliness, config, "modes", "include_timeliness", default=False
            ),
        )
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))


class _Commands(click.Group):
    """The one place a toolkit error becomes one `Error:` line: exit 2 for
    a config file, 1 for anything else."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except XlconsistError as exc:
            error = click.ClickException(str(exc))
            error.exit_code = 2 if isinstance(exc, ConfigFileError) else 1
            raise error from exc


@click.group(cls=_Commands)
@click.version_option(__version__)
def cli():
    """Cross-lingual consistency scoring for LLM answers."""


@cli.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False))
def validate(dataset):
    """Check a dataset file; exit 0 only if it is fully aligned."""
    report, loaded = check_file(dataset)
    click.echo(report.render())
    if not report.ok:
        sys.exit(1)
    click.echo(f"languages: {', '.join(loaded.languages)}")
    for domain, count in loaded.domain_counts().items():
        click.echo(f"  {domain:<12} {count} QA items")
    if loaded.timeliness_items:
        click.echo(f"  {'timeliness':<12} {len(loaded.timeliness_items)} items")


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), help="run config YAML")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), help="dataset JSONL")
@click.option("--out", "store_path", type=click.Path(), help="answers store to write/resume")
@click.option("--endpoint", help="chat-completions endpoint URL")
@click.option("--model", help="model id sent to the endpoint")
@click.option("--shots", type=int, default=None, help="few-shot exemplars per request")
@click.option("--seed", type=int, default=None, help="seed for exemplar sampling")
@click.option("--variant", type=click.Choice(VARIANTS), default=None,
              help="prompt variant")
@click.option("--concurrency", type=int, default=None, help="max requests in flight")
@click.option("--rate-limit", type=float, default=None, help="client-side requests/sec cap")
@click.option("--languages", help="comma-separated language subset")
@click.option("--run-id", default=None, help="run identifier recorded in outputs")
@click.option("--paraphrases", "paraphrase_path", type=click.Path(exists=True),
              help="paraphrase file for variant p3")
@click.option("--templates", "template_path", type=click.Path(exists=True),
              help="question template file for variant p2")
@click.option("--retry-failed", is_flag=True, help="re-attempt cells that failed before")
def collect(config_path, dataset_path, store_path, endpoint, model, shots, seed, variant,
            concurrency, rate_limit, languages, run_id, paraphrase_path, template_path,
            retry_failed):
    """Collect model answers for every (language, item) cell."""
    config = load_run_config(config_path)
    dataset_path = _require_file(_pick(dataset_path, config, "dataset"), "dataset")
    store_path = _pick(store_path, config, "answers")
    if not store_path:
        raise click.UsageError("need --out (or a config providing answers:)")

    dataset = _load_dataset(dataset_path, _languages(languages, config))

    rate_limit = _pick(rate_limit, config, "collection", "rate_limit_rps")
    try:
        cfg = CollectionConfig(
            endpoint=_pick(endpoint, config, "collection", "endpoint"),
            model=_pick(model, config, "collection", "model", default="unknown"),
            shots=int(_pick(shots, config, "collection", "shots", default=5)),
            exemplar_seed=_seed(seed, config),
            prompt_variant=_pick(variant, config, "collection", "variant", default="p1"),
            temperature=float(_pick(None, config, "collection", "temperature", default=0.0)),
            decoding=dict(_pick(None, config, "collection", "decoding", default={})),
            concurrency=int(_pick(concurrency, config, "collection", "concurrency", default=4)),
            rate_limit_rps=None if rate_limit is None else float(rate_limit),
            max_attempts=int(_pick(None, config, "collection", "max_attempts", default=3)),
            timeout=float(_pick(None, config, "collection", "timeout", default=60.0)),
            token_env=_pick(None, config, "collection", "token_env", default="XLCONSIST_API_KEY"),
            cut_at_newline=_switch(None, config, "collection", "cut_at_newline", default=True),
        )
    except (TypeError, ValueError) as exc:
        raise click.UsageError(str(exc))
    if not cfg.endpoint:
        raise click.UsageError("need --endpoint (or collection.endpoint in the config)")

    templates = QuestionTemplates.load(template_path) if template_path else None
    paraphrases = load_paraphrases(paraphrase_path) if paraphrase_path else None

    done = {"count": 0}

    def progress(lang, item_id, status):
        done["count"] += 1
        if done["count"] % 25 == 0:
            click.echo(f"  {done['count']} cells done", err=True)

    answers, manifest = collect_answers(
        dataset,
        dataset.languages,
        cfg,
        store_path,
        run_id=_pick(run_id, config, "run_id", default="run"),
        dataset_digest=dataset_hash(dataset),
        templates=templates,
        paraphrases=paraphrases,
        retry_failed=retry_failed,
        progress=progress,
    )
    failed = sum(1 for status in answers.statuses.values() if status != "ok")
    click.echo(f"collected {len(answers.answers)} cells ({failed} failed) -> {store_path}")
    click.echo(f"manifest: {store_path}.manifest.json")
    click.echo(f"stats: {store_path}.stats.json")
    if failed:
        sys.exit(1)


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", "dataset_path", type=click.Path(exists=True))
@click.option("--answers", "answers_path", type=click.Path(exists=True), required=True)
@click.option("--cache", "cache_path", type=click.Path(), required=True,
              help="vector cache file to fill")
@click.option("--provider-kind", type=click.Choice(["http", "mock"]), default=None)
@click.option("--endpoint", help="embedding endpoint URL")
@click.option("--dims", type=int, default=None, help="expected embedding dimension")
@click.option("--batch-size", type=int, default=None)
@click.option("--seed", type=int, default=None)
def embed(config_path, dataset_path, answers_path, cache_path, provider_kind, endpoint,
          dims, batch_size, seed):
    """Prefetch embeddings for every answer into the cache (for offline scoring)."""
    config = load_run_config(config_path)
    dataset_path = _require_file(_pick(dataset_path, config, "dataset"), "dataset")
    dataset = load_dataset(dataset_path)
    answers = load_answers(answers_path)
    seed = _seed(seed, config)

    provider = _provider_config(config, provider_kind, endpoint, dims, batch_size, seed)
    if provider.kind == "cache-only":
        raise click.UsageError("embed needs a fetching provider (http or mock)")

    texts = sorted(
        {
            answers.answer(lang, item_id)
            for lang in dataset.languages
            for item_id in dataset.item_ids()
            if (lang, item_id) in answers.answers
        }
    )
    with _open_cache(cache_path) as cache:
        embedder = Embedder(provider, cache)
        try:
            embedder.embed_batch(texts)
        finally:
            embedder.close()
        click.echo(
            f"cache {cache_path}: {len(cache)} vectors "
            f"({embedder.fetched_texts} newly fetched)"
        )


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--dataset", "dataset_path", type=click.Path(exists=True))
@click.option("--answers", "answers_path", type=click.Path(exists=True))
@click.option("--ground-truth", is_flag=True,
              help="score the dataset's own answers (oracle ceiling run)")
@click.option("--out-dir", type=click.Path(), help="directory for report files")
@click.option("--cache", "cache_path", type=click.Path(), help="vector cache file")
@click.option("--provider-kind", type=click.Choice(["http", "cache-only", "mock"]), default=None)
@click.option("--endpoint", help="embedding endpoint URL")
@click.option("--dims", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--languages", help="comma-separated language subset")
@click.option("--seed", type=int, default=None)
@click.option("--xtc-mode", type=click.Choice([PROSE, FORMULA]), default=None)
@click.option("--tau", type=float, default=None, help="chrF floor below which timeliness scores 0")
@click.option("--include-timeliness", is_flag=True, default=None,
              help="include timeliness items in xSC/xAC")
def score(config_path, dataset_path, answers_path, ground_truth, out_dir, cache_path,
          provider_kind, endpoint, dims, batch_size, languages, seed, xtc_mode, tau,
          include_timeliness):
    """Compute xSC/xAC/xTC/xC and write the report files."""
    if ground_truth and answers_path is not None:
        raise click.UsageError("--ground-truth and --answers cannot be used together")
    config = load_run_config(config_path)
    dataset_path = _require_file(_pick(dataset_path, config, "dataset"), "dataset")
    out_dir = _pick(out_dir, config, "out_dir")
    answers_path = _pick(answers_path, config, "answers")
    cache_path = _pick(cache_path, config, "cache")
    if not out_dir:
        raise click.UsageError("need --out-dir (or a config providing it)")
    if not ground_truth:
        answers_path = _require_file(answers_path, "answers store")
    seed = _seed(seed, config)
    provider = _provider_config(config, provider_kind, endpoint, dims, batch_size, seed)
    scoring = _scoring_config(config, xtc_mode, tau, include_timeliness)
    subset = _languages(languages, config)

    # every setting is settled before anything is forked or written. The
    # store is parsed (in a child, when fork_cpus allows) while the dataset
    # is parsed and hashed here; their errors are raised in that order
    store = None if ground_truth else Forked(store_columns, answers_path)
    try:
        dataset = _load_dataset(dataset_path, subset)
        digest = dataset_hash(dataset)
        answers = ground_truth_answers(dataset) if ground_truth else store.result()
        cache = _open_cache(cache_path) if cache_path else VectorCache()
        embedder = Embedder(provider, cache)
        try:
            report = build_report(answers, dataset, embedder, scoring, dataset_hash=digest)
        finally:
            embedder.close()
            cache.close()
    finally:
        # reaped only here: a child that has sent its reply exits (and
        # unmaps its memory) while the report is built
        if store is not None:
            store.close()

    written = report.write_files(out_dir)
    click.echo(report.summary())
    click.echo("")
    for path in written:
        click.echo(f"wrote {path}")


@cli.command("report")
@click.argument("report_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv-dir", type=click.Path(), help="also (re)write matrix CSVs here")
def report_cmd(report_json, csv_dir):
    """Summarize an existing report JSON."""
    report = ConsistencyReport.from_json(report_json)
    click.echo(report.summary())
    if csv_dir:
        for path in report.write_files(csv_dir):
            click.echo(f"wrote {path}")


@cli.command()
@click.argument("report_json", type=click.Path(exists=True, dir_okay=False))
@click.argument("external_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--metric", type=click.Choice(["xsc", "xac", "xtc"]), default="xsc",
              help="which consistency matrix to correlate")
@click.option("--scatter-out", type=click.Path(), help="write per-language means CSV here")
def correlate(report_json, external_csv, metric, scatter_out):
    """Correlate a consistency matrix with an external per-pair score matrix."""
    report = ConsistencyReport.from_json(report_json)
    if metric not in report.matrices:
        raise click.ClickException(f"report has no {metric!r} matrix")
    external = PairMatrix.read_csv(external_csv)
    result = correlate_matrices(report.matrices[metric], external)
    click.echo(json.dumps(result.to_jsonable(), indent=1, sort_keys=True))
    if scatter_out:
        result.write_scatter_csv(scatter_out)
        click.echo(f"wrote {scatter_out}")


def main():
    cli(prog_name="xlconsist")


if __name__ == "__main__":
    main()
