"""The four consistency metrics over an aligned answer set.

xSC: mean pairwise cosine of embedded answers to the same item.
xAC: mean pairwise Spearman correlation of per-item chrF accuracy vectors.
xTC: like xAC over recency-weighted scores on the timeliness subset.
xC:  harmonic mean of the three (0 when any component is non-positive).

Every pairwise function here is symmetric, so each unordered language
pair is computed once; the mean over ordered pairs (the defining form)
is identical and is asserted so in the tests. Scalar aggregation uses
math.fsum over pairs ordered by language code, which makes scores
bit-identical under any permutation of the dataset's language order.

xAC and xTC score one chrF batch ("job") per language. `build_report`
splits those jobs into one share per CPU in the affinity mask (at most one
per job), scores each share in a forked child (`forked.Forked`) while it
computes xSC, and puts the scores back in job order; each job's scores
are the same wherever it runs, so the report does not depend on the
worker count.
"""

from __future__ import annotations

import csv
import gc
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .answers import HEADER_FIELDS, AnswerSet
from .dataset import Dataset, dataset_hash as digest_of
from .errors import InsufficientDataError, LanguageMismatchError, ReportFormatError
from .forked import Forked, fork_cpus
from .textmetrics import (
    ChrfConfig,
    DEFAULT_CHRF,
    chrf_batch,
    pearson,
    rank_correlation,
    rank_deviations,
    spearman,
)

REPORT_SCHEMA = "xlconsist-report/1"

PROSE = "prose"
FORMULA = "formula"


@dataclass(frozen=True)
class ScoringConfig:
    """The settings of every metric, checked once here: the chrF settings
    (xAC, xTC), whether the timeliness items join the QA items in xSC and
    xAC, and xTC's recency weighting (`xtc_mode`, and the floor `tau`)."""

    chrf: ChrfConfig = DEFAULT_CHRF
    xtc_mode: str = PROSE
    tau: float = 0.0
    include_timeliness: bool = False

    def __post_init__(self):
        if self.xtc_mode not in (PROSE, FORMULA):
            raise ValueError(f"xtc_mode must be {PROSE!r} or {FORMULA!r}, got {self.xtc_mode!r}")
        if not 0.0 <= self.tau <= 1.0:  # also refuses NaN
            raise ValueError(f"tau must be within [0, 1], got {self.tau!r}")


DEFAULT_SCORING = ScoringConfig()


@dataclass
class PairMatrix:
    """L x L symmetric matrix of per-language-pair values, diagonal unset."""

    languages: tuple[str, ...]
    values: np.ndarray
    degenerate: np.ndarray = None

    def __post_init__(self):
        """ValueError for a language code given twice, or a `values` or
        `degenerate` array that is not L x L."""
        self.languages = tuple(self.languages)
        twice = sorted({code for code in self.languages if self.languages.count(code) > 1})
        if twice:
            raise ValueError(f"duplicate language codes {twice}")
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (len(self.languages), len(self.languages))
        if self.degenerate is None:
            self.degenerate = np.zeros(expected, dtype=bool)
        self.degenerate = np.asarray(self.degenerate, dtype=bool)
        for name, array in (("matrix", self.values), ("degenerate", self.degenerate)):
            if array.shape != expected:
                raise ValueError(f"{name} shape {array.shape} != {expected}")

    def cell(self, lang_i: str, lang_j: str) -> float:
        i = self.languages.index(lang_i)
        j = self.languages.index(lang_j)
        return float(self.values[i, j])

    @staticmethod
    def index_pairs(languages) -> list[tuple[int, int]]:
        """Unordered index pairs (i, j) in language-code order, the canonical
        summation order of every pairwise aggregate."""
        indexed = sorted((code, i) for i, code in enumerate(languages))
        return [
            (indexed[a][1], indexed[b][1])
            for a in range(len(indexed))
            for b in range(a + 1, len(indexed))
        ]

    def mean_offdiagonal(self) -> float:
        cells = [float(self.values[i, j]) for i, j in self.index_pairs(self.languages)]
        return math.fsum(cells) / len(cells)

    def degenerate_count(self) -> int:
        return sum(1 for i, j in self.index_pairs(self.languages) if self.degenerate[i, j])

    def row_means(self) -> dict[str, float]:
        """Per-language mean over that language's off-diagonal cells."""
        out = {}
        for i, code in enumerate(self.languages):
            cells = [float(self.values[i, j]) for j in range(len(self.languages)) if j != i]
            out[code] = math.fsum(cells) / len(cells)
        return out

    def to_jsonable(self) -> dict:
        raw = []
        for i in range(len(self.languages)):
            row = []
            for j in range(len(self.languages)):
                row.append(None if i == j else float(self.values[i, j]))
            raw.append(row)
        return {
            "languages": list(self.languages),
            "values": raw,
            "degenerate": self.degenerate.astype(int).tolist(),
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "PairMatrix":
        """The matrix of `to_jsonable`'s document; ValueError when its rows
        do not make one L x L matrix."""
        rows = [[np.nan if cell is None else float(cell) for cell in row] for row in data["values"]]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("matrix rows differ in length")
        return cls(data["languages"], rows, data.get("degenerate"))

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["lang", *self.languages])
            for i, code in enumerate(self.languages):
                row = [code]
                for j in range(len(self.languages)):
                    if i == j or not np.isfinite(self.values[i, j]):
                        row.append("")
                    else:
                        row.append(repr(float(self.values[i, j])))
                writer.writerow(row)

    @classmethod
    def read_csv(cls, path: str | Path) -> "PairMatrix":
        try:
            with open(path, encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))
        except ValueError as exc:  # not UTF-8
            raise ReportFormatError(f"{path}: not a UTF-8 CSV ({exc})") from exc
        if not rows or len(rows[0]) < 2:
            raise ReportFormatError(f"{path}: not a pair-matrix CSV")
        languages = tuple(rows[0][1:])
        size = len(languages)
        values = np.full((size, size), np.nan)
        if len(rows) - 1 != size:
            raise ReportFormatError(f"{path}: expected {size} rows, found {len(rows) - 1}")
        for i, row in enumerate(rows[1:]):
            if len(row) != size + 1:
                raise ReportFormatError(
                    f"{path}: row {i + 2} has {len(row) - 1} cells, expected {size}"
                )
            if row[0] != languages[i]:
                raise LanguageMismatchError(
                    f"{path}: row {i + 2} is {row[0]!r}, expected {languages[i]!r}"
                )
            for j, cell in enumerate(row[1:]):
                try:
                    values[i, j] = float(cell) if cell.strip() else np.nan
                except ValueError:
                    raise ReportFormatError(
                        f"{path}: row {i + 2}, column {j + 2}: {cell!r} is not a number"
                    ) from None
        try:
            return cls(languages, values)
        except ValueError as exc:
            raise ReportFormatError(f"{path}: {exc}") from None


def _select_items(dataset: Dataset, scoring: ScoringConfig):
    """(QA items, timeliness items) that xSC and xAC score: every QA item,
    then the timeliness items when included."""
    return dataset.qa_items, dataset.timeliness_items if scoring.include_timeliness else ()


def _item_ids(*groups) -> list[str]:
    return [item.id for group in groups for item in group]


@dataclass
class MetricResult:
    score: float
    matrix: PairMatrix
    # xSC only: per-item cosines, one row per PairMatrix.index_pairs pair,
    # one column per scored item (QA items first, in dataset order)
    item_cosines: np.ndarray | None = None

    @property
    def degenerate_pairs(self) -> int:
        return self.matrix.degenerate_count()


def xsc(
    answers: AnswerSet,
    dataset: Dataset,
    embedder,
    scoring: ScoringConfig = DEFAULT_SCORING,
) -> MetricResult:
    """Cross-lingual semantic consistency: mean pairwise answer cosine.

    Of `scoring` it reads `include_timeliness` (score the timeliness items
    after the QA items). `answers` is read through its `columns` method
    only."""
    languages = dataset.languages
    if len(languages) < 2:
        raise InsufficientDataError("xsc needs at least 2 languages")
    item_ids = _item_ids(*_select_items(dataset, scoring))
    if not item_ids:
        raise InsufficientDataError("no items selected for xsc")
    return _xsc(languages, answers.columns(languages, item_ids), embedder)


def _xsc(languages, columns, embedder) -> MetricResult:
    """xSC of each language's answers, one column per language over the
    same items."""
    n_items = len(columns[0])
    # each distinct answer is embedded once, in first-seen order; rows[i, k]
    # is the row of language i's answer to item k
    row_of = {text: row for row, text in enumerate(dict.fromkeys(chain.from_iterable(columns)))}
    rows = np.array([list(map(row_of.__getitem__, column)) for column in columns], dtype=np.intp)
    # embed_batch returns a fresh array, so its rows are normalized in place
    unit = np.asarray(embedder.embed_batch(list(row_of)), dtype=np.float64)
    norms = np.sqrt((unit * unit).sum(axis=1))
    unit /= np.where(norms > 0, norms, 1.0)[:, None]
    pairs = PairMatrix.index_pairs(languages)
    cosines = np.empty((len(pairs), n_items))
    # a block of items at a time, so that every language's vectors for the
    # block (about 1 MiB) stay in cache while all pairs read them
    block = max(1, (1 << 20) // (len(languages) * unit.shape[1] * unit.itemsize))
    for start in range(0, n_items, block):
        vectors = unit[rows[:, start : start + block]]
        for row, (i, j) in enumerate(pairs):
            cosines[row, start : start + block] = (vectors[i] * vectors[j]).sum(axis=1)
    matrix = _cosine_matrix(languages, cosines, np.ones(n_items, dtype=bool))
    return MetricResult(matrix.mean_offdiagonal(), matrix, cosines)


def _cosine_matrix(languages, cosines: np.ndarray, items: np.ndarray) -> PairMatrix:
    """xSC pair matrix over the items (columns of `cosines`) that `items` selects."""
    size = len(languages)
    values = np.full((size, size), np.nan)
    count = int(items.sum())
    for (i, j), sims in zip(PairMatrix.index_pairs(languages), cosines):
        values[i, j] = values[j, i] = math.fsum(sims[items].tolist()) / count
    return PairMatrix(languages, values)


def _score_share(jobs, cfg: ChrfConfig) -> list[list[float]]:
    """chrF of each job's (hypotheses, references) pairs."""
    return [chrf_batch(hypotheses, references, cfg) for hypotheses, references in jobs]


def _accuracy_jobs(answers: AnswerSet, dataset: Dataset, scoring: ScoringConfig):
    """(each language's answers to the items xac scores, one chrF job per
    language), checked as xac checks them. A job scores each answer (a
    column over the qa items, then the timeliness items) against its
    own-language truth; a timeliness item's truth is its newest candidate."""
    languages = dataset.languages
    if len(languages) < 2:
        raise InsufficientDataError("xac needs at least 2 languages")
    qa, timeliness = _select_items(dataset, scoring)
    columns = answers.columns(languages, _item_ids(qa, timeliness))
    count = len(qa) + len(timeliness)
    if count < 2:
        raise InsufficientDataError(f"xac needs at least 2 items, got {count}")
    jobs = [
        (
            column,
            [item.answers[lang] for item in qa] + [item.candidates[lang][0] for item in timeliness],
        )
        for lang, column in zip(languages, columns)
    ]
    return columns, jobs


def accuracy_vectors(
    answers: AnswerSet, dataset: Dataset, scoring: ScoringConfig = DEFAULT_SCORING
) -> dict[str, np.ndarray]:
    """Per-language chrF (`scoring.chrf`) of each answer against its
    own-language ground truth, over the items that `scoring.include_timeliness`
    selects."""
    _, jobs = _accuracy_jobs(answers, dataset, scoring)
    return _accuracy_vectors(dataset, _score_share(jobs, scoring.chrf))


def _accuracy_vectors(dataset: Dataset, scores) -> dict[str, np.ndarray]:
    return {lang: np.array(row) for lang, row in zip(dataset.languages, scores)}


def _rank_correlation_matrix(languages, vectors) -> PairMatrix:
    """Spearman of every language pair; each language's vector is ranked once."""
    size = len(languages)
    values = np.full((size, size), np.nan)
    degenerate = np.zeros((size, size), dtype=bool)
    ranked = [rank_deviations(vectors[lang]) for lang in languages]
    for i, j in PairMatrix.index_pairs(languages):
        result = rank_correlation(ranked[i], ranked[j])
        values[i, j] = values[j, i] = result.value
        degenerate[i, j] = degenerate[j, i] = result.degenerate
    return PairMatrix(languages, values, degenerate)


def _rank_result(languages, vectors) -> MetricResult:
    matrix = _rank_correlation_matrix(languages, vectors)
    return MetricResult(matrix.mean_offdiagonal(), matrix)


def xac(
    answers: AnswerSet, dataset: Dataset, scoring: ScoringConfig = DEFAULT_SCORING
) -> MetricResult:
    """Cross-lingual accuracy consistency: Spearman of accuracy vectors.

    Of `scoring` it reads `chrf` and `include_timeliness`, as
    `accuracy_vectors` does. Degenerate pairs (a constant accuracy vector
    on either side) score 0 and stay in the denominator; their count is
    carried on the matrix.
    """
    vectors = accuracy_vectors(answers, dataset, scoring)
    return _rank_result(dataset.languages, vectors)


def timeliness_score(
    answer: str, candidates, scoring: ScoringConfig = DEFAULT_SCORING
) -> float:
    """Recency-weighted match against candidates ordered newest-first.

    chrF is `scoring.chrf`. `scoring.xtc_mode` prose (default): chrF of the
    best-matching candidate divided by its rank (ties go to the newest).
    formula: best chrF divided by the number of candidates, kept for
    faithfulness audits. A best chrF below `scoring.tau` scores zero.
    """
    candidates = list(candidates)
    scores = chrf_batch([answer] * len(candidates), candidates, scoring.chrf)
    return _recency_weighted(scores, scoring)


def _recency_weighted(scores: list[float], scoring: ScoringConfig) -> float:
    """One item's timeliness score from its candidates' chrF, newest first."""
    if not scores:
        raise ValueError("timeliness_score needs a nonempty candidate list")
    best = max(scores)
    if best < scoring.tau or best == 0.0:
        return 0.0
    if scoring.xtc_mode == FORMULA:
        return best / len(scores)
    rank = scores.index(best) + 1
    return best / rank


def _timeliness_jobs(answers: AnswerSet, dataset: Dataset):
    """One chrF job per language, checked as xtc checks them: each answer
    (a column over the timeliness items) against every candidate of its
    item."""
    languages, items = dataset.languages, dataset.timeliness_items
    if len(languages) < 2:
        raise InsufficientDataError("xtc needs at least 2 languages")
    if len(items) < 2:
        raise InsufficientDataError(f"xtc needs at least 2 timeliness items, got {len(items)}")
    jobs = []
    for lang, column in zip(languages, answers.columns(languages, _item_ids(items))):
        hypotheses, references = [], []
        for item, answer in zip(items, column):
            candidates = item.candidates[lang]
            hypotheses += [answer] * len(candidates)
            references += candidates
        jobs.append((hypotheses, references))
    return jobs


def timeliness_vectors(
    answers: AnswerSet, dataset: Dataset, scoring: ScoringConfig = DEFAULT_SCORING
) -> dict[str, np.ndarray]:
    """Per-language timeliness score (`timeliness_score` under `scoring`) of
    each timeliness item; one chrF batch per language over every (answer,
    candidate) pair."""
    jobs = _timeliness_jobs(answers, dataset)
    return _timeliness_vectors(dataset, _score_share(jobs, scoring.chrf), scoring)


def _timeliness_vectors(dataset: Dataset, scores, scoring: ScoringConfig) -> dict[str, np.ndarray]:
    """Each language's job scores, cut into items, as recency-weighted scores."""
    vectors = {}
    for lang, row in zip(dataset.languages, scores):
        values, start = [], 0
        for item in dataset.timeliness_items:
            end = start + len(item.candidates[lang])
            values.append(_recency_weighted(row[start:end], scoring))
            start = end
        vectors[lang] = np.array(values)
    return vectors


def xtc(
    answers: AnswerSet, dataset: Dataset, scoring: ScoringConfig = DEFAULT_SCORING
) -> MetricResult:
    """Cross-lingual timeliness consistency over the timeliness subset.

    Of `scoring` it reads `chrf`, `xtc_mode` and `tau`, as
    `timeliness_vectors` does; `include_timeliness` does not apply."""
    vectors = timeliness_vectors(answers, dataset, scoring)
    return _rank_result(dataset.languages, vectors)


def _score_jobs(jobs, cfg: ChrfConfig, meanwhile):
    """(chrF scores of every job, meanwhile()'s result).

    The jobs are split into one share per CPU that `fork_cpus` counts, at
    most one per job; share w scores jobs[w::n], in a forked child while
    meanwhile() runs here (inline, after it, without workers). The jobs
    reach the children through fork, without pickling, and a child's
    exception is raised here.
    """
    workers = min(fork_cpus(), len(jobs))
    n = max(1, workers)
    # frozen, the loaded corpus is skipped by this process's collections
    # until the workers are reaped, so none walks it (and copies its pages
    # after the fork) while they run. gc.unfreeze is process-wide, so a
    # pass whose caller has frozen objects itself neither freezes nor
    # unfreezes
    freeze = workers > 0 and gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    shares = []
    try:
        for w in range(n):
            shares.append(Forked(_score_share, jobs[w::n], cfg))
        result = meanwhile()
        scores = [None] * len(jobs)
        for w, share in enumerate(shares):
            scores[w::n] = share.result()
        return scores, result
    finally:
        for share in shares:
            share.close()
        if freeze:
            gc.unfreeze()


def xc(xsc_value: float, xac_value: float, xtc_value: float) -> float:
    """Harmonic mean of the three scores; 0 when any is non-positive."""
    value, _ = xc_detailed(xsc_value, xac_value, xtc_value)
    return value


def xc_detailed(xsc_value: float, xac_value: float, xtc_value: float) -> tuple[float, bool]:
    if min(xsc_value, xac_value, xtc_value) <= 0.0:
        return 0.0, True
    return 3.0 / (1.0 / xsc_value + 1.0 / xac_value + 1.0 / xtc_value), False


def domain_breakdown(answers: AnswerSet, dataset: Dataset, embedder) -> dict[str, float]:
    """xSC restricted to each domain's items."""
    return _domain_table(dataset, xsc(answers, dataset, embedder).item_cosines)


def _domain_table(dataset: Dataset, item_cosines: np.ndarray) -> dict[str, float]:
    """Per-domain xSC reduced from xsc's per-item cosines (QA items first)."""
    qa_cosines = item_cosines[:, : dataset.n_qa]
    item_domains = np.array([item.domain for item in dataset.qa_items])
    breakdown = {}
    for domain in dataset.domains():
        matrix = _cosine_matrix(dataset.languages, qa_cosines, item_domains == domain)
        breakdown[domain] = matrix.mean_offdiagonal()
    return breakdown


@dataclass
class MatrixCorrelation:
    pearson: float
    spearman: float
    n_pairs: int
    per_language: list[tuple[str, float, float]]  # code, consistency mean, external mean

    def to_jsonable(self) -> dict:
        return {
            "pearson": self.pearson,
            "spearman": self.spearman,
            "n_pairs": self.n_pairs,
            "per_language": [
                {"lang": code, "consistency_mean": a, "external_mean": b}
                for code, a, b in self.per_language
            ],
        }

    def write_scatter_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["lang", "consistency_mean", "external_mean"])
            for code, a, b in self.per_language:
                writer.writerow([code, repr(a), repr(b)])


def correlate_matrices(consistency: PairMatrix, external: PairMatrix) -> MatrixCorrelation:
    """Correlate off-diagonal cells of a consistency matrix with an external
    per-language-pair score matrix (e.g. translation quality per direction).

    The external matrix may be asymmetric, so ordered cells are used; cells
    missing from either side are dropped. Also emits per-language row means
    as scatter data.
    """
    ours = set(consistency.languages)
    theirs = set(external.languages)
    if ours != theirs:
        only_ours = sorted(ours - theirs)
        only_theirs = sorted(theirs - ours)
        raise LanguageMismatchError(
            f"language sets differ: consistency-only={only_ours}, external-only={only_theirs}"
        )

    codes = sorted(ours)
    cons_cells = []
    ext_cells = []
    for code_i in codes:
        for code_j in codes:
            if code_i == code_j:
                continue
            a = consistency.cell(code_i, code_j)
            b = external.cell(code_i, code_j)
            if np.isfinite(a) and np.isfinite(b):
                cons_cells.append(a)
                ext_cells.append(b)
    if len(cons_cells) < 2:
        raise InsufficientDataError("fewer than 2 common off-diagonal cells")

    cons_means = consistency.row_means()
    ext_means = external.row_means()
    per_language = [(code, cons_means[code], ext_means[code]) for code in codes]
    return MatrixCorrelation(
        pearson=pearson(cons_cells, ext_cells),
        spearman=spearman(cons_cells, ext_cells),
        n_pairs=len(cons_cells),
        per_language=per_language,
    )


def _table(data: dict, key: str, kinds, what: str) -> dict:
    """`data[key]` ({} when absent), an object whose values are `kinds` and
    not bools; else ValueError naming the key."""
    table = data.get(key, {})
    if not isinstance(table, dict):
        raise ValueError(f"{key!r} is not an object")
    for name, value in table.items():
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{key!r} value {name!r} is not {what}")
    return table


@dataclass
class ConsistencyReport:
    xsc: float
    xac: float
    xtc: float
    xc: float
    xc_degenerate: bool
    matrices: dict[str, PairMatrix]
    domain_xsc: dict[str, float]
    degenerate_pairs: dict[str, int]
    provenance: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "metrics": {
                "xsc": self.xsc,
                "xac": self.xac,
                "xtc": self.xtc,
                "xc": self.xc,
                "xc_degenerate": self.xc_degenerate,
            },
            "degenerate_pairs": self.degenerate_pairs,
            "domains": self.domain_xsc,
            "matrices": {name: matrix.to_jsonable() for name, matrix in self.matrices.items()},
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), ensure_ascii=False, sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, path: str | Path) -> "ConsistencyReport":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ReportFormatError(f"{path}: not UTF-8 JSON ({exc})") from exc
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != REPORT_SCHEMA:
            raise ReportFormatError(f"{path}: expected schema {REPORT_SCHEMA!r}, got {schema!r}")
        try:
            metrics = data["metrics"]
            for key in ("xsc", "xac", "xtc", "xc"):
                if isinstance(metrics[key], bool) or not isinstance(metrics[key], (int, float)):
                    raise ValueError(f"metric {key!r} is not a number")
            if not isinstance(metrics["xc_degenerate"], bool):
                raise ValueError("metric 'xc_degenerate' is not a boolean")
            provenance = data.get("provenance", {})
            if not isinstance(provenance, dict):
                raise ValueError("'provenance' is not an object")
            return cls(
                xsc=metrics["xsc"],
                xac=metrics["xac"],
                xtc=metrics["xtc"],
                xc=metrics["xc"],
                xc_degenerate=metrics["xc_degenerate"],
                matrices={
                    name: PairMatrix.from_jsonable(m) for name, m in data["matrices"].items()
                },
                domain_xsc=_table(data, "domains", (int, float), "a number"),
                degenerate_pairs=_table(data, "degenerate_pairs", int, "an integer"),
                provenance=provenance,
            )
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ReportFormatError(f"{path}: malformed report: {reason}") from exc

    def write_files(self, out_dir: str | Path) -> list[Path]:
        """report.json plus one CSV per matrix and the per-domain table."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        report_path = out_dir / "report.json"
        report_path.write_text(self.to_json(), encoding="utf-8")
        written.append(report_path)
        for name, matrix in self.matrices.items():
            path = out_dir / f"{name}_matrix.csv"
            matrix.write_csv(path)
            written.append(path)
        domains_path = out_dir / "domains.csv"
        with open(domains_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["domain", "xsc"])
            for domain, value in self.domain_xsc.items():
                writer.writerow([domain, repr(value)])
        written.append(domains_path)
        return written

    def summary(self) -> str:
        lines = [
            f"xSC: {self.xsc:.4f}",
            f"xAC: {self.xac:.4f} ({self.degenerate_pairs.get('xac', 0)} degenerate pairs)",
            f"xTC: {self.xtc:.4f} ({self.degenerate_pairs.get('xtc', 0)} degenerate pairs)",
            f"xC:  {self.xc:.4f}" + (" [degenerate]" if self.xc_degenerate else ""),
            "",
            "xSC by domain:",
        ]
        for domain, value in self.domain_xsc.items():
            lines.append(f"  {domain:<12} {value:.4f}")
        if self.provenance:
            lines.append("")
            lines.append("provenance:")
            for key in sorted(self.provenance):
                lines.append(f"  {key}: {self.provenance[key]}")
        return "\n".join(lines)


def build_report(
    answers: AnswerSet,
    dataset: Dataset,
    embedder,
    scoring: ScoringConfig = DEFAULT_SCORING,
    *,
    dataset_hash: str | None = None,
) -> ConsistencyReport:
    """Full scoring pass: all four metrics, matrices, per-domain table.

    The xAC and xTC chrF jobs run in worker processes while xSC runs here
    (see `_score_jobs`); xSC and xAC score the same items, so xSC reads
    the answers that xAC looked up. `answers` is read through its header
    fields and `columns` only; its header goes under the provenance's
    "answers". `dataset_hash` defaults to the scored dataset's digest."""
    languages = dataset.languages
    scored, jobs = _accuracy_jobs(answers, dataset, scoring)
    jobs += _timeliness_jobs(answers, dataset)

    scores, semantic = _score_jobs(jobs, scoring.chrf, lambda: _xsc(languages, scored, embedder))
    split = len(languages)
    accuracy = _rank_result(languages, _accuracy_vectors(dataset, scores[:split]))
    timeliness = _rank_result(languages, _timeliness_vectors(dataset, scores[split:], scoring))
    combined, degenerate = xc_detailed(semantic.score, accuracy.score, timeliness.score)
    breakdown = _domain_table(dataset, semantic.item_cosines)

    provenance = {
        "answers": {key: getattr(answers, key) for key in HEADER_FIELDS},
        "dataset_hash": dataset_hash or digest_of(dataset),
        "languages": list(languages),
        "n_qa_items": dataset.n_qa,
        "n_timeliness_items": len(dataset.timeliness_items),
        "provider": embedder.describe(),
        "chrf": asdict(scoring.chrf),
        "xtc_mode": scoring.xtc_mode,
        "tau": scoring.tau,
        "include_timeliness_in_xsc_xac": scoring.include_timeliness,
        "toolkit_version": __version__,
    }

    return ConsistencyReport(
        xsc=semantic.score,
        xac=accuracy.score,
        xtc=timeliness.score,
        xc=combined,
        xc_degenerate=degenerate,
        matrices={"xsc": semantic.matrix, "xac": accuracy.matrix, "xtc": timeliness.matrix},
        domain_xsc=breakdown,
        degenerate_pairs={"xac": accuracy.degenerate_pairs, "xtc": timeliness.degenerate_pairs},
        provenance=provenance,
    )
