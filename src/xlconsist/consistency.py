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
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .answers import AnswerSet
from .dataset import Dataset
from .errors import LanguageMismatchError
from .textmetrics import ChrfConfig, DEFAULT_CHRF, chrf_batch, pearson, spearman, spearman_detailed

log = logging.getLogger(__name__)

REPORT_SCHEMA = "xlconsist-report/1"

PROSE = "prose"
FORMULA = "formula"


@dataclass
class PairMatrix:
    """L x L symmetric matrix of per-language-pair values, diagonal unset."""

    languages: tuple[str, ...]
    values: np.ndarray
    degenerate: np.ndarray = None

    def __post_init__(self):
        self.languages = tuple(self.languages)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.degenerate is None:
            self.degenerate = np.zeros(self.values.shape, dtype=bool)
        expected = (len(self.languages), len(self.languages))
        if self.values.shape != expected:
            raise ValueError(f"matrix shape {self.values.shape} != {expected}")

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

    def unordered_pairs(self):
        """(code_i, code_j, value, degenerate) per pair, sorted by codes."""
        for i, j in self.index_pairs(self.languages):
            yield (
                self.languages[i],
                self.languages[j],
                float(self.values[i, j]),
                bool(self.degenerate[i, j]),
            )

    def mean_offdiagonal(self) -> float:
        cells = [value for _, _, value, _ in self.unordered_pairs()]
        return math.fsum(cells) / len(cells)

    def degenerate_count(self) -> int:
        return sum(1 for _, _, _, flag in self.unordered_pairs() if flag)

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
        languages = tuple(data["languages"])
        size = len(languages)
        values = np.full((size, size), np.nan)
        for i, row in enumerate(data["values"]):
            for j, cell in enumerate(row):
                if cell is not None:
                    values[i, j] = float(cell)
        degenerate = np.asarray(data.get("degenerate", np.zeros((size, size))), dtype=bool)
        return cls(languages, values, degenerate)

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
        with open(path, encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if not rows or len(rows[0]) < 2:
            raise ValueError(f"{path}: not a pair-matrix CSV")
        languages = tuple(rows[0][1:])
        size = len(languages)
        values = np.full((size, size), np.nan)
        if len(rows) - 1 != size:
            raise ValueError(f"{path}: expected {size} rows, found {len(rows) - 1}")
        for i, row in enumerate(rows[1:]):
            if row[0] != languages[i]:
                raise LanguageMismatchError(
                    f"{path}: row {i + 2} is {row[0]!r}, expected {languages[i]!r}"
                )
            for j, cell in enumerate(row[1:]):
                if cell.strip():
                    values[i, j] = float(cell)
        return cls(languages, values)


def _select_items(dataset: Dataset, domains=None, include_timeliness=False):
    items = list(dataset.qa_items)
    if domains is not None:
        wanted = set(domains)
        items = [item for item in items if item.domain in wanted]
    entries = [(item.id, {lang: item.answers[lang] for lang in dataset.languages}) for item in items]
    if include_timeliness:
        entries.extend(
            (item.id, {lang: item.candidates[lang][0] for lang in dataset.languages})
            for item in dataset.timeliness_items
        )
    return entries


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
    *,
    domains=None,
    include_timeliness: bool = False,
) -> MetricResult:
    """Cross-lingual semantic consistency: mean pairwise answer cosine."""
    languages = dataset.languages
    if len(languages) < 2:
        raise ValueError("xsc needs at least 2 languages")
    entries = _select_items(dataset, domains, include_timeliness)
    if not entries:
        raise ValueError("no items selected for xsc")
    item_ids = [item_id for item_id, _ in entries]
    answers.check_coverage(languages, item_ids)

    # one embedding matrix per language, rows pre-normalized
    normalized = {}
    for lang in languages:
        matrix = embedder.embed_batch([answers.answer(lang, item_id) for item_id in item_ids])
        norms = np.sqrt((matrix * matrix).sum(axis=1))
        safe = np.where(norms > 0, norms, 1.0)
        normalized[lang] = matrix / safe[:, None]
    pairs = PairMatrix.index_pairs(languages)
    cosines = np.empty((len(pairs), len(item_ids)))
    for row, (i, j) in enumerate(pairs):
        cosines[row] = (normalized[languages[i]] * normalized[languages[j]]).sum(axis=1)
    matrix = _cosine_matrix(languages, cosines, np.ones(len(item_ids), dtype=bool))
    return MetricResult(matrix.mean_offdiagonal(), matrix, cosines)


def _cosine_matrix(languages, cosines: np.ndarray, items: np.ndarray) -> PairMatrix:
    """xSC pair matrix over the items (columns of `cosines`) that `items` selects."""
    size = len(languages)
    values = np.full((size, size), np.nan)
    count = int(items.sum())
    for (i, j), sims in zip(PairMatrix.index_pairs(languages), cosines):
        values[i, j] = values[j, i] = math.fsum(sims[items].tolist()) / count
    return PairMatrix(languages, values)


def accuracy_vectors(
    answers: AnswerSet,
    dataset: Dataset,
    chrf_cfg: ChrfConfig = DEFAULT_CHRF,
    *,
    domains=None,
    include_timeliness: bool = False,
) -> dict[str, np.ndarray]:
    """Per-language chrF of each answer against its own-language ground truth."""
    entries = _select_items(dataset, domains, include_timeliness)
    item_ids = [item_id for item_id, _ in entries]
    answers.check_coverage(dataset.languages, item_ids)
    vectors = {}
    for lang in dataset.languages:
        vectors[lang] = np.array(
            chrf_batch(
                [answers.answer(lang, item_id) for item_id, _ in entries],
                [truth[lang] for _, truth in entries],
                chrf_cfg,
            )
        )
    return vectors


def _rank_correlation_matrix(languages, vectors) -> PairMatrix:
    size = len(languages)
    values = np.full((size, size), np.nan)
    degenerate = np.zeros((size, size), dtype=bool)
    for i, j in PairMatrix.index_pairs(languages):
        result = spearman_detailed(vectors[languages[i]], vectors[languages[j]])
        values[i, j] = values[j, i] = result.value
        degenerate[i, j] = degenerate[j, i] = result.degenerate
    return PairMatrix(languages, values, degenerate)


def xac(
    answers: AnswerSet,
    dataset: Dataset,
    chrf_cfg: ChrfConfig = DEFAULT_CHRF,
    *,
    domains=None,
    include_timeliness: bool = False,
) -> MetricResult:
    """Cross-lingual accuracy consistency: Spearman of accuracy vectors.

    Degenerate pairs (a constant accuracy vector on either side) score 0
    and stay in the denominator; their count is carried on the matrix.
    """
    if len(dataset.languages) < 2:
        raise ValueError("xac needs at least 2 languages")
    vectors = accuracy_vectors(
        answers, dataset, chrf_cfg, domains=domains, include_timeliness=include_timeliness
    )
    length = len(next(iter(vectors.values())))
    if length < 2:
        raise ValueError(f"xac needs at least 2 items, got {length}")
    matrix = _rank_correlation_matrix(dataset.languages, vectors)
    return MetricResult(matrix.mean_offdiagonal(), matrix)


def timeliness_score(
    answer: str,
    candidates,
    chrf_cfg: ChrfConfig = DEFAULT_CHRF,
    mode: str = PROSE,
    tau: float = 0.0,
) -> float:
    """Recency-weighted match against candidates ordered newest-first.

    prose mode (default): chrF of the best-matching candidate divided by
    its rank (ties go to the newest). formula mode: best chrF divided by
    the number of candidates, kept for faithfulness audits. Scores below
    tau are floored to zero.
    """
    candidates = list(candidates)
    scores = chrf_batch([answer] * len(candidates), candidates, chrf_cfg)
    return _recency_weighted(scores, mode, tau)


def _recency_weighted(scores: list[float], mode: str, tau: float) -> float:
    """One item's timeliness score from its candidates' chrF, newest first."""
    if not scores:
        raise ValueError("timeliness_score needs a nonempty candidate list")
    if mode not in (PROSE, FORMULA):
        raise ValueError(f"unknown mode {mode!r}")
    best = max(scores)
    if best < tau or best == 0.0:
        return 0.0
    if mode == FORMULA:
        return best / len(scores)
    rank = scores.index(best) + 1
    return best / rank


def timeliness_vectors(
    answers: AnswerSet,
    dataset: Dataset,
    chrf_cfg: ChrfConfig = DEFAULT_CHRF,
    mode: str = PROSE,
    tau: float = 0.0,
) -> dict[str, np.ndarray]:
    """Per-language timeliness score of each timeliness item; one chrF
    batch per language over every (answer, candidate) pair."""
    items = dataset.timeliness_items
    answers.check_coverage(dataset.languages, [item.id for item in items])
    vectors = {}
    for lang in dataset.languages:
        hypotheses, references, ends = [], [], []
        for item in items:
            answer = answers.answer(lang, item.id)
            for candidate in item.candidates[lang]:
                hypotheses.append(answer)
                references.append(candidate)
            ends.append(len(references))
        scores = chrf_batch(hypotheses, references, chrf_cfg)
        starts = [0] + ends[:-1]
        vectors[lang] = np.array(
            [_recency_weighted(scores[start:end], mode, tau) for start, end in zip(starts, ends)]
        )
    return vectors


def xtc(
    answers: AnswerSet,
    dataset: Dataset,
    chrf_cfg: ChrfConfig = DEFAULT_CHRF,
    *,
    mode: str = PROSE,
    tau: float = 0.0,
) -> MetricResult:
    """Cross-lingual timeliness consistency over the timeliness subset."""
    if len(dataset.languages) < 2:
        raise ValueError("xtc needs at least 2 languages")
    if len(dataset.timeliness_items) < 2:
        raise ValueError(
            f"xtc needs at least 2 timeliness items, got {len(dataset.timeliness_items)}"
        )
    vectors = timeliness_vectors(answers, dataset, chrf_cfg, mode, tau)
    matrix = _rank_correlation_matrix(dataset.languages, vectors)
    return MetricResult(matrix.mean_offdiagonal(), matrix)


def xc(xsc_value: float, xac_value: float, xtc_value: float) -> float:
    """Harmonic mean of the three scores; 0 when any is non-positive."""
    value, _ = xc_detailed(xsc_value, xac_value, xtc_value)
    return value


def xc_detailed(xsc_value: float, xac_value: float, xtc_value: float) -> tuple[float, bool]:
    if min(xsc_value, xac_value, xtc_value) <= 0.0:
        return 0.0, True
    return 3.0 / (1.0 / xsc_value + 1.0 / xac_value + 1.0 / xtc_value), False


def domain_breakdown(
    answers: AnswerSet,
    dataset: Dataset,
    embedder,
    *,
    domains=None,
) -> dict[str, float]:
    """xSC restricted to each domain's items."""
    return _domain_table(dataset, xsc(answers, dataset, embedder).item_cosines, domains)


def _domain_table(dataset: Dataset, item_cosines: np.ndarray, domains=None) -> dict[str, float]:
    """Per-domain xSC reduced from xsc's per-item cosines (QA items first)."""
    qa_cosines = item_cosines[:, : dataset.n_qa]
    item_domains = np.array([item.domain for item in dataset.qa_items])
    breakdown = {}
    for domain in domains if domains is not None else dataset.domains():
        selected = item_domains == domain
        if not selected.any():
            log.warning("domain %r has no items; omitted from breakdown", domain)
            continue
        matrix = _cosine_matrix(dataset.languages, qa_cosines, selected)
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
        raise ValueError("fewer than 2 common off-diagonal cells")

    cons_means = consistency.row_means()
    ext_means = external.row_means()
    per_language = [(code, cons_means[code], ext_means[code]) for code in codes]
    return MatrixCorrelation(
        pearson=pearson(cons_cells, ext_cells),
        spearman=spearman(cons_cells, ext_cells),
        n_pairs=len(cons_cells),
        per_language=per_language,
    )


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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("schema") != REPORT_SCHEMA:
            raise ValueError(f"expected schema {REPORT_SCHEMA!r}, got {data.get('schema')!r}")
        metrics = data["metrics"]
        return cls(
            xsc=metrics["xsc"],
            xac=metrics["xac"],
            xtc=metrics["xtc"],
            xc=metrics["xc"],
            xc_degenerate=metrics["xc_degenerate"],
            matrices={
                name: PairMatrix.from_jsonable(m) for name, m in data["matrices"].items()
            },
            domain_xsc=data.get("domains", {}),
            degenerate_pairs=data.get("degenerate_pairs", {}),
            provenance=data.get("provenance", {}),
        )

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
    chrf_cfg: ChrfConfig = DEFAULT_CHRF,
    *,
    xtc_mode: str = PROSE,
    tau: float = 0.0,
    include_timeliness: bool = False,
    provenance: dict | None = None,
) -> ConsistencyReport:
    """Full scoring pass: all four metrics, matrices, per-domain table."""
    semantic = xsc(answers, dataset, embedder, include_timeliness=include_timeliness)
    accuracy = xac(answers, dataset, chrf_cfg, include_timeliness=include_timeliness)
    timeliness = xtc(answers, dataset, chrf_cfg, mode=xtc_mode, tau=tau)
    combined, degenerate = xc_detailed(semantic.score, accuracy.score, timeliness.score)
    breakdown = _domain_table(dataset, semantic.item_cosines)

    meta = {
        "run_id": answers.run_id,
        "model_id": answers.model_id,
        "prompt_variant": answers.prompt_variant,
        "seed": answers.seed,
        "dataset_hash": answers.dataset_hash,
        "languages": list(dataset.languages),
        "n_qa_items": dataset.n_qa,
        "n_timeliness_items": len(dataset.timeliness_items),
        "provider": embedder.describe(),
        "chrf": {
            "char_ngram_max": chrf_cfg.char_ngram_max,
            "word_ngram_max": chrf_cfg.word_ngram_max,
            "beta": chrf_cfg.beta,
            "case_fold": chrf_cfg.case_fold,
        },
        "xtc_mode": xtc_mode,
        "tau": tau,
        "include_timeliness_in_xsc_xac": include_timeliness,
    }
    if provenance:
        meta.update(provenance)

    return ConsistencyReport(
        xsc=semantic.score,
        xac=accuracy.score,
        xtc=timeliness.score,
        xc=combined,
        xc_degenerate=degenerate,
        matrices={"xsc": semantic.matrix, "xac": accuracy.matrix, "xtc": timeliness.matrix},
        domain_xsc=breakdown,
        degenerate_pairs={"xac": accuracy.degenerate_pairs, "xtc": timeliness.degenerate_pairs},
        provenance=meta,
    )
