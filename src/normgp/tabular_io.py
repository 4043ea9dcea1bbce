"""Cohort, score-table, and model-artifact persistence.

All files are plain text. Cohorts and score tables are comma-delimited
with a mandatory header; the model artifact is a versioned, line-oriented
document (first line ``normative-gp-model v1``). Every real number is
serialized with 17 significant digits so round-trips are value-exact, and
every writer goes through an atomic temp-file-plus-rename.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import secrets
from dataclasses import dataclass

import numpy as np

from . import gpr
from .errors import CohortParseError, ModelFormatError, ModelIntegrityError, SchemaError
from .kernels import FORMS, KernelParams
from .preprocess import PcaTransform, Standardizer

FORMAT_VERSION = 1
_MODEL_MAGIC = "normative-gp-model"
SCORES_HEADER = ("id", "age", "diagnosis", "y_hat", "epsilon", "cov", "cov_w")
SEX_CODES = {"F": 0.0, "M": 1.0}
# Column roles of a cohort CSV; every other column is a numeric feature. The
# diagnosis is recognized under either name, and a file may hold only one.
_AGE_COLUMN = "age"
_ID_COLUMN = "id"
_SEX_COLUMN = "sex"
_DIAGNOSIS_COLUMNS = ("dx", "diagnosis")


def _fmt(value: float) -> str:
    """Serialize a float with enough digits to round-trip exactly."""
    return format(float(value), ".17g")


def _atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` through a uniquely named temp file beside it.

    Two writers of one path never share a temp file, so the path always
    holds one writer's complete text. On any error the temp file is removed
    and ``path`` is left as it was.
    """
    path = os.fspath(path)
    # Exclusive creation of a random name, rather than tempfile.mkstemp, so
    # the output keeps the umask's permissions instead of mode 0600.
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    handle = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Cohort:
    """A tabular dataset of subjects, one row each."""

    subject_ids: tuple[str, ...]
    features: np.ndarray
    feature_names: tuple[str, ...]
    age: np.ndarray
    sex: tuple[str, ...] | None = None
    diagnosis: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        object.__setattr__(self, "features", features)
        age = np.asarray(self.age, dtype=float).reshape(-1)
        object.__setattr__(self, "age", age)
        n = len(self.subject_ids)
        if features.shape[0] != n or age.shape[0] != n:
            raise ValueError("subject_ids, features and age must have equal row counts")
        if len(self.feature_names) != features.shape[1]:
            raise ValueError("feature_names length must match the feature column count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature_names must be unique")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if age.size and (not np.all(np.isfinite(age)) or np.any(age <= 0.0)):
            raise ValueError("age must be finite and strictly positive")
        for name in ("sex", "diagnosis"):
            value = getattr(self, name)
            if value is not None:
                value = tuple(value)
                object.__setattr__(self, name, value)
                if len(value) != n:
                    raise ValueError(f"{name} length must match the subject count")

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)

    def require_feature_names(self, expected: tuple[str, ...] | None) -> None:
        """Raise SchemaError unless the feature columns are ``expected`` (None: any)."""
        if expected is not None and self.feature_names != tuple(expected):
            raise SchemaError(
                f"cohort feature names {list(self.feature_names)} do not match "
                f"the model's {list(expected)}"
            )


def load_cohort(path) -> Cohort:
    """Load a cohort CSV, validating every cell.

    Any unparsable, empty, or non-finite value raises a parse error naming
    the row (1-based physical line, header is row 1) and column — values
    are never imputed.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]
    if any(not name for name in header):
        raise SchemaError(f"{path}: header has an unnamed column")
    seen = set()
    for name in header:
        if name in seen:
            raise SchemaError(f"{path}: duplicate column {name!r}")
        seen.add(name)
    if _AGE_COLUMN not in header:
        raise SchemaError(f"{path}: required column {_AGE_COLUMN!r} is missing")

    role_columns = {_AGE_COLUMN, _ID_COLUMN, _SEX_COLUMN, *_DIAGNOSIS_COLUMNS}
    feature_names = [name for name in header if name not in role_columns]
    if not feature_names:
        raise SchemaError(f"{path}: no feature columns")

    index = {name: header.index(name) for name in header}
    has_id = _ID_COLUMN in header
    has_sex = _SEX_COLUMN in header
    dx_columns = [name for name in _DIAGNOSIS_COLUMNS if name in header]
    if len(dx_columns) > 1:
        raise SchemaError(
            f"{path}: columns {dx_columns[0]!r} and {dx_columns[1]!r} both name the "
            "diagnosis; keep one"
        )
    has_dx = bool(dx_columns)

    def cell(parts: list[str], name: str, row_num: int) -> str:
        value = parts[index[name]].strip()
        if not value:
            raise CohortParseError(f"{path}: row {row_num}, column {name!r}: empty value")
        return value

    def numeric(parts: list[str], name: str, row_num: int) -> float:
        raw = cell(parts, name, row_num)
        try:
            value = float(raw)
        except ValueError:
            raise CohortParseError(
                f"{path}: row {row_num}, column {name!r}: not a number: {raw!r}"
            ) from None
        if not math.isfinite(value):
            raise CohortParseError(
                f"{path}: row {row_num}, column {name!r}: non-finite value {raw!r}"
            )
        return value

    ids: list[str] = []
    ages: list[float] = []
    sexes: list[str] = []
    diagnoses: list[str] = []
    features: list[list[float]] = []
    for offset, parts in enumerate(rows[1:]):
        row_num = offset + 2
        if len(parts) != len(header):
            raise CohortParseError(
                f"{path}: row {row_num}: expected {len(header)} fields, got {len(parts)}"
            )
        age = numeric(parts, _AGE_COLUMN, row_num)
        if age <= 0.0:
            raise CohortParseError(
                f"{path}: row {row_num}, column {_AGE_COLUMN!r}: "
                f"age must be strictly positive, got {age}"
            )
        ages.append(age)
        ids.append(cell(parts, _ID_COLUMN, row_num) if has_id else str(offset))
        if has_sex:
            sex = cell(parts, _SEX_COLUMN, row_num)
            if sex not in SEX_CODES:
                raise CohortParseError(
                    f"{path}: row {row_num}, column {_SEX_COLUMN!r}: "
                    f"expected F or M, got {sex!r}"
                )
            sexes.append(sex)
        if has_dx:
            diagnoses.append(cell(parts, dx_columns[0], row_num))
        features.append([numeric(parts, name, row_num) for name in feature_names])

    matrix = np.asarray(features, dtype=float) if features else np.empty((0, len(feature_names)))
    return Cohort(
        subject_ids=tuple(ids),
        features=matrix,
        feature_names=tuple(feature_names),
        age=np.asarray(ages, dtype=float),
        sex=tuple(sexes) if has_sex else None,
        diagnosis=tuple(diagnoses) if has_dx else None,
    )


def save_cohort(cohort: Cohort, path) -> None:
    """Write a cohort CSV readable by ``load_cohort``."""
    header = [_ID_COLUMN, _AGE_COLUMN]
    if cohort.sex is not None:
        header.append(_SEX_COLUMN)
    if cohort.diagnosis is not None:
        header.append(_DIAGNOSIS_COLUMNS[0])
    header.extend(cohort.feature_names)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for i in range(cohort.n_subjects):
        row = [cohort.subject_ids[i], _fmt(cohort.age[i])]
        if cohort.sex is not None:
            row.append(cohort.sex[i])
        if cohort.diagnosis is not None:
            row.append(cohort.diagnosis[i])
        row.extend(_fmt(v) for v in cohort.features[i])
        writer.writerow(row)
    _atomic_write_text(path, buffer.getvalue())


def sex_to_indicator(sex: tuple[str, ...]) -> np.ndarray:
    """Encode sex labels numerically: F -> 0, M -> 1."""
    try:
        return np.asarray([SEX_CODES[s] for s in sex], dtype=float)
    except KeyError as exc:
        raise ValueError(f"unknown sex label {exc.args[0]!r}") from None


@dataclass(frozen=True)
class ScoresTable:
    """Per-subject abnormality scores, one row per subject."""

    subject_ids: tuple[str, ...]
    age: np.ndarray
    diagnosis: tuple[str, ...]
    y_hat: np.ndarray
    epsilon: np.ndarray
    cov: np.ndarray
    cov_w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        object.__setattr__(self, "diagnosis", tuple(self.diagnosis))
        n = len(self.subject_ids)
        if len(self.diagnosis) != n:
            raise ValueError("diagnosis length must match the subject count")
        for name in ("age", "y_hat", "epsilon", "cov", "cov_w"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if arr.shape[0] != n:
                raise ValueError(f"{name} length must match the subject count")
            object.__setattr__(self, name, arr)

    @property
    def n_subjects(self) -> int:
        return len(self.subject_ids)


def save_scores(table: ScoresTable, path) -> None:
    """Write the scores CSV with the fixed header order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCORES_HEADER)
    for i in range(table.n_subjects):
        writer.writerow(
            [
                table.subject_ids[i],
                _fmt(table.age[i]),
                table.diagnosis[i],
                _fmt(table.y_hat[i]),
                _fmt(table.epsilon[i]),
                _fmt(table.cov[i]),
                _fmt(table.cov_w[i]),
            ]
        )
    _atomic_write_text(path, buffer.getvalue())


def load_scores(path) -> ScoresTable:
    """Read a scores CSV produced by ``save_scores``.

    A numeric cell that does not parse, or holds a non-finite value, raises
    a parse error naming its row and column.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: empty file")
    if tuple(cell.strip() for cell in rows[0]) != SCORES_HEADER:
        raise SchemaError(
            f"{path}: expected header {','.join(SCORES_HEADER)}, got {','.join(rows[0])}"
        )
    ids, diagnosis = [], []
    columns: dict[str, list[float]] = {n: [] for n in ("age", "y_hat", "epsilon", "cov", "cov_w")}
    for offset, parts in enumerate(rows[1:]):
        row_num = offset + 2
        if len(parts) != len(SCORES_HEADER):
            raise CohortParseError(
                f"{path}: row {row_num}: expected {len(SCORES_HEADER)} fields, "
                f"got {len(parts)}"
            )
        ids.append(parts[0])
        diagnosis.append(parts[2])
        for name, position in (("age", 1), ("y_hat", 3), ("epsilon", 4), ("cov", 5), ("cov_w", 6)):
            try:
                value = float(parts[position])
            except ValueError:
                raise CohortParseError(
                    f"{path}: row {row_num}, column {name!r}: "
                    f"not a number: {parts[position]!r}"
                ) from None
            if not math.isfinite(value):
                raise CohortParseError(
                    f"{path}: row {row_num}, column {name!r}: "
                    f"non-finite value {parts[position]!r}"
                )
            columns[name].append(value)
    return ScoresTable(
        subject_ids=tuple(ids),
        age=np.asarray(columns["age"], dtype=float),
        diagnosis=tuple(diagnosis),
        y_hat=np.asarray(columns["y_hat"], dtype=float),
        epsilon=np.asarray(columns["epsilon"], dtype=float),
        cov=np.asarray(columns["cov"], dtype=float),
        cov_w=np.asarray(columns["cov_w"], dtype=float),
    )


@dataclass(frozen=True)
class FitMetadata:
    """Optimizer trace summary stored with the model."""

    log_marginal: float
    restarts_used: int
    restart_log_marginals: tuple[float, ...]
    seed: int
    chosen_restart: int

    def __post_init__(self):
        object.__setattr__(
            self, "restart_log_marginals",
            tuple(float(v) for v in self.restart_log_marginals),
        )


@dataclass(frozen=True)
class ModelArtifact:
    """Everything needed to reproduce scoring: data, preprocessing, params."""

    kernel_form: str
    feature_names: tuple[str, ...]
    training_features: np.ndarray
    training_ages: np.ndarray
    kernel_params: KernelParams
    fit_metadata: FitMetadata
    standardizer: Standardizer | None = None
    pca: PcaTransform | None = None
    y_offset: float = 0.0
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        features = np.asarray(self.training_features, dtype=float)
        ages = np.asarray(self.training_ages, dtype=float).reshape(-1)
        object.__setattr__(self, "training_features", features)
        object.__setattr__(self, "training_ages", ages)
        if self.kernel_form not in FORMS:
            raise ValueError(f"unknown kernel form {self.kernel_form!r}")
        if features.ndim != 2 or ages.shape[0] != features.shape[0]:
            raise ValueError("training_features and training_ages row counts must match")
        if self.kernel_params.n_features != features.shape[1]:
            raise ValueError(
                "kernel_params dimensionality must match the stored training "
                "features (after preprocessing)"
            )
        raw_dim = len(self.feature_names)
        if self.standardizer is not None and self.standardizer.means.shape[0] != raw_dim:
            raise ValueError("standardizer dimension must match feature_names")
        if self.pca is not None:
            if self.pca.mean.shape[0] != raw_dim:
                raise ValueError("pca input dimension must match feature_names")
            expected = self.pca.n_components
        else:
            expected = raw_dim
        if features.shape[1] != expected:
            raise ValueError(
                "stored training features do not match the preprocessing chain output"
            )


def artifact_from_fit(
    model: gpr.TrainedModel,
    feature_names,
    *,
    standardizer: Standardizer | None = None,
    pca: PcaTransform | None = None,
    seed: int = 0,
) -> ModelArtifact:
    """Bundle a trained model with its preprocessing chain for persistence."""
    metadata = FitMetadata(
        log_marginal=model.log_marginal_likelihood,
        restarts_used=max(len(model.restart_log_marginals), 1),
        restart_log_marginals=model.restart_log_marginals,
        seed=seed,
        chosen_restart=model.chosen_restart,
    )
    return ModelArtifact(
        kernel_form=model.form,
        feature_names=tuple(feature_names),
        training_features=model.x,
        training_ages=model.y,
        kernel_params=model.params,
        fit_metadata=metadata,
        standardizer=standardizer,
        pca=pca,
        y_offset=model.y_offset,
    )


def to_trained_model(artifact: ModelArtifact) -> gpr.TrainedModel:
    """Rebuild the in-memory model (factorization included) from an artifact."""
    return gpr.restore(
        artifact.training_features,
        artifact.training_ages,
        artifact.kernel_params,
        artifact.kernel_form,
        y_offset=artifact.y_offset,
        restart_log_marginals=artifact.fit_metadata.restart_log_marginals,
        chosen_restart=artifact.fit_metadata.chosen_restart,
    )


def _vector_lines(tag: str, values: np.ndarray) -> list[str]:
    return [f"{tag} {values.shape[0]}", " ".join(_fmt(v) for v in values)]


def _matrix_lines(tag: str, matrix: np.ndarray) -> list[str]:
    lines = [f"{tag} {matrix.shape[0]} {matrix.shape[1]}"]
    lines.extend(" ".join(_fmt(v) for v in row) for row in matrix)
    return lines


def save_model(artifact: ModelArtifact, path) -> None:
    """Serialize a model artifact to the versioned text format."""
    if artifact.format_version != FORMAT_VERSION:
        raise ValueError(f"can only write format version {FORMAT_VERSION}")
    lines = [
        f"{_MODEL_MAGIC} v{FORMAT_VERSION}",
        f"kernel_form {artifact.kernel_form}",
        f"y_offset {_fmt(artifact.y_offset)}",
        f"feature_names {len(artifact.feature_names)}",
    ]
    lines.extend(artifact.feature_names)
    lines.extend(_vector_lines("length_scales", artifact.kernel_params.length_scales))
    lines.append(f"noise_variance {_fmt(artifact.kernel_params.noise_variance)}")
    if artifact.standardizer is None:
        lines.append("standardizer 0")
    else:
        lines.append("standardizer 1")
        lines.extend(_vector_lines("means", artifact.standardizer.means))
        lines.extend(_vector_lines("std_devs", artifact.standardizer.std_devs))
    if artifact.pca is None:
        lines.append("pca 0")
    else:
        lines.append("pca 1")
        lines.extend(_vector_lines("mean", artifact.pca.mean))
        lines.extend(_matrix_lines("components", artifact.pca.components))
        lines.extend(_vector_lines("explained_variance", artifact.pca.explained_variance))
    lines.extend(_matrix_lines("training_features", artifact.training_features))
    lines.extend(_vector_lines("training_ages", artifact.training_ages))
    meta = artifact.fit_metadata
    lines.append(f"log_marginal {_fmt(meta.log_marginal)}")
    lines.append(f"restarts_used {meta.restarts_used}")
    lines.extend(
        _vector_lines("restart_log_marginals", np.asarray(meta.restart_log_marginals))
    )
    lines.append(f"seed {meta.seed}")
    lines.append(f"chosen_restart {meta.chosen_restart}")
    lines.append("end")
    _atomic_write_text(path, "\n".join(lines) + "\n")


class _LineReader:
    def __init__(self, lines: list[str]):
        self._lines = lines
        self._pos = 0

    def next(self) -> str:
        if self._pos >= len(self._lines):
            raise ModelIntegrityError("model file is truncated")
        line = self._lines[self._pos]
        self._pos += 1
        return line

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._lines)


def _tagged(reader: _LineReader, tag: str) -> list[str]:
    line = reader.next()
    parts = line.split()
    if not parts or parts[0] != tag:
        raise ModelFormatError(f"expected {tag!r} section, found {line!r}")
    return parts[1:]


def _one_int(reader: _LineReader, tag: str) -> int:
    payload = _tagged(reader, tag)
    if len(payload) != 1:
        raise ModelFormatError(f"{tag!r} expects one value")
    try:
        return int(payload[0])
    except ValueError:
        raise ModelFormatError(f"{tag!r} expects an integer, got {payload[0]!r}") from None


def _one_float(reader: _LineReader, tag: str) -> float:
    payload = _tagged(reader, tag)
    if len(payload) != 1:
        raise ModelFormatError(f"{tag!r} expects one value")
    try:
        return float(payload[0])
    except ValueError:
        raise ModelFormatError(f"{tag!r} expects a number, got {payload[0]!r}") from None


def _float_row(reader: _LineReader, count: int, tag: str) -> list[float]:
    tokens = reader.next().split()
    if len(tokens) != count:
        raise ModelFormatError(f"{tag!r} row has {len(tokens)} values, expected {count}")
    try:
        return [float(token) for token in tokens]
    except ValueError:
        raise ModelFormatError(f"{tag!r} row contains a non-numeric value") from None


def _read_vector(reader: _LineReader, tag: str) -> np.ndarray:
    payload = _tagged(reader, tag)
    if len(payload) != 1:
        raise ModelFormatError(f"{tag!r} expects a length")
    try:
        count = int(payload[0])
    except ValueError:
        raise ModelFormatError(f"{tag!r} expects an integer length") from None
    return np.asarray(_float_row(reader, count, tag), dtype=float)


def _read_matrix(reader: _LineReader, tag: str) -> np.ndarray:
    payload = _tagged(reader, tag)
    if len(payload) != 2:
        raise ModelFormatError(f"{tag!r} expects two dimensions")
    try:
        n_rows, n_cols = int(payload[0]), int(payload[1])
    except ValueError:
        raise ModelFormatError(f"{tag!r} expects integer dimensions") from None
    rows = [_float_row(reader, n_cols, tag) for _ in range(n_rows)]
    return np.asarray(rows, dtype=float).reshape(n_rows, n_cols)


def load_model(path) -> ModelArtifact:
    """Parse a model artifact, verifying version, structure, and terminator."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    reader = _LineReader(lines)
    first = reader.next().split()
    if len(first) != 2 or first[0] != _MODEL_MAGIC or not first[1].startswith("v"):
        raise ModelFormatError(f"{path}: not a model file (bad magic line)")
    try:
        version = int(first[1][1:])
    except ValueError:
        raise ModelFormatError(f"{path}: malformed version {first[1]!r}") from None
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format version {version} (supported: {FORMAT_VERSION})"
        )

    payload = _tagged(reader, "kernel_form")
    if len(payload) != 1 or payload[0] not in FORMS:
        raise ModelFormatError(f"kernel_form must be one of {FORMS}")
    kernel_form = payload[0]
    y_offset = _one_float(reader, "y_offset")
    n_names = _one_int(reader, "feature_names")
    feature_names = tuple(reader.next() for _ in range(n_names))
    length_scales = _read_vector(reader, "length_scales")
    noise_variance = _one_float(reader, "noise_variance")
    std_flag = _one_int(reader, "standardizer")
    if std_flag not in (0, 1):
        raise ModelFormatError("standardizer flag must be 0 or 1")
    std_fields = None
    if std_flag:
        std_fields = (_read_vector(reader, "means"), _read_vector(reader, "std_devs"))
    pca_flag = _one_int(reader, "pca")
    if pca_flag not in (0, 1):
        raise ModelFormatError("pca flag must be 0 or 1")
    pca_fields = None
    if pca_flag:
        pca_fields = (
            _read_vector(reader, "mean"),
            _read_matrix(reader, "components"),
            _read_vector(reader, "explained_variance"),
        )
    training_features = _read_matrix(reader, "training_features")
    training_ages = _read_vector(reader, "training_ages")
    log_marginal = _one_float(reader, "log_marginal")
    restarts_used = _one_int(reader, "restarts_used")
    restart_log_marginals = _read_vector(reader, "restart_log_marginals")
    seed = _one_int(reader, "seed")
    chosen_restart = _one_int(reader, "chosen_restart")
    terminator = reader.next()
    if terminator != "end":
        raise ModelFormatError(f"expected 'end' terminator, found {terminator!r}")
    if not reader.exhausted:
        raise ModelFormatError("unexpected content after 'end' terminator")

    try:
        standardizer = (
            Standardizer(means=std_fields[0], std_devs=std_fields[1]) if std_fields else None
        )
        pca = (
            PcaTransform(
                mean=pca_fields[0],
                components=pca_fields[1],
                explained_variance=pca_fields[2],
            )
            if pca_fields
            else None
        )
        return ModelArtifact(
            kernel_form=kernel_form,
            feature_names=feature_names,
            training_features=training_features,
            training_ages=training_ages,
            kernel_params=KernelParams(
                length_scales=length_scales, noise_variance=noise_variance
            ),
            fit_metadata=FitMetadata(
                log_marginal=log_marginal,
                restarts_used=restarts_used,
                restart_log_marginals=tuple(restart_log_marginals),
                seed=seed,
                chosen_restart=chosen_restart,
            ),
            standardizer=standardizer,
            pca=pca,
            y_offset=y_offset,
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: inconsistent model contents: {exc}") from None
