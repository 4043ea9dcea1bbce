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
# Column roles of a cohort CSV; every other column is a numeric feature. The
# diagnosis is recognized under either name, and a file may hold only one.
_AGE_COLUMN = "age"
_ID_COLUMN = "id"
_SEX_COLUMN = "sex"
_SEX_VALUES = ("F", "M")
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


def _read_csv(path):
    """Read a CSV with a mandatory header.

    Returns the stripped header names and an iterator of ``(row number,
    cells)`` over the data rows, the header being row 1. The iterator raises
    at the first row whose width is not the header's, so the caller checks
    the header before any row.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]

    def data_rows():
        for row_num, parts in enumerate(rows[1:], start=2):
            if len(parts) != len(header):
                raise CohortParseError(
                    f"{path}: row {row_num}: expected {len(header)} fields, got {len(parts)}"
                )
            yield row_num, parts

    return header, data_rows()


def _number(path, row_num: int, name: str, raw: str) -> float:
    """Parse one numeric cell; a non-number or a non-finite value raises."""
    try:
        value = float(raw)
    except ValueError:
        raise CohortParseError(
            f"{path}: row {row_num}, column {name!r}: not a number: {raw!r}"
        ) from None
    if not math.isfinite(value):
        raise CohortParseError(f"{path}: row {row_num}, column {name!r}: non-finite value {raw!r}")
    return value


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
    header, rows = _read_csv(path)
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
        return _number(path, row_num, name, cell(parts, name, row_num))

    ids: list[str] = []
    ages: list[float] = []
    sexes: list[str] = []
    diagnoses: list[str] = []
    features: list[list[float]] = []
    for row_num, parts in rows:
        age = numeric(parts, _AGE_COLUMN, row_num)
        if age <= 0.0:
            raise CohortParseError(
                f"{path}: row {row_num}, column {_AGE_COLUMN!r}: "
                f"age must be strictly positive, got {age}"
            )
        ages.append(age)
        ids.append(cell(parts, _ID_COLUMN, row_num) if has_id else str(row_num - 2))
        if has_sex:
            sex = cell(parts, _SEX_COLUMN, row_num)
            if sex not in _SEX_VALUES:
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


@dataclass(frozen=True)
class ScoresTable:
    """Per-subject abnormality scores, one row per subject.

    ``epsilon`` is the predicted minus the chronological age; ``cov`` and
    ``cov_w`` are the posterior and the age-weighted posterior variances.
    Every numeric column is finite, and the variances are nonnegative.
    """

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
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            if name in ("cov", "cov_w") and np.any(arr < 0.0):
                raise ValueError(f"{name} must be nonnegative")
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
    header, rows = _read_csv(path)
    if tuple(header) != SCORES_HEADER:
        raise SchemaError(
            f"{path}: expected header {','.join(SCORES_HEADER)}, got {','.join(header)}"
        )
    columns: dict[str, list] = {name: [] for name in SCORES_HEADER}
    for row_num, parts in rows:
        for name, raw in zip(SCORES_HEADER, parts):
            if name not in ("id", "diagnosis"):
                raw = _number(path, row_num, name, raw)
            columns[name].append(raw)
    return ScoresTable(
        subject_ids=columns["id"],
        age=columns["age"],
        diagnosis=columns["diagnosis"],
        y_hat=columns["y_hat"],
        epsilon=columns["epsilon"],
        cov=columns["cov"],
        cov_w=columns["cov_w"],
    )


def save_sweep(result, path) -> None:
    """Write an ``l_y`` sweep (``stats.LySweepResult``) as ``l_y,auc,is_best``."""
    lines = ["l_y,auc,is_best"]
    lines.extend(
        f"{_fmt(l_y)},{_fmt(auc)},{int(l_y == result.best_l_y)}" for l_y, auc in result.rows
    )
    _atomic_write_text(path, "\n".join(lines) + "\n")


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


# The model file after its magic line: (tag, kind) in file order. Each
# section opens with the line ``tag <payload>``:
#   word, int, float: the value itself;
#   names: a count, then one name per line;
#   vector: a length, then one line of numbers;
#   matrix: rows and columns, then one line of numbers per row.
# A tuple kind is an optional block, ``tag 0`` alone or ``tag 1`` followed by
# its sections, which are the fields of the block's object. Every other tag
# is a field of ModelArtifact, KernelParams or FitMetadata.
_MODEL_SECTIONS = (
    ("kernel_form", "word"),
    ("y_offset", "float"),
    ("feature_names", "names"),
    ("length_scales", "vector"),
    ("noise_variance", "float"),
    ("standardizer", (("means", "vector"), ("std_devs", "vector"))),
    ("pca", (("mean", "vector"), ("components", "matrix"), ("explained_variance", "vector"))),
    ("training_features", "matrix"),
    ("training_ages", "vector"),
    ("log_marginal", "float"),
    ("restarts_used", "int"),
    ("restart_log_marginals", "vector"),
    ("seed", "int"),
    ("chosen_restart", "int"),
)


def _section_lines(tag: str, kind, value) -> list[str]:
    """The lines of one section holding ``value``."""
    if isinstance(kind, tuple):
        if value is None:
            return [f"{tag} 0"]
        lines = [f"{tag} 1"]
        for field, field_kind in kind:
            lines.extend(_section_lines(field, field_kind, getattr(value, field)))
        return lines
    if kind == "names":
        return [f"{tag} {len(value)}", *value]
    if kind == "vector":
        return [f"{tag} {len(value)}", " ".join(_fmt(v) for v in value)]
    if kind == "matrix":
        rows = (" ".join(_fmt(v) for v in row) for row in value)
        return [f"{tag} {value.shape[0]} {value.shape[1]}", *rows]
    return [f"{tag} {_fmt(value) if kind == 'float' else value}"]


def save_model(artifact: ModelArtifact, path) -> None:
    """Serialize a model artifact to the versioned text format."""
    values = {**vars(artifact), **vars(artifact.kernel_params), **vars(artifact.fit_metadata)}
    lines = [f"{_MODEL_MAGIC} v{FORMAT_VERSION}"]
    for tag, kind in _MODEL_SECTIONS:
        lines.extend(_section_lines(tag, kind, values[tag]))
    lines.append("end")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _read_section(next_line, tag: str, kind):
    """Parse one section; a block gives a dict of its fields, or None."""
    header = next_line()
    parts = header.split()
    if not parts or parts[0] != tag:
        raise ModelFormatError(f"expected {tag!r} section, found {header!r}")
    if len(parts) != (3 if kind == "matrix" else 2):
        raise ModelFormatError(f"malformed {tag!r} section header {header!r}")
    if kind == "word":
        return parts[1]
    number = float if kind == "float" else int
    try:
        payload = [number(token) for token in parts[1:]]
    except ValueError:
        raise ModelFormatError(f"{tag!r} expects {number.__name__}s, got {header!r}") from None
    if kind in ("float", "int"):
        return payload[0]
    if isinstance(kind, tuple):
        if payload[0] not in (0, 1):
            raise ModelFormatError(f"{tag} flag must be 0 or 1")
        if not payload[0]:
            return None
        return {field: _read_section(next_line, field, k) for field, k in kind}
    if min(payload) < 0:
        raise ModelFormatError(f"{tag!r} sizes must be non-negative, got {header!r}")
    if kind == "names":
        return tuple(next_line() for _ in range(payload[0]))
    width, values = payload[-1], []
    for _ in range(payload[0] if kind == "matrix" else 1):
        row = next_line().split()
        if len(row) != width:
            raise ModelFormatError(f"{tag!r} row has {len(row)} values, expected {width}")
        try:
            values.extend(map(float, row))
        except ValueError:
            raise ModelFormatError(f"{tag!r} row contains a non-numeric value") from None
    return np.asarray(values, dtype=float).reshape(payload)


def load_model(path) -> ModelArtifact:
    """Parse a model artifact, verifying version, structure, and terminator."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = iter(handle.read().splitlines())

    def next_line() -> str:
        line = next(lines, None)
        if line is None:
            raise ModelIntegrityError("model file is truncated")
        return line

    first = next_line().split()
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
    fields = {tag: _read_section(next_line, tag, kind) for tag, kind in _MODEL_SECTIONS}
    terminator = next_line()
    if terminator != "end":
        raise ModelFormatError(f"expected 'end' terminator, found {terminator!r}")
    if next(lines, None) is not None:
        raise ModelFormatError("unexpected content after 'end' terminator")

    standardizer, pca = fields["standardizer"], fields["pca"]
    try:
        return ModelArtifact(
            kernel_form=fields["kernel_form"],
            feature_names=fields["feature_names"],
            training_features=fields["training_features"],
            training_ages=fields["training_ages"],
            kernel_params=KernelParams(
                length_scales=fields["length_scales"],
                noise_variance=fields["noise_variance"],
            ),
            fit_metadata=FitMetadata(
                log_marginal=fields["log_marginal"],
                restarts_used=fields["restarts_used"],
                restart_log_marginals=fields["restart_log_marginals"],
                seed=fields["seed"],
                chosen_restart=fields["chosen_restart"],
            ),
            standardizer=Standardizer(**standardizer) if standardizer else None,
            pca=PcaTransform(**pca) if pca else None,
            y_offset=fields["y_offset"],
        )
    except ValueError as exc:
        raise ModelFormatError(f"{path}: inconsistent model contents: {exc}") from None
