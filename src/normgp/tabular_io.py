"""Cohort, score-table, and model-artifact persistence.

All files are plain text. Cohorts, score tables and sweeps are CSV files
with a mandatory header, read and written a column at a time; a leading
UTF-8 byte-order mark is skipped. A CSV's header is checked first, then
every row's width, then each column down to its first bad cell. The
model artifact is a versioned, line-oriented
document (first line ``normative-gp-model v1``). Every real number is
serialized with 17 significant digits so round-trips are value-exact, and
every writer goes through an atomic temp-file-plus-rename.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import secrets
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import gpr
from .errors import CohortParseError, ModelFormatError, SchemaError
from .kernels import KernelParams, _check_form
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
_ROLE_COLUMNS = (_ID_COLUMN, _AGE_COLUMN, _SEX_COLUMN, *_DIAGNOSIS_COLUMNS)


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
    """Read a CSV with a mandatory header; a UTF-8 byte-order mark is skipped.

    Returns the stripped header names and a function that gives the data
    as a dict from header name to the column's cells, so the caller checks
    the header first. That function raises at the first row whose width is
    not the header's (the header is row 1), before any cell is parsed.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise SchemaError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0]]

    def columns() -> dict[str, tuple[str, ...]]:
        for row_num, parts in enumerate(rows[1:], start=2):
            if len(parts) != len(header):
                raise CohortParseError(
                    f"{path}: row {row_num}: expected {len(header)} fields, got {len(parts)}"
                )
        return dict(zip(header, zip(*rows[1:]))) if len(rows) > 1 else dict.fromkeys(header, ())

    return header, columns


def _bad_cell(path, row: int, name: str, problem: str) -> CohortParseError:
    """The parse error for data row ``row`` (0-based) of column ``name``."""
    return CohortParseError(f"{path}: row {row + 2}, column {name!r}: {problem}")


def _numbers(path, name: str, cells) -> np.ndarray:
    """Parse a column of numeric cells; surrounding spaces are ignored.

    The first empty, unparsable or non-finite cell raises, naming its row
    and column.
    """
    try:
        values = np.array(list(map(float, cells)), dtype=float)
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    for row, cell in enumerate(cells):
        text = cell.strip()
        if not text:
            raise _bad_cell(path, row, name, "empty value")
        try:
            value = float(text)
        except ValueError:
            raise _bad_cell(path, row, name, f"not a number: {text!r}") from None
        if not math.isfinite(value):
            raise _bad_cell(path, row, name, f"non-finite value {text!r}")
    raise AssertionError(f"{path}: column {name!r} failed to parse but has no bad cell")


def _texts(path, name: str, cells) -> tuple[str, ...]:
    """Strip a column of text cells; the first empty one raises, naming its row."""
    values = tuple(cell.strip() for cell in cells)
    if not all(values):
        raise _bad_cell(path, values.index(""), name, "empty value")
    return values


def _write_csv(path, header, columns) -> None:
    """Write ``header`` and the equal-length ``columns`` of cells as a CSV.

    Rows end in ``\\n``. The writer is given ``\\r\\n`` as the terminator,
    so it quotes every cell holding either character on every Python
    version (before 3.13 it quotes only the terminator's characters, and a
    bare ``\\r`` in a cell would split the row when read back).
    """
    rows: list[str] = []
    writer = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    _atomic_write_text(path, "".join(row[:-2] + "\n" for row in rows))


def _fmts(values) -> list[str]:
    """``_fmt`` of every value in a column."""
    return [_fmt(v) for v in np.asarray(values, dtype=float).tolist()]


def _check_texts(name: str, values) -> None:
    """Raise ValueError unless every value is a non-empty, unpadded string."""
    for value in values:
        if not isinstance(value, str) or not value or value != value.strip():
            raise ValueError(f"{name} must be non-empty without surrounding whitespace: {value!r}")


def _check_one_line_names(names) -> None:
    """Raise ValueError if a feature name holds a line break.

    The model file keeps one name a line, split by ``str.splitlines``,
    which also breaks at a form feed or U+2028.
    """
    broken = [name for name in names if "".join(name.splitlines()) != name]
    if broken:
        raise ValueError(f"feature name {broken[0]!r} must be one line")


@dataclass(frozen=True)
class Cohort:
    """A tabular dataset of subjects, one row each.

    It holds the rules ``load_cohort`` applies, so every cohort round-trips
    exactly through ``save_cohort``: at least one feature, none named like a
    role column (``id``, ``age``, ``sex``, ``dx``, ``diagnosis``); feature
    names, ids and diagnoses non-empty without surrounding whitespace;
    feature names one line each, as ``str.splitlines`` sees it; sex ``F``
    or ``M``.
    """

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
        if not self.feature_names:
            raise ValueError("a cohort needs at least one feature column")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature_names must be unique")
        _check_texts("feature names", self.feature_names)
        roles = [name for name in self.feature_names if name in _ROLE_COLUMNS]
        if roles:
            raise ValueError(f"feature name {roles[0]!r} is a role column's name")
        _check_one_line_names(self.feature_names)
        _check_texts("subject ids", self.subject_ids)
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
        if self.sex is not None:
            bad = [value for value in self.sex if value not in _SEX_VALUES]
            if bad:
                raise ValueError(f"sex must be F or M, got {bad[0]!r}")
        if self.diagnosis is not None:
            _check_texts("diagnosis", self.diagnosis)

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
    the row (the header is row 1) and column; values are never imputed.
    The header is checked first, then every row's width, then the columns
    in this order, each down to its first bad row: ``age``, ``id``,
    ``sex``, the diagnosis, and the features in header order.
    """
    header, read_columns = _read_csv(path)
    if any(not name for name in header):
        raise SchemaError(f"{path}: header has an unnamed column")
    seen = set()
    for name in header:
        if name in seen:
            raise SchemaError(f"{path}: duplicate column {name!r}")
        seen.add(name)
    if _AGE_COLUMN not in header:
        raise SchemaError(f"{path}: required column {_AGE_COLUMN!r} is missing")

    feature_names = [name for name in header if name not in _ROLE_COLUMNS]
    if not feature_names:
        raise SchemaError(f"{path}: no feature columns")

    dx_columns = [name for name in _DIAGNOSIS_COLUMNS if name in header]
    if len(dx_columns) > 1:
        raise SchemaError(
            f"{path}: columns {dx_columns[0]!r} and {dx_columns[1]!r} both name the "
            "diagnosis; keep one"
        )

    columns = read_columns()
    age = _numbers(path, _AGE_COLUMN, columns[_AGE_COLUMN])
    bad = np.flatnonzero(age <= 0.0)
    if bad.size:
        raise _bad_cell(
            path, int(bad[0]), _AGE_COLUMN, f"age must be strictly positive, got {age[bad[0]]}"
        )
    if _ID_COLUMN in columns:
        ids = _texts(path, _ID_COLUMN, columns[_ID_COLUMN])
    else:
        ids = tuple(str(row) for row in range(age.shape[0]))
    sex = None
    if _SEX_COLUMN in columns:
        sex = _texts(path, _SEX_COLUMN, columns[_SEX_COLUMN])
        row = next((row for row, value in enumerate(sex) if value not in _SEX_VALUES), None)
        if row is not None:
            raise _bad_cell(path, row, _SEX_COLUMN, f"expected F or M, got {sex[row]!r}")
    diagnosis = _texts(path, dx_columns[0], columns[dx_columns[0]]) if dx_columns else None
    features = [_numbers(path, name, columns[name]) for name in feature_names]
    return Cohort(
        subject_ids=ids,
        features=np.column_stack(features),
        feature_names=tuple(feature_names),
        age=age,
        sex=sex,
        diagnosis=diagnosis,
    )


def save_cohort(cohort: Cohort, path) -> None:
    """Write a cohort CSV readable by ``load_cohort``."""
    header = [_ID_COLUMN, _AGE_COLUMN]
    if cohort.sex is not None:
        header.append(_SEX_COLUMN)
    if cohort.diagnosis is not None:
        header.append(_DIAGNOSIS_COLUMNS[0])
    header.extend(cohort.feature_names)
    columns = [cohort.subject_ids, _fmts(cohort.age)]
    columns.extend(value for value in (cohort.sex, cohort.diagnosis) if value is not None)
    columns.extend(map(_fmts, cohort.features.T))
    _write_csv(path, header, columns)


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


def save_scores(table: ScoresTable, path) -> None:
    """Write the scores CSV with the fixed header order."""
    columns = [
        table.subject_ids, _fmts(table.age), table.diagnosis,
        *map(_fmts, (table.y_hat, table.epsilon, table.cov, table.cov_w)),
    ]
    _write_csv(path, SCORES_HEADER, columns)


def load_scores(path) -> ScoresTable:
    """Read a scores CSV produced by ``save_scores``.

    The ``id`` and ``diagnosis`` cells are kept as written. The numeric
    columns are checked in header order; the first empty, unparsable or
    non-finite cell of each, or negative one of ``cov`` and ``cov_w``,
    raises a parse error naming its row and column.
    """
    header, read_columns = _read_csv(path)
    if tuple(header) != SCORES_HEADER:
        raise SchemaError(
            f"{path}: expected header {','.join(SCORES_HEADER)}, got {','.join(header)}"
        )
    columns = read_columns()
    numbers = {}
    for name in ("age", "y_hat", "epsilon", "cov", "cov_w"):
        values = numbers[name] = _numbers(path, name, columns[name])
        if name in ("cov", "cov_w") and np.any(values < 0.0):
            row = int(np.argmax(values < 0.0))
            raise _bad_cell(path, row, name, f"negative variance {columns[name][row].strip()!r}")
    return ScoresTable(subject_ids=columns["id"], diagnosis=columns["diagnosis"], **numbers)


def save_sweep(result, path) -> None:
    """Write an ``l_y`` sweep (``stats.LySweepResult``) as ``l_y,auc,is_best``."""
    l_y = [row[0] for row in result.rows]
    is_best = [int(value == result.best_l_y) for value in l_y]
    auc = _fmts([row[1] for row in result.rows])
    _write_csv(path, ("l_y", "auc", "is_best"), [_fmts(l_y), auc, is_best])


@dataclass(frozen=True)
class FitMetadata:
    """Optimizer trace summary stored with the model: one log marginal
    likelihood per restart used, and the chosen restart's as ``log_marginal``."""

    log_marginal: float
    restarts_used: int
    restart_log_marginals: tuple[float, ...]
    seed: int
    chosen_restart: int

    def __post_init__(self):
        values = tuple(float(v) for v in self.restart_log_marginals)
        object.__setattr__(self, "restart_log_marginals", values)
        n = len(values)
        if self.restarts_used != n:
            raise ValueError(f"restarts_used is {self.restarts_used}, but {n} restarts are stored")
        if not 0 <= self.chosen_restart < n:
            raise ValueError(f"chosen_restart {self.chosen_restart} is outside restarts 0-{n - 1}")
        chosen = values[self.chosen_restart]
        if not math.isclose(self.log_marginal, chosen, rel_tol=1e-9):
            raise ValueError(f"log_marginal {self.log_marginal!r} is not the chosen {chosen!r}")


@dataclass(frozen=True)
class ModelArtifact:
    """Everything needed to reproduce scoring: data, preprocessing, params.

    Its feature names hold no line break, as ``Cohort``'s do, so
    ``save_model`` writes only what ``load_model`` reads back.
    """

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
        _check_one_line_names(self.feature_names)
        features = np.asarray(self.training_features, dtype=float)
        ages = np.asarray(self.training_ages, dtype=float).reshape(-1)
        object.__setattr__(self, "training_features", features)
        object.__setattr__(self, "training_ages", ages)
        _check_form(self.kernel_form)
        if features.ndim != 2 or ages.shape[0] != features.shape[0]:
            raise ValueError("training_features and training_ages row counts must match")
        if features.shape[0] == 0:
            raise ValueError("the model has no training rows")
        if not math.isfinite(self.y_offset):
            raise ValueError(f"y_offset must be finite, not {self.y_offset!r}")
        if not np.all(np.isfinite(features)):
            raise ValueError("training_features contains non-finite values")
        if not np.all(np.isfinite(ages)):
            raise ValueError("training_ages contains non-finite values")
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
        restarts_used=len(model.restart_log_marginals),
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
# A tuple kind ``(class, sections)`` is an optional block, ``tag 0`` alone or
# ``tag 1`` followed by its sections, which are the fields of the class. Every
# other tag is a field of ModelArtifact or of one of its _NESTED dataclasses.
_MODEL_SECTIONS = (
    ("kernel_form", "word"),
    ("y_offset", "float"),
    ("feature_names", "names"),
    ("length_scales", "vector"),
    ("noise_variance", "float"),
    ("standardizer", (Standardizer, (("means", "vector"), ("std_devs", "vector")))),
    ("pca", (PcaTransform, (("mean", "vector"), ("components", "matrix"),
                            ("explained_variance", "vector")))),
    ("training_features", "matrix"),
    ("training_ages", "vector"),
    ("log_marginal", "float"),
    ("restarts_used", "int"),
    ("restart_log_marginals", "vector"),
    ("seed", "int"),
    ("chosen_restart", "int"),
)
_NESTED = (("kernel_params", KernelParams), ("fit_metadata", FitMetadata))


def _section_lines(tag: str, kind, value) -> list[str]:
    """The lines of one section holding ``value``."""
    if isinstance(kind, tuple):
        if value is None:
            return [f"{tag} 0"]
        lines = [f"{tag} 1"]
        for field, field_kind in kind[1]:
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
    values = vars(artifact).copy()
    for name, _ in _NESTED:
        values.update(vars(getattr(artifact, name)))
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
        return {field: _read_section(next_line, field, k) for field, k in kind[1]}
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
    """Parse a model artifact, verifying version, structure, and terminator.

    Every ``ModelFormatError`` names the file: its message starts ``PATH: ``.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = iter(handle.read().splitlines())
    try:
        return _parse_model(lines)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _parse_model(lines) -> ModelArtifact:
    """The artifact held by a model file's ``lines``."""

    def next_line() -> str:
        line = next(lines, None)
        if line is None:
            raise ModelFormatError("model file is truncated")
        return line

    first = next_line().split()
    if len(first) != 2 or first[0] != _MODEL_MAGIC or not first[1].startswith("v"):
        raise ModelFormatError("not a model file (bad magic line)")
    try:
        version = int(first[1][1:])
    except ValueError:
        raise ModelFormatError(f"malformed version {first[1]!r}") from None
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format version {version} (supported: {FORMAT_VERSION})"
        )
    sections = {tag: _read_section(next_line, tag, kind) for tag, kind in _MODEL_SECTIONS}
    terminator = next_line()
    if terminator != "end":
        raise ModelFormatError(f"expected 'end' terminator, found {terminator!r}")
    if next(lines, None) is not None:
        raise ModelFormatError("unexpected content after 'end' terminator")

    try:
        for name, nested in _NESTED:
            sections[name] = nested(**{f.name: sections.pop(f.name) for f in fields(nested)})
        for tag, kind in _MODEL_SECTIONS:
            if isinstance(kind, tuple) and sections[tag] is not None:
                sections[tag] = kind[0](**sections[tag])
        return ModelArtifact(**sections)
    except ValueError as exc:
        raise ModelFormatError(f"inconsistent model contents: {exc}") from None
