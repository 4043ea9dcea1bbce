import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgp.errors import CohortParseError, ModelFormatError, SchemaError
from normgp.gpr import FitConfig, fit, predict, restore
from normgp.kernels import SUM, KernelParams
from normgp.preprocess import PcaTransform, Standardizer, fit_pca, fit_standardizer
from normgp import tabular_io
from normgp.tabular_io import (
    SCORES_HEADER,
    Cohort,
    ScoresTable,
    artifact_from_fit,
    load_cohort,
    load_model,
    load_scores,
    save_cohort,
    save_model,
    save_scores,
    to_trained_model,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_cohort_with_all_roles(tmp_path):
    path = write(
        tmp_path / "c.csv",
        "id,age,dx,v1,v2\na,61,HC,0.5,1.5\nb,72.5,AD,-0.25,2\nc,59,HC,0.125,3\n",
    )
    cohort = load_cohort(path)
    assert cohort.n_subjects == 3
    assert cohort.feature_names == ("v1", "v2")
    assert cohort.subject_ids == ("a", "b", "c")
    assert cohort.diagnosis == ("HC", "AD", "HC")
    assert np.array_equal(cohort.age, [61.0, 72.5, 59.0])
    assert np.array_equal(cohort.features[:, 0], [0.5, -0.25, 0.125])


def test_diagnosis_role_recognized_under_either_name(tmp_path):
    body = "a,61,HC,0.5\nb,72.5,AD,-0.25\n"
    for column in ("dx", "diagnosis"):
        cohort = load_cohort(write(tmp_path / f"{column}.csv", f"id,age,{column},v1\n{body}"))
        assert cohort.diagnosis == ("HC", "AD")
        assert cohort.feature_names == ("v1",)
    with pytest.raises(SchemaError, match="'dx' and 'diagnosis'"):
        load_cohort(write(tmp_path / "both.csv", "age,dx,diagnosis,v1\n61,HC,HC,0.5\n"))


def test_non_numeric_age_names_row_and_column(tmp_path):
    path = write(tmp_path / "c.csv", "id,age,v1\na,abc,1\n")
    with pytest.raises(CohortParseError, match=r"row 2.*'age'"):
        load_cohort(path)


def test_empty_feature_cell_is_an_error(tmp_path):
    path = write(tmp_path / "c.csv", "age,v1,v2\n50,1.0,2.0\n60,,2.5\n")
    with pytest.raises(CohortParseError, match=r"row 3.*'v1'"):
        load_cohort(path)


def test_structural_errors(tmp_path):
    with pytest.raises(SchemaError, match="empty"):
        load_cohort(write(tmp_path / "empty.csv", ""))
    with pytest.raises(SchemaError, match="age"):
        load_cohort(write(tmp_path / "noage.csv", "id,v1\na,1\n"))
    with pytest.raises(SchemaError, match="duplicate"):
        load_cohort(write(tmp_path / "dup.csv", "age,v1,v1\n50,1,2\n"))
    with pytest.raises(SchemaError, match="no feature columns"):
        load_cohort(write(tmp_path / "nofeat.csv", "id,age\na,50\n"))
    with pytest.raises(SchemaError, match="header has an unnamed column"):
        load_cohort(write(tmp_path / "unnamed.csv", "age, ,v1\n50,1,2\n"))


def test_header_errors_come_before_row_errors(tmp_path):
    # row 2 is short, but the duplicate and the missing header column are
    # reported first
    with pytest.raises(SchemaError, match="duplicate"):
        load_cohort(write(tmp_path / "dup.csv", "age,v1,v1\n50,1\n"))
    with pytest.raises(SchemaError, match="'age'"):
        load_cohort(write(tmp_path / "noage.csv", "id,v1\na\n"))
    with pytest.raises(SchemaError, match="expected header"):
        load_scores(write(tmp_path / "s.csv", "id,age,dx,y_hat,epsilon,cov,cov_w\na,50\n"))


def test_value_errors_cite_position(tmp_path):
    with pytest.raises(CohortParseError, match="row 2"):
        load_cohort(write(tmp_path / "neg.csv", "age,v1\n-5,1\n"))
    with pytest.raises(CohortParseError, match="row 3"):
        load_cohort(write(tmp_path / "inf.csv", "age,v1\n50,1\n60,inf\n"))
    with pytest.raises(CohortParseError, match="sex"):
        load_cohort(write(tmp_path / "sex.csv", "age,sex,v1\n50,X,1\n"))
    with pytest.raises(CohortParseError, match="row 2"):
        load_cohort(write(tmp_path / "short.csv", "age,v1,v2\n50,1\n"))


@pytest.mark.parametrize(
    "text, error, message",
    [
        # every row's width is checked before any cell
        ("age,v1,v2\nabc,1,2\n50,1\n", CohortParseError, r"row 3: expected 3 fields, got 2"),
        # age is checked before the features, whatever their rows
        ("age,v1\n50,x\nabc,1\n", CohortParseError, r"row 3, column 'age': not a number"),
        # of two bad features the earlier header column is reported
        ("age,v1,v2\n50,1,x\n60,y,2\n", CohortParseError, r"row 3, column 'v1': not a number"),
        ("id,sex,age,v1\n,X,0,1\n", CohortParseError, r"row 2, column 'age': age must be"),
        ("id,sex,age,v1\n,X,50,1\n", CohortParseError, r"row 2, column 'id': empty value"),
    ],
    ids=["width-before-cells", "age-before-features", "features-in-header-order",
         "age-before-id", "id-before-sex"],
)
def test_cohort_errors_come_column_by_column(tmp_path, text, error, message):
    with pytest.raises(error, match=message):
        load_cohort(write(tmp_path / "c.csv", text))


def test_scores_errors_come_in_header_order(tmp_path):
    path = write(
        tmp_path / "s.csv",
        "id,age,diagnosis,y_hat,epsilon,cov,cov_w\na,50,HC,51,1,x,0.5\nb,60,DX,y,-2,0.7,0.7\n",
    )
    with pytest.raises(CohortParseError, match=r"row 3, column 'y_hat': not a number: 'y'"):
        load_scores(path)
    with pytest.raises(CohortParseError, match=r"row 2, column 'age': empty value"):
        load_scores(write(tmp_path / "e.csv", f"{','.join(SCORES_HEADER)}\na,,HC,1,1,1,1\n"))


def _bom(path, text):
    """Write ``text`` to ``path``, and behind a UTF-8 byte-order mark to a ``.bom`` sibling."""
    write(path, text)
    path.with_suffix(".bom").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return str(path), str(path.with_suffix(".bom"))


def assert_same_cohort(loaded, expected):
    assert loaded.subject_ids == expected.subject_ids
    assert loaded.feature_names == expected.feature_names
    assert np.array_equal(loaded.age, expected.age)
    assert np.array_equal(loaded.features, expected.features)
    assert loaded.features.shape == expected.features.shape
    assert loaded.sex == expected.sex
    assert loaded.diagnosis == expected.diagnosis


def assert_same_scores(loaded, expected):
    assert loaded.subject_ids == expected.subject_ids
    assert loaded.diagnosis == expected.diagnosis
    for field in ("age", "y_hat", "epsilon", "cov", "cov_w"):
        assert np.array_equal(getattr(loaded, field), getattr(expected, field))


@pytest.mark.parametrize(
    "text", ["id,age,v1\na,61,0.5\nb,72.5,-1\n", "age,v1\n61,0.5\n72.5,-1\n"]
)
def test_cohort_byte_order_mark_is_skipped(tmp_path, text):
    # spreadsheet programs save "CSV UTF-8" with a byte-order mark
    plain, bom = _bom(tmp_path / "c.csv", text)
    assert load_cohort(bom).feature_names == ("v1",)
    assert_same_cohort(load_cohort(bom), load_cohort(plain))


def test_scores_byte_order_mark_is_skipped(tmp_path):
    plain, bom = _bom(tmp_path / "s.csv", f"{','.join(SCORES_HEADER)}\na,61,HC,60,-1,0.5,0.25\n")
    assert load_scores(bom).subject_ids == ("a",)
    assert_same_scores(load_scores(bom), load_scores(plain))


def test_header_only_cohort_round_trips(tmp_path):
    empty = Cohort((), np.empty((0, 3)), ("v1", "v2", "v3"), np.empty(0), diagnosis=())
    path = tmp_path / "c.csv"
    save_cohort(empty, path)
    assert path.read_text() == "id,age,dx,v1,v2,v3\n"
    assert_same_cohort(load_cohort(str(path)), empty)


AWKWARD_TEXT = ('a,b', 'say "hi"', '"', ',', 'x\ny', 'c\rd', 'e\r\nf')


def test_text_cells_with_commas_and_quotes_round_trip(tmp_path):
    n = len(AWKWARD_TEXT)
    cohort = Cohort(
        AWKWARD_TEXT, np.arange(n, dtype=float)[:, None], ("v",), np.full(n, 50.0),
        diagnosis=AWKWARD_TEXT[::-1],
    )
    save_cohort(cohort, tmp_path / "c.csv")
    assert_same_cohort(load_cohort(tmp_path / "c.csv"), cohort)

    ones = np.ones(n)
    table = ScoresTable(AWKWARD_TEXT, 50 * ones, AWKWARD_TEXT[::-1], ones, ones, ones, ones)
    save_scores(table, tmp_path / "s.csv")
    assert_same_scores(load_scores(tmp_path / "s.csv"), table)


def test_score_text_cells_are_kept_as_written(tmp_path):
    # unlike a cohort's, a score file's id and diagnosis are not stripped
    # and the diagnosis may be empty
    ones = np.ones(2)
    table = ScoresTable((" a ", "b "), 50 * ones, ("", " HC"), ones, ones, ones, ones)
    save_scores(table, tmp_path / "s.csv")
    assert_same_scores(load_scores(tmp_path / "s.csv"), table)


def test_ids_synthesized_when_missing(tmp_path):
    cohort = load_cohort(write(tmp_path / "c.csv", "age,v1\n50,1\n60,2\n"))
    assert cohort.subject_ids == ("0", "1")
    assert cohort.sex is None and cohort.diagnosis is None


def test_sex_parsing_and_indicator(tmp_path):
    cohort = load_cohort(
        write(tmp_path / "c.csv", "age,sex,v1\n50,F,1\n60,M,2\n")
    )
    assert cohort.sex == ("F", "M")


def test_cohort_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    cohort = Cohort(
        subject_ids=("s1", "s2", "s3"),
        features=rng.normal(size=(3, 4)),
        feature_names=("a", "b", "c", "d"),
        age=rng.uniform(20, 80, 3),
        sex=("F", "M", "F"),
        diagnosis=("HC", "DX", "HC"),
    )
    path = tmp_path / "c.csv"
    save_cohort(cohort, path)
    loaded = load_cohort(str(path))
    assert np.array_equal(loaded.features, cohort.features)
    assert np.array_equal(loaded.age, cohort.age)
    assert loaded.subject_ids == cohort.subject_ids
    assert loaded.sex == cohort.sex
    assert loaded.diagnosis == cohort.diagnosis


def test_cohort_invariants():
    with pytest.raises(ValueError):
        Cohort(("a",), np.ones((2, 1)), ("v",), np.array([50.0, 60.0]))
    with pytest.raises(ValueError):
        Cohort(("a", "b"), np.ones((2, 2)), ("v", "v"), np.array([50.0, 60.0]))
    with pytest.raises(ValueError):
        Cohort(("a",), np.array([[np.nan]]), ("v",), np.array([50.0]))
    with pytest.raises(ValueError):
        Cohort(("a",), np.ones((1, 1)), ("v",), np.array([0.0]))
    with pytest.raises(ValueError, match="features must be a 2-D matrix"):
        Cohort(("a",), np.ones(1), ("v",), np.array([50.0]))
    with pytest.raises(ValueError, match="feature_names length must match"):
        Cohort(("a",), np.ones((1, 2)), ("v",), np.array([50.0]))
    with pytest.raises(ValueError, match="sex length must match"):
        Cohort(("a",), np.ones((1, 1)), ("v",), np.array([50.0]), sex=("F", "M"))


@pytest.mark.parametrize("role", ["id", "age", "sex", "dx", "diagnosis"])
def test_cohort_rejects_a_role_column_name_as_a_feature(role):
    # save_cohort would write it and load_cohort would read it back as the role
    with pytest.raises(ValueError, match="role column"):
        Cohort(("a",), np.ones((1, 2)), (role, "v"), np.array([50.0]))


@pytest.mark.parametrize(
    "field, value",
    [
        ("subject_ids", ("",)),
        ("subject_ids", (" a",)),
        ("subject_ids", (1,)),
        ("feature_names", ("",)),
        ("feature_names", ("v\t",)),
        ("sex", ("f",)),
        ("sex", ("",)),
        ("sex", (" F",)),
        ("diagnosis", ("",)),
        ("diagnosis", ("HC\n",)),
        ("feature_names", ("v\nw",)),
        ("feature_names", ("v\x0cw",)),
        ("feature_names", ("v\u2028w",)),
    ],
)
def test_cohort_rejects_text_that_load_cohort_would_reject_or_change(field, value):
    fields = {
        "subject_ids": ("a",), "features": np.ones((1, 1)), "feature_names": ("v",),
        "age": np.array([50.0]), field: value,
    }
    with pytest.raises(ValueError):
        Cohort(**fields)


def test_cohort_needs_a_feature_column():
    with pytest.raises(ValueError):
        Cohort(("a",), np.ones((1, 0)), (), np.array([50.0]))


# Any text, with extra weight on the characters CSV quoting and stripping act on.
_UNPADDED_TEXT = st.text(
    st.sampled_from(',"\r\n \t\x1c\x85\u2028') | st.characters(codec="utf-8"),
    min_size=1, max_size=5,
).filter(lambda text: text == text.strip())


@st.composite
def _cohorts(draw):
    n = draw(st.integers(0, 4))
    d = draw(st.integers(1, 3))
    names = draw(st.lists(
        _UNPADDED_TEXT.filter(lambda name: name not in ("id", "age", "sex", "dx", "diagnosis")
                              and name.splitlines() == [name]),
        min_size=d, max_size=d, unique=True,
    ))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = draw(st.lists(finite, min_size=n * d, max_size=n * d))
    ages = draw(st.lists(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=n, max_size=n
    ))
    column = st.lists(_UNPADDED_TEXT, min_size=n, max_size=n)
    return Cohort(
        subject_ids=draw(column),
        features=np.array(values, dtype=float).reshape(n, d),
        feature_names=names,
        age=np.array(ages, dtype=float),
        sex=draw(st.none() | st.lists(st.sampled_from(("F", "M")), min_size=n, max_size=n)),
        diagnosis=draw(st.none() | column),
    )


@settings(max_examples=150, deadline=None)
@given(cohort=_cohorts())
def test_every_cohort_round_trips_exactly(tmp_path_factory, cohort):
    path = tmp_path_factory.mktemp("round_trip") / "c.csv"
    save_cohort(cohort, path)
    assert_same_cohort(load_cohort(path), cohort)


def test_scores_epsilon_definition_written(tmp_path):
    table = ScoresTable(
        subject_ids=("s1",),
        age=np.array([65.0]),
        diagnosis=("HC",),
        y_hat=np.array([70.0]),
        epsilon=np.array([5.0]),
        cov=np.array([1.25]),
        cov_w=np.array([1.25]),
    )
    path = tmp_path / "s.csv"
    save_scores(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,age,diagnosis,y_hat,epsilon,cov,cov_w"
    assert lines[1].split(",")[4] == "5"


def test_scores_empty_table_and_round_trip(tmp_path):
    empty = ScoresTable((), np.array([]), (), np.array([]), np.array([]), np.array([]), np.array([]))
    path = tmp_path / "empty.csv"
    save_scores(empty, path)
    assert path.read_text().splitlines() == ["id,age,diagnosis,y_hat,epsilon,cov,cov_w"]
    assert load_scores(path).subject_ids == ()

    rng = np.random.default_rng(1)
    table = ScoresTable(
        subject_ids=("a", "b"),
        age=rng.uniform(20, 80, 2),
        diagnosis=("HC", "DX"),
        y_hat=rng.uniform(20, 80, 2),
        epsilon=rng.normal(size=2),
        cov=rng.uniform(0, 3, 2),
        cov_w=rng.uniform(0, 3, 2),
    )
    full = tmp_path / "s.csv"
    save_scores(table, full)
    loaded = load_scores(full)
    for field in ("age", "y_hat", "epsilon", "cov", "cov_w"):
        assert np.array_equal(getattr(loaded, field), getattr(table, field))


def test_scores_length_mismatch_is_contract_error():
    with pytest.raises(ValueError):
        ScoresTable(
            subject_ids=("a",),
            age=np.array([50.0]),
            diagnosis=("HC",),
            y_hat=np.array([50.0, 51.0]),
            epsilon=np.array([0.0]),
            cov=np.array([1.0]),
            cov_w=np.array([1.0]),
        )
    columns = _scores_columns()
    with pytest.raises(ValueError, match="diagnosis length must match"):
        ScoresTable(**{**columns, "diagnosis": columns["diagnosis"][:2]})


def _scores_columns():
    rng = np.random.default_rng(7)
    return dict(
        subject_ids=("a", "b", "c"),
        age=rng.uniform(20, 80, 3),
        diagnosis=("HC", "DX", "HC"),
        y_hat=rng.uniform(20, 80, 3),
        epsilon=rng.normal(size=3),
        cov=rng.uniform(0.5, 1.5, 3),
        cov_w=rng.uniform(0.5, 1.5, 3),
    )


@pytest.mark.parametrize("column", ["age", "y_hat", "epsilon", "cov", "cov_w"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scores_table_rejects_non_finite_values_naming_the_column(column, value):
    columns = _scores_columns()
    columns[column][1] = value
    with pytest.raises(ValueError, match=f"^{column} contains non-finite"):
        ScoresTable(**columns)


@pytest.mark.parametrize("column", ["cov", "cov_w"])
def test_scores_table_rejects_negative_variances(column):
    columns = _scores_columns()
    columns[column] = columns[column] - 2.0
    with pytest.raises(ValueError, match=f"^{column} must be nonnegative"):
        ScoresTable(**columns)


def test_save_sweep_flags_the_best_value(tmp_path):
    from normgp.stats import LySweepResult

    result = LySweepResult(
        rows=((1.0, 0.5), (10.0, 0.75), (math.inf, 0.625)), best_l_y=10.0, best_auc=0.75
    )
    path = tmp_path / "sweep.csv"
    tabular_io.save_sweep(result, path)
    assert path.read_text() == "l_y,auc,is_best\n1,0.5,0\n10,0.75,1\ninf,0.625,0\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_scores_non_finite_cell_names_row_and_column(tmp_path, value):
    path = tmp_path / "s.csv"
    path.write_text(
        "id,age,diagnosis,y_hat,epsilon,cov,cov_w\n"
        f"a,50,HC,51,1,0.5,0.5\nb,60,DX,58,-2,{value},0.7\n"
    )
    with pytest.raises(CohortParseError, match=r"row 3, column 'cov': non-finite"):
        load_scores(path)


@pytest.mark.parametrize("column", ["cov", "cov_w"])
def test_scores_negative_variance_cell_names_row_and_column(tmp_path, column):
    # a negative cov is reported before a later column's bad cell in an earlier row
    cells = {"cov": "0.5", "cov_w": "0.7"}
    cells[column] = " -1e-300"
    path = write(
        tmp_path / "s.csv",
        "id,age,diagnosis,y_hat,epsilon,cov,cov_w\n"
        f"a,50,HC,51,1,0.5,{'x' if column == 'cov' else 0.5}\n"
        f"b,60,DX,58,-2,{cells['cov']},{cells['cov_w']}\n",
    )
    with pytest.raises(
        CohortParseError,
        match=rf"^{re.escape(path)}: row 3, column '{column}': negative variance '-1e-300'$",
    ):
        load_scores(path)


def test_scores_header_enforced_on_load(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,age,dx,y_hat,epsilon,cov,cov_w\n")
    with pytest.raises(SchemaError):
        load_scores(path)


def _small_artifact(with_chain=False, length_scales=(1.5, 0.5)):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 2))
    y = rng.uniform(30, 70, 6)
    params = KernelParams(length_scales=np.asarray(length_scales), noise_variance=0.2)
    standardizer = pca = None
    feature_names = ("f1", "f2")
    if with_chain:
        raw = rng.normal(size=(6, 3))
        feature_names = ("f1", "f2", "f3")
        standardizer = fit_standardizer(raw)
        pca = fit_pca(standardizer.apply(raw), 2)
        x = pca.project(standardizer.apply(raw))
    model = restore(x, y, params, SUM, y_offset=float(y.mean()))
    return artifact_from_fit(
        model, feature_names, standardizer=standardizer, pca=pca, seed=5
    )


def _artifact_with_chain(standardizer, pca):
    """The small model with the given parts of its chain (without PCA, on three columns)."""
    full = _small_artifact(with_chain=True)
    if standardizer and pca:
        return full
    x = full.training_features
    if not pca:
        x = np.random.default_rng(8).normal(size=(x.shape[0], 3))
    params = KernelParams(length_scales=np.ones(x.shape[1]), noise_variance=0.2)
    return artifact_from_fit(
        restore(x, full.training_ages, params, SUM),
        full.feature_names,
        standardizer=full.standardizer if standardizer else None,
        pca=full.pca if pca else None,
        seed=5,
    )


def test_model_round_trip_field_for_field(tmp_path):
    for standardizer, pca in ((True, True), (False, False), (True, False), (False, True)):
        artifact = _artifact_with_chain(standardizer, pca)
        path = tmp_path / f"model-{standardizer}-{pca}.gp"
        save_model(artifact, path)
        text = path.read_text()
        assert ("\nstandardizer 1\n" in text) == standardizer
        assert ("\npca 1\n" in text) == pca
        loaded = load_model(path)
        assert loaded.kernel_form == artifact.kernel_form
        assert loaded.feature_names == artifact.feature_names
        assert loaded.y_offset == artifact.y_offset
        assert np.array_equal(loaded.training_features, artifact.training_features)
        assert np.array_equal(loaded.training_ages, artifact.training_ages)
        assert np.array_equal(
            loaded.kernel_params.length_scales, artifact.kernel_params.length_scales
        )
        assert loaded.kernel_params.noise_variance == artifact.kernel_params.noise_variance
        if standardizer:
            assert np.array_equal(loaded.standardizer.means, artifact.standardizer.means)
            assert np.array_equal(loaded.standardizer.std_devs, artifact.standardizer.std_devs)
        else:
            assert loaded.standardizer is None
        if pca:
            assert np.array_equal(loaded.pca.components, artifact.pca.components)
            assert np.array_equal(loaded.pca.mean, artifact.pca.mean)
            assert np.array_equal(
                loaded.pca.explained_variance, artifact.pca.explained_variance
            )
        else:
            assert loaded.pca is None
        assert loaded.fit_metadata == artifact.fit_metadata
        # the loaded artifact writes the same bytes again
        again = tmp_path / "again.gp"
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def _edited_model(tmp_path, edit):
    """Save the small model with its standardizer and PCA, apply ``edit`` to its lines."""
    path = tmp_path / "model.gp"
    save_model(_small_artifact(with_chain=True), path)
    lines = path.read_text().splitlines()
    edited = tmp_path / "edited.gp"
    edited.write_text("\n".join(edit(lines)) + "\n")
    return edited


def _replace_header(tag, new):
    def edit(lines):
        at = next(i for i, line in enumerate(lines) if line.split()[:1] == [tag])
        return lines[:at] + [new] + lines[at + 1:]
    return edit


def _replace_after_header(tag, offset, new):
    def edit(lines):
        at = next(i for i, line in enumerate(lines) if line.split()[:1] == [tag]) + offset
        return lines[:at] + [new(lines[at])] + lines[at + 1:]
    return edit


def _without_training_rows(lines):
    features = lines.index("training_features 6 2")
    ages = lines.index("training_ages 6")
    return (lines[:features] + ["training_features 0 2", "training_ages 0", ""]
            + lines[ages + 2:])


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (_replace_header("y_offset", "offset 1.5"), ModelFormatError, "expected 'y_offset'"),
        (_replace_header("feature_names", "feature_names three"), ModelFormatError,
         "'feature_names' expects int"),
        (_replace_header("training_features", "training_features 6"), ModelFormatError,
         "malformed 'training_features'"),
        (_replace_header("seed", "seed 1 2"), ModelFormatError, "malformed 'seed'"),
        (_replace_after_header("length_scales", 1, lambda line: "x " + line.split(" ", 1)[1]),
         ModelFormatError, "'length_scales' row contains a non-numeric value"),
        (_replace_after_header("means", 1, lambda line: line + " abc"), ModelFormatError,
         "'means' row has 4 values"),
        (_replace_after_header("components", 2, lambda line: line.rsplit(" ", 1)[0]),
         ModelFormatError, "'components' row has 2 values, expected 3"),
        (_replace_header("standardizer", "standardizer 2"), ModelFormatError,
         "standardizer flag must be 0 or 1"),
        (_replace_header("pca", "pca -1"), ModelFormatError, "pca flag must be 0 or 1"),
        (_replace_header("training_ages", "training_ages -6"), ModelFormatError,
         "non-negative"),
        (_replace_header("kernel_form", "kernel_form cubic"), ModelFormatError,
         "unknown kernel form 'cubic'"),
        (lambda lines: lines[:lines.index("training_features 6 2") + 3], ModelFormatError,
         "truncated"),
        (lambda lines: lines[:-1] + ["fin"], ModelFormatError, "'end' terminator"),
        (_without_training_rows, ModelFormatError, "edited.gp: .*no training rows"),
        (_replace_header("y_offset", "y_offset nan"), ModelFormatError,
         "edited.gp: .*y_offset must be finite"),
        (_replace_after_header("training_ages", 1,
                               lambda line: "nan " + line.split(" ", 1)[1]),
         ModelFormatError, "edited.gp: .*training_ages contains non-finite"),
        (_replace_after_header("training_features", 3,
                               lambda line: line.split(" ", 1)[0] + " inf"),
         ModelFormatError, "edited.gp: .*training_features contains non-finite"),
        (lambda lines: ["normative-gp-model vX", *lines[1:]], ModelFormatError,
         "malformed version 'vX'"),
        (_replace_after_header("std_devs", 1, lambda line: "0 " + line.split(" ", 1)[1]),
         ModelFormatError, "inconsistent model contents: std_devs must be strictly positive"),
        (_replace_header("restarts_used", "restarts_used 2"), ModelFormatError,
         "inconsistent model contents: restarts_used is 2, but 1 restarts are stored"),
        (_replace_header("chosen_restart", "chosen_restart 1"), ModelFormatError,
         "inconsistent model contents: chosen_restart 1 is outside restarts 0-0"),
        (_replace_header("log_marginal", "log_marginal -1000.5"), ModelFormatError,
         "inconsistent model contents: log_marginal -1000.5 is not the chosen -?[0-9]"),
    ],
    ids=["wrong-tag", "non-integer-count", "matrix-header-arity", "int-header-arity",
         "non-numeric-vector-value", "vector-row-width", "matrix-row-width",
         "standardizer-2", "pca-negative", "negative-length", "unknown-kernel",
         "cut-inside-matrix", "no-end", "no-training-rows", "non-finite-y-offset",
         "nan-training-age", "inf-training-feature", "malformed-version", "zero-std-dev",
         "restarts-used", "chosen-restart", "log-marginal"],
)
def test_model_malformed_section(tmp_path, edit, error, message):
    # every message names the file, once, at its start
    path = _edited_model(tmp_path, edit)
    with pytest.raises(error, match=message) as caught:
        load_model(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert str(caught.value).count(str(path)) == 1


def test_model_round_trip_preserves_tiny_length_scale(tmp_path):
    artifact = _small_artifact(length_scales=(1e-12, 2.0))
    path = tmp_path / "model.gp"
    save_model(artifact, path)
    loaded = load_model(path)
    assert loaded.kernel_params.length_scales[0] == 1e-12


def test_model_unsupported_version(tmp_path):
    artifact = _small_artifact()
    path = tmp_path / "model.gp"
    save_model(artifact, path)
    text = path.read_text()
    bad = tmp_path / "v999.gp"
    bad.write_text(text.replace("normative-gp-model v1", "normative-gp-model v999", 1))
    with pytest.raises(ModelFormatError, match="999"):
        load_model(bad)
    garbage = tmp_path / "garbage.gp"
    garbage.write_text("something else entirely\n")
    with pytest.raises(ModelFormatError):
        load_model(garbage)


def test_model_truncation_is_integrity_error(tmp_path):
    artifact = _small_artifact(with_chain=True)
    path = tmp_path / "model.gp"
    save_model(artifact, path)
    lines = path.read_text().splitlines()
    for cut in (len(lines) // 3, len(lines) - 1):
        clipped = tmp_path / f"cut{cut}.gp"
        clipped.write_text("\n".join(lines[:cut]) + "\n")
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(clipped)


def test_model_trailing_content_rejected(tmp_path):
    artifact = _small_artifact()
    path = tmp_path / "model.gp"
    save_model(artifact, path)
    extended = tmp_path / "extra.gp"
    extended.write_text(path.read_text() + "surplus line\n")
    with pytest.raises(ModelFormatError):
        load_model(extended)


def test_scores_from_reloaded_model_match(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 3))
    y = rng.uniform(20, 80, 15)
    model = fit(x, y, FitConfig(restarts=1, seed=0))
    artifact = artifact_from_fit(model, ("a", "b", "c"))
    path = tmp_path / "model.gp"
    save_model(artifact, path)
    revived = to_trained_model(load_model(path))
    x_test = rng.normal(size=(4, 3))
    original = predict(model, x_test)
    reloaded = predict(revived, x_test)
    assert np.allclose(reloaded.y_hat, original.y_hat, rtol=1e-12, atol=1e-12)
    assert np.allclose(reloaded.variance, original.variance, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("case", ["sum", "product", "jittered"])
def test_model_rebuilt_from_its_file_is_the_fitted_model(tmp_path, case):
    # the file holds everything the factorization depends on, so the model
    # rebuilt from it is the fitted one bit for bit, jitter included
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 3))
    y = rng.uniform(20, 80, 12)
    if case == "jittered":
        # duplicate rows at zero noise: singular until jitter is added
        x, y = np.vstack([x, x[:4]]), np.concatenate([y, y[:4] + 1.0])
        params = KernelParams(length_scales=np.array([0.7, 1.3, 0.9]), noise_variance=0.0)
        model = restore(x, y, params, SUM, y_offset=float(y.mean()))
        assert model.jitter > 0.0
    else:
        model = fit(x, y, FitConfig(form=case, restarts=3, seed=2))
    path = tmp_path / "model.gp"
    save_model(artifact_from_fit(model, ("a", "b", "c"), seed=2), path)
    rebuilt = to_trained_model(load_model(path))
    assert np.array_equal(rebuilt.chol, model.chol)
    assert np.array_equal(rebuilt.alpha, model.alpha)
    assert rebuilt.jitter == model.jitter
    assert rebuilt.log_marginal_likelihood == model.log_marginal_likelihood
    assert rebuilt.restart_log_marginals == model.restart_log_marginals
    assert rebuilt.chosen_restart == model.chosen_restart


def test_uncentred_model_file_scores_as_before(tmp_path):
    # a file written before ages were always centred stores y_offset 0,
    # and it still scores exactly like the model it was written from
    rng = np.random.default_rng(6)
    x = rng.normal(size=(12, 3))
    y = rng.uniform(20, 80, 12)
    params = KernelParams(length_scales=np.array([0.7, 1.3, 0.9]), noise_variance=0.3)
    path = tmp_path / "model.gp"
    save_model(artifact_from_fit(restore(x, y, params, SUM), ("a", "b", "c")), path)
    assert "\ny_offset 0\n" in path.read_text()
    x_test = rng.normal(size=(5, 3))
    loaded = predict(to_trained_model(load_model(path)), x_test)
    expected = predict(restore(x, y, params, SUM, y_offset=0.0), x_test)
    assert np.array_equal(loaded.y_hat, expected.y_hat)
    assert np.array_equal(loaded.variance, expected.variance)


def test_artifact_dimension_validation():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 2))
    y = rng.uniform(20, 80, 5)
    model = restore(x, y, KernelParams(length_scales=np.ones(2)), SUM)
    with pytest.raises(ValueError):
        artifact_from_fit(model, ("only_one",))
    # the chained model: three raw features, a standardizer, two components
    artifact = _small_artifact(with_chain=True)
    for change, message in (
        ({"training_ages": artifact.training_ages[:-1]}, "row counts must match"),
        ({"kernel_params": KernelParams(length_scales=np.ones(3))}, "dimensionality must match"),
        ({"standardizer": Standardizer(np.zeros(2), np.ones(2))}, "standardizer dimension"),
        ({"pca": PcaTransform(np.zeros(2), np.eye(2), np.ones(2))}, "pca input dimension"),
    ):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(artifact, **change)


@pytest.mark.parametrize("brk", ["\n", "\x0c", "\u2028"], ids=["lf", "ff", "ls"])
def test_artifact_rejects_a_feature_name_that_is_not_one_line(tmp_path, brk):
    # save_model writes one name a line and load_model splits the file with
    # str.splitlines, so such a name once saved into a file that does not load
    model = to_trained_model(_small_artifact())
    with pytest.raises(ValueError, match="must be one line"):
        artifact_from_fit(model, (f"a{brk}b", "c"))
    path = tmp_path / "model.gp"
    save_model(artifact_from_fit(model, ("", "c")), path)
    assert load_model(path).feature_names == ("", "c")


def test_atomic_write_failure_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    # A lone surrogate cannot be encoded, so the write fails midway.
    with pytest.raises(UnicodeEncodeError):
        tabular_io._atomic_write_text(target, "new\ud800\n")
    assert target.read_text() == "old\n"
    # A directory in the way makes the final rename fail.
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    with pytest.raises(OSError):
        tabular_io._atomic_write_text(blocked, "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "out.csv"]


def test_atomic_writers_of_one_path_do_not_collide(tmp_path, monkeypatch):
    # A second writer runs to completion while the first sits between
    # writing its temp file and renaming it: both must land, last one wins.
    target = tmp_path / "out.csv"
    real_replace = os.replace
    calls = []

    def interleaved_replace(src, dst):
        calls.append(src)
        if len(calls) == 1:
            tabular_io._atomic_write_text(target, "second\n")
        real_replace(src, dst)

    monkeypatch.setattr(tabular_io.os, "replace", interleaved_replace)
    tabular_io._atomic_write_text(target, "first\n")
    assert len(calls) == 2 and calls[0] != calls[1]
    assert target.read_text() == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
