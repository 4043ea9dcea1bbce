import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import normgp
from conftest import BENCH_SCORE_PARAMS
from normgp import metrics
from normgp.cli import main
from normgp.gpr import restore
from normgp.kernels import SUM
from normgp.seeding import FOLDS, substream
from normgp.synth import SynthConfig, generate_cohort
from normgp.tabular_io import (
    Cohort,
    ScoresTable,
    artifact_from_fit,
    load_cohort,
    load_model,
    load_scores,
    save_cohort,
    save_model,
    save_scores,
)


def _synth(tmp_path, name="train.csv", **overrides):
    args = {
        "--mode": "orthogonal",
        "--n-healthy": "30",
        "--n-diseased": "0",
        "--n-features": "4",
        "--seed": "9",
    }
    args.update(overrides)
    out = tmp_path / name
    argv = ["synth", "--out", str(out)]
    for key, value in args.items():
        argv.extend([key, value])
    assert main(argv) == 0
    return out


def _fit(tmp_path, train, name="model.normgp", extra=()):
    model = tmp_path / name
    argv = [
        "fit",
        str(train),
        "--out",
        str(model),
        "--restarts",
        "1",
        "--folds",
        "3",
        *extra,
    ]
    assert main(argv) == 0
    return model


def test_full_pipeline(tmp_path, capsys):
    train = _synth(tmp_path)
    test = _synth(
        tmp_path, name="test.csv", **{"--n-diseased": "20", "--seed": "10"}
    )
    model = _fit(tmp_path, train)
    report_path = tmp_path / "model.normgp.report.json"
    assert report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["command"] == "fit"
    assert report["data"]["n_subjects"] == 30
    assert report["data"]["n_features"] == 4
    assert report["model"]["kernel_form"] == "sum"
    assert len(report["model"]["length_scales"]) == 4
    assert report["quality"]["folds"] == 3
    assert report["quality"]["protocol"] == metrics.CV_PROTOCOL
    for fold in report["quality"]["per_fold"]:
        assert fold["log_marginal_likelihood"] >= fold["start_log_marginal_likelihood"]
    assert report["model"]["jitter"] == 0.0

    scores = tmp_path / "scores.csv"
    assert main(["score", str(model), str(test), "--out", str(scores)]) == 0
    table = load_scores(scores)
    assert table.n_subjects == 50
    # default age weighting is infinite: weighted and plain variances agree
    assert np.max(np.abs(table.cov_w - table.cov)) <= 1e-12

    evaluation = tmp_path / "eval.json"
    assert main(["evaluate", str(scores), "--out", str(evaluation)]) == 0
    payload = json.loads(evaluation.read_text())
    assert set(payload["metrics"]) == {"epsilon", "cov", "cov_w"}
    for entry in payload["metrics"].values():
        assert 0.0 <= entry["auc"] <= 1.0
    out = capsys.readouterr().out
    assert "auc" in out.lower()

    sweep = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "sweep",
                str(model),
                str(test),
                "--out",
                str(sweep),
                "--ly-grid",
                "10,100,inf",
            ]
        )
        == 0
    )
    lines = sweep.read_text().splitlines()
    assert lines[0] == "l_y,auc,is_best"
    assert len(lines) == 4
    assert sum(line.endswith(",1") for line in lines[1:]) == 1


def test_diagnosis_column_runs_fit_score_and_sweep(tmp_path):
    train = _synth(tmp_path)
    test = _synth(tmp_path, name="test.csv", **{"--n-diseased": "20", "--seed": "10"})
    renamed = tmp_path / "renamed.csv"
    header, body = test.read_text().split("\n", 1)
    assert header.split(",")[2] == "dx"
    renamed.write_text(header.replace(",dx,", ",diagnosis,", 1) + "\n" + body)
    retrained = tmp_path / "retrained.csv"
    header, body = train.read_text().split("\n", 1)
    retrained.write_text(header.replace(",dx,", ",diagnosis,", 1) + "\n" + body)
    model = _fit(tmp_path, retrained)
    assert model.read_bytes() == _fit(tmp_path, train, name="dx.normgp").read_bytes()
    outputs = {}
    for name, cohort in (("dx", test), ("diagnosis", renamed)):
        scores = tmp_path / f"scores-{name}.csv"
        sweep = tmp_path / f"sweep-{name}.csv"
        assert main(["score", "-q", str(model), str(cohort), "--out", str(scores)]) == 0
        assert main(["sweep", "-q", str(model), str(cohort), "--out", str(sweep),
                     "--ly-grid", "10,inf"]) == 0
        outputs[name] = (scores.read_bytes(), sweep.read_bytes())
    assert outputs["diagnosis"] == outputs["dx"]
    assert set(load_scores(tmp_path / "scores-diagnosis.csv").diagnosis) == {"HC", "DX"}


def test_score_with_finite_age_scale_differs(tmp_path):
    train = _synth(tmp_path)
    test = _synth(tmp_path, name="test.csv", **{"--seed": "11"})
    model = _fit(tmp_path, train)
    plain = tmp_path / "plain.csv"
    weighted = tmp_path / "weighted.csv"
    assert main(["score", str(model), str(test), "--out", str(plain)]) == 0
    assert (
        main(
            [
                "score",
                str(model),
                str(test),
                "--out",
                str(weighted),
                "--age-length-scale",
                "10",
            ]
        )
        == 0
    )
    a = load_scores(plain)
    b = load_scores(weighted)
    assert np.array_equal(a.cov, b.cov)
    assert not np.array_equal(a.cov_w, b.cov_w)
    assert np.all(b.cov_w >= b.cov - 1e-12)


def test_age_length_scale_whose_square_underflows_exits_2(tmp_path, capsys):
    # at l_y = 1e-200 the age factor of equal ages was 0 / -0.0 = nan
    train = _synth(tmp_path)
    test = _synth(tmp_path, name="test.csv", **{"--n-diseased": "20", "--seed": "10"})
    model = _fit(tmp_path, train)
    capsys.readouterr()
    assert main(["score", str(model), str(train), "--out", str(tmp_path / "scores.csv"),
                 "--age-length-scale", "1e-200"]) == 2
    assert main(["sweep", str(model), str(test), "--out", str(tmp_path / "sweep.csv"),
                 "--ly-grid", "10,1e-200"]) == 2
    assert capsys.readouterr().err.count("age_length_scale 1e-200 is below") == 2
    assert not (tmp_path / "scores.csv").exists() and not (tmp_path / "sweep.csv").exists()


def test_absurd_but_finite_ages_are_a_numerical_failure(tmp_path, capsys):
    # one age of 1e200 overflows y' alpha, so no model exists at any
    # hyperparameters: each command exits 3, with no warning on the way
    train = _synth(tmp_path, **{"--n-healthy": "80"})
    cohort = load_cohort(train)
    ages = cohort.age.copy()
    ages[3] = 1e200
    absurd = tmp_path / "absurd.csv"
    save_cohort(dataclasses.replace(cohort, age=ages), absurd)
    model = _fit(tmp_path, train)
    artifact = load_model(model)
    bad = tmp_path / "bad.normgp"
    save_model(dataclasses.replace(artifact, training_ages=ages), bad)
    capsys.readouterr()
    runs = (
        ["fit", str(absurd), "--out", str(tmp_path / "absurd.normgp"),
         "--restarts", "1", "--folds", "2"],
        ["score", str(bad), str(train), "--out", str(tmp_path / "scores.csv")],
        ["sweep", str(bad), str(train), "--out", str(tmp_path / "sweep.csv")],
    )
    for argv in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "RuntimeWarning" not in err
        if argv[0] != "fit":
            assert f"model {bad}: the log marginal likelihood is not finite" in err
    assert not any(tmp_path.glob("absurd.normgp*"))
    assert not (tmp_path / "scores.csv").exists() and not (tmp_path / "sweep.csv").exists()


def _normgp(env, *argv):
    result = subprocess.run([sys.executable, "-m", "normgp", *map(str, argv), "-q"],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_fit_and_score_agree_across_blas_thread_counts(tmp_path):
    # outputs are byte-identical only for one BLAS thread count; across
    # counts the numbers may move only by rounding
    train = _synth(tmp_path, **{"--n-healthy": "60", "--n-features": "8"})
    normative = generate_cohort(SynthConfig(n_healthy=300, seed=21, trajectory_seed=1804))
    fixed = restore(normative.features, normative.age, BENCH_SCORE_PARAMS, SUM,
                    y_offset=float(np.mean(normative.age)))
    model = tmp_path / "fixed.normgp"
    save_model(artifact_from_fit(fixed, normative.feature_names), model)
    test = tmp_path / "test.csv"
    save_cohort(generate_cohort(SynthConfig(
        n_healthy=200, n_diseased=200, deviation_mode="orthogonal", deviation_magnitude=4.0,
        seed=22, trajectory_seed=1804,
    )), test)
    src = str(Path(normgp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / threads
        out.mkdir()
        _normgp(env, "fit", train, "--out", out / "fit.normgp", "--restarts", "2", "--folds", "3")
        _normgp(env, "score", model, test, "--out", out / "inf.csv")
        _normgp(env, "score", model, test, "--out", out / "ten.csv",
                "--age-length-scale", "10", "--age-noise", "0.1")
        report = json.loads((out / "fit.normgp.report.json").read_text())
        runs[threads] = (report["model"]["log_marginal_likelihood"],
                         [load_scores(out / name) for name in ("inf.csv", "ten.csv")])
    (lml_1, scores_1), (lml_2, scores_2) = runs["1"], runs["2"]
    assert lml_1 == pytest.approx(lml_2, rel=1e-12, abs=0.0)
    for one, two in zip(scores_1, scores_2):
        for name in ("y_hat", "cov", "cov_w"):
            np.testing.assert_allclose(getattr(one, name), getattr(two, name), rtol=1e-9, atol=0.0)


def test_fit_is_deterministic_byte_for_byte(tmp_path):
    train = _synth(tmp_path)
    first = _fit(tmp_path, train, name="a.normgp", extra=("--seed", "7"))
    second = _fit(tmp_path, train, name="b.normgp", extra=("--seed", "7"))
    assert first.read_bytes() == second.read_bytes()
    report_a = (tmp_path / "a.normgp.report.json").read_text()
    report_b = (tmp_path / "b.normgp.report.json").read_text()
    # reports differ only in the paths they record
    da, db = json.loads(report_a), json.loads(report_b)
    del da["config"], db["config"]
    assert da == db


@pytest.mark.parametrize("restarts, folds", [(1, 3), (3, 2)])
def test_fit_runs_one_optimizer_per_restart_and_per_fold(tmp_path, monkeypatch, restarts, folds):
    from scipy import optimize

    calls = []
    minimize = optimize.minimize
    monkeypatch.setattr(optimize, "minimize", lambda *a, **k: calls.append(1) or minimize(*a, **k))
    train = _synth(tmp_path)
    argv = ["fit", str(train), "--out", str(tmp_path / "m"), "--standardize",
            "--restarts", str(restarts), "--folds", str(folds), "-q"]
    assert main(argv) == 0
    assert len(calls) == restarts + folds


def _fold_breaking_cohort(case):
    """A cohort whose preprocessing and GP fit work on all rows but not on
    one fold's training rows (seed 0), the fit options that show it, and
    what the error says: the fold with its training-row count, and the
    limit those rows break."""
    rng = np.random.default_rng(13)
    if case == "standardize":
        # a site indicator set only in fold 2's held-out rows
        features = rng.normal(size=(20, 3))
        held_out = np.array_split(substream(0, FOLDS).permutation(20), 4)[2]
        features[:, 1] = 0.0
        features[held_out, 1] = 1.0
        options = ("--folds", "4", "--standardize")
        expected = ("fold 2 (of folds 0-3) has 15 training rows", "constant column at index 1")
    elif case == "pca":
        # 12 rows carry 10 components; 9 training rows carry at most 8
        features = rng.normal(size=(12, 10))
        options = ("--folds", "4", "--pca", "10")
        expected = ("fold 0 (of folds 0-3) has 9 training rows", "n_features) = 8 available")
    else:
        # 2 or 3 rows in 2 folds: fold 0 leaves one row to fit a GP on
        features = rng.normal(size=(int(case[0]), 2))
        options = ("--folds", "2")
        expected = ("fold 0 (of folds 0-1) has 1 training rows", "at least 2 training rows")
    m, d = features.shape
    cohort = Cohort(
        tuple(f"s{i}" for i in range(m)), features, tuple(f"v{j}" for j in range(d)),
        np.linspace(20.0, 80.0, m),
    )
    return cohort, options, expected


@pytest.mark.parametrize("case", ["standardize", "pca", "2 rows", "3 rows"])
def test_fit_names_a_fold_whose_rows_cannot_carry_the_preprocessing(
    tmp_path, monkeypatch, capsys, case
):
    from scipy import optimize

    calls = []
    monkeypatch.setattr(optimize, "minimize", lambda *a, **k: calls.append(1))
    cohort, options, expected = _fold_breaking_cohort(case)
    train = tmp_path / "train.csv"
    save_cohort(cohort, train)
    model = tmp_path / "m.normgp"
    argv = ["fit", str(train), "--out", str(model), "--seed", "0", *options]
    assert main(argv) == 2
    named, limit = expected
    err = capsys.readouterr().err
    assert err.startswith(f"error: cross-validation {named}, ") and limit in err
    # the check runs before any optimizer run, and nothing is written
    assert calls == []
    assert list(tmp_path.iterdir()) == [train]


def test_fit_report_has_exactly_these_keys(tmp_path):
    _fit(tmp_path, _synth(tmp_path))
    report = json.loads((tmp_path / "model.normgp.report.json").read_text())
    assert set(report) == {"command", "config", "data", "model", "quality", "warnings"}
    assert report["warnings"] == []
    assert set(report["config"]) == {
        "train_csv", "out", "report", "kernel", "pca", "standardize",
        "restarts", "folds", "seed",
    }
    assert set(report["quality"]) == {"mae", "r2", "folds", "protocol", "per_fold"}
    assert [set(fold) for fold in report["quality"]["per_fold"]] == [{
        "fold", "mae", "r2", "start_log_marginal_likelihood", "log_marginal_likelihood",
    }] * 3
    assert [fold["fold"] for fold in report["quality"]["per_fold"]] == [0, 1, 2]


def test_fit_warns_when_the_model_explains_nothing(tmp_path, capsys):
    # constant features carry no age signal, so either kernel fits pure noise
    ages = np.random.default_rng(0).uniform(20.0, 80.0, 30)
    train = tmp_path / "train.csv"
    ids = tuple(f"s{i}" for i in range(30))
    save_cohort(Cohort(ids, np.ones((30, 3)), ("a", "b", "c"), ages), train)
    for form in ("sum", "product"):
        argv = ["fit", str(train), "--out", str(tmp_path / form), "--kernel", form,
                "--restarts", "1", "--folds", "3", "-q"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        report = json.loads((tmp_path / f"{form}.report.json").read_text())
        assert report["quality"]["r2"] <= 0.0
        assert report["model"]["noise_variance"] >= np.var(load_cohort(train).age)
        assert len(report["warnings"]) == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [f"warning: {text}" for text in report["warnings"]]


def test_center_ages_option_is_hidden_and_inert(tmp_path, capsys):
    # kept only so older command lines still parse; ages are always centred
    train = _synth(tmp_path)
    plain = _fit(tmp_path, train, name="plain")
    flagged = _fit(tmp_path, train, name="flagged", extra=("--center-ages",))
    assert plain.read_bytes() == flagged.read_bytes()
    reports = [json.loads(tmp_path.joinpath(f"{name}.report.json").read_text())
               for name in ("plain", "flagged")]
    for report in reports:
        del report["config"]["out"], report["config"]["report"]
    assert reports[0] == reports[1]
    capsys.readouterr()
    assert main(["fit", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--seed" in usage and "--center-ages" not in usage


def test_fit_has_no_iteration_cap_option(tmp_path, capsys):
    train = _synth(tmp_path)
    argv = ["fit", str(train), "--out", str(tmp_path / "m"), "--max-iterations", "5"]
    assert main(argv) == 2
    assert "--max-iterations" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_synth_is_deterministic_byte_for_byte(tmp_path):
    a = _synth(tmp_path, name="a.csv")
    b = _synth(tmp_path, name="b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_standardize_and_pca_options(tmp_path):
    train = _synth(tmp_path, **{"--n-healthy": "25"})
    model = _fit(
        tmp_path, train, extra=("--standardize", "--pca", "2", "--report", str(tmp_path / "r.json"))
    )
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["data"]["n_model_dimensions"] == 2
    assert len(report["model"]["length_scales"]) == 2
    test = _synth(tmp_path, name="test.csv", **{"--seed": "12"})
    scores = tmp_path / "scores.csv"
    assert main(["score", str(model), str(test), "--out", str(scores)]) == 0


def test_pca_with_too_few_subjects_fails(tmp_path, capsys):
    train = _synth(tmp_path, **{"--n-healthy": "20"})
    code = main(
        ["fit", str(train), "--out", str(tmp_path / "m"), "--pca", "50", "--folds", "3"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_single_group_fails(tmp_path, capsys):
    train = _synth(tmp_path)
    model = _fit(tmp_path, train)
    scores = tmp_path / "scores.csv"
    assert main(["score", str(model), str(train), "--out", str(scores)]) == 0
    code = main(["evaluate", str(scores), "--out", str(tmp_path / "e.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_rejects_a_non_finite_score(tmp_path, capsys):
    # a NaN must not reach the statistics, where it once read as a perfect
    # correlation; the file is refused with its row and column
    rows = ["id,age,diagnosis,y_hat,epsilon,cov,cov_w"]
    for i, (dx, eps, cov) in enumerate(
        [("HC", 0.5, 1.0), ("HC", -1.0, 1.2), ("DX", 2.0, 1.1), ("DX", -0.5, "nan")]
    ):
        rows.append(f"s{i},50,{dx},50,{eps},{cov},{cov}")
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(rows) + "\n")
    report = tmp_path / "e.json"
    code = main(["evaluate", str(scores), "--out", str(report), "--metrics", "epsilon"])
    assert code == 2
    assert "row 5, column 'cov'" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_unknown_or_empty_metric_exits_2(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "id,age,diagnosis,y_hat,epsilon,cov,cov_w\n"
        "a,50,HC,51,1,0.5,0.5\nb,60,DX,58,-2,0.6,0.7\n"
    )
    report = tmp_path / "e.json"
    for metrics in ("cov,nope", " , "):
        assert main(["evaluate", str(scores), "--out", str(report), "--metrics", metrics]) == 2
        assert "error:" in capsys.readouterr().err
    assert not report.exists()


def test_option_defaults_come_from_the_library():
    from normgp.cli import _build_parser, _parse_grid
    from normgp.gpr import FitConfig
    from normgp.stats import DEFAULT_LY_GRID

    parser = _build_parser()
    fit_args = parser.parse_args(["fit", "train.csv", "--out", "model"])
    config = FitConfig()
    assert (fit_args.kernel, fit_args.restarts, fit_args.seed) == (
        config.form, config.restarts, config.seed
    )
    sweep_args = parser.parse_args(["sweep", "model", "test.csv", "--out", "sweep.csv"])
    assert _parse_grid(sweep_args.ly_grid) == DEFAULT_LY_GRID


def test_score_missing_age_column_fails(tmp_path, capsys):
    train = _synth(tmp_path)
    model = _fit(tmp_path, train)
    bad = tmp_path / "bad.csv"
    bad.write_text("id,v1,v2,v3,v4\na,1,2,3,4\n")
    code = main(["score", str(model), str(bad), "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_truncated_model_file_fails_with_schema_exit(tmp_path, capsys):
    train = _synth(tmp_path)
    model = _fit(tmp_path, train)
    raw = model.read_bytes()
    clipped = tmp_path / "clipped.normgp"
    clipped.write_bytes(raw[: len(raw) // 2])
    code = main(["score", str(clipped), str(train), "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda text: text.split("training_features ")[0] + "training_features 0 4\n"
         + "training_ages 0\n\n" + "log_marginal" + text.split("\nlog_marginal", 1)[1],
         "no training rows"),
        (lambda text: "\n".join("y_offset nan" if line.startswith("y_offset ") else line
                                for line in text.split("\n")),
         "y_offset must be finite"),
    ],
    ids=["no-training-rows", "non-finite-y-offset"],
)
def test_degenerate_model_file_fails_score_and_sweep_with_schema_exit(
    tmp_path, capsys, edit, reason
):
    train = _synth(tmp_path)
    model = _fit(tmp_path, train)
    bad = tmp_path / "bad.normgp"
    bad.write_text(edit(model.read_text()))
    capsys.readouterr()
    for stage in ("score", "sweep"):
        out = tmp_path / f"{stage}.csv"
        assert main([stage, str(bad), str(train), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and reason in err
        assert not out.exists()


def test_missing_input_file_gives_io_exit(tmp_path, capsys):
    code = main(
        ["score", str(tmp_path / "nope.model"), str(tmp_path / "nope.csv"), "--out", str(tmp_path / "s.csv")]
    )
    assert code == 1
    assert "io error:" in capsys.readouterr().err


def test_sweep_single_value_grid(tmp_path):
    train = _synth(tmp_path)
    test = _synth(tmp_path, name="t.csv", **{"--n-diseased": "10", "--seed": "13"})
    model = _fit(tmp_path, train)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(model), str(test), "--out", str(out), "--ly-grid", "100"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",1")


def test_unknown_flag_exits_2(capsys):
    assert main(["synth", "--out", "x.csv", "--n-healthy", "5", "--frobnicate"]) == 2
    capsys.readouterr()


def test_invalid_mode_exits_2(tmp_path, capsys):
    code = main(
        ["synth", "--out", str(tmp_path / "x.csv"), "--n-healthy", "5", "--mode", "diag"]
    )
    assert code == 2
    capsys.readouterr()


def test_bad_age_range_exits_2(tmp_path, capsys):
    code = main(
        [
            "synth",
            "--out",
            str(tmp_path / "x.csv"),
            "--n-healthy",
            "5",
            "--age-min",
            "70",
            "--age-max",
            "30",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_quiet_flag_silences_progress(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["synth", "--quiet", "--out", str(out), "--n-healthy", "8"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""


def test_module_entrypoint_help():
    result = subprocess.run(
        [sys.executable, "-m", "normgp", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "normgp" in result.stdout
    for command in ("fit", "score", "evaluate", "sweep", "synth"):
        assert command in result.stdout


_LOADED_SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_importing_the_cli_leaves_heavy_scipy_modules_unloaded():
    # scipy is imported where a stage factorizes, optimizes or runs a t-test
    code = f"import sys, normgp.cli; {_LOADED_SCIPY}"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_evaluate_repeated_metric_exits_2(tmp_path, capsys):
    # a repeated metric once printed its line twice and wrote it twice
    # into the report's config beside one metrics entry
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "id,age,diagnosis,y_hat,epsilon,cov,cov_w\n"
        "a,50,HC,51,1,0.5,0.5\nb,60,DX,58,-2,0.6,0.7\n"
    )
    report = tmp_path / "e.json"
    assert main(["evaluate", str(scores), "--out", str(report), "--metrics", "cov,cov"]) == 2
    captured = capsys.readouterr()
    assert "metric 'cov' is repeated" in captured.err
    assert "AUC" not in captured.out
    assert not report.exists()


def test_synth_and_evaluate_run_without_loading_scipy(tmp_path):
    rng = np.random.default_rng(5)
    scores = tmp_path / "scores.csv"
    save_scores(
        ScoresTable(
            subject_ids=tuple(f"s{i}" for i in range(20)),
            age=rng.uniform(20, 80, 20),
            diagnosis=("HC",) * 10 + ("DX",) * 10,
            y_hat=rng.uniform(20, 80, 20),
            epsilon=rng.normal(size=20),
            cov=rng.uniform(0, 1, 20),
            cov_w=rng.uniform(0, 1, 20),
        ),
        scores,
    )
    code = (
        "import sys; from normgp.cli import main; "
        f"assert main(['synth', '--out', {str(tmp_path / 'c.csv')!r}, "
        "'--n-healthy', '10', '--n-diseased', '10', '--mode', 'orthogonal']) == 0; "
        f"assert main(['evaluate', {str(scores)!r}, '--out', {str(tmp_path / 'e.json')!r}]) == 0; "
        f"{_LOADED_SCIPY}"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "e.json").read_text())["groups"]["n_positive"] == 10


def test_no_arguments_exits_2(capsys):
    assert main([]) == 2
    capsys.readouterr()
