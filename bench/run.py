"""Stage-level benchmark for normgp.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload {train,score} --seed N --seconds S --trace {0,1}

Each workload makes its inputs from ``--seed`` (set-up), then runs its CLI
stages as child processes (``python -m normgp ...``), as a user would,
repeating them at least three times and for about ``--seconds`` seconds.
Wall time is read in this process; CPU time and peak RSS come from
``os.wait4`` of each child. Every output goes through the correctness gate
in ``oracle.py``; a stage that exits non-zero or fails the gate counts as
failed. ``--trace 1`` instead runs the stages in one traced process (see
``tracing.py``) and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
name every metric with its unit. The run record (versions, BLAS, CPUs,
thread settings) and the raw per-repetition figures go to
``.bench_out/run-<workload>-<seed>-trace<0|1>.json``; the traced run's
spans go beside it.

Stages run with the program's default threading: the thread variables
the caller set are recorded and then cleared for the children, so a later
threading change shows in ``cpu_s`` and ``stage_s``. This process itself
runs single-threaded BLAS, so its oracle checks do not compete with the
stages it times.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "NORMATIVE_GP_THREADS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CALLER_THREAD_ENV = {name: os.environ.get(name) for name in THREAD_VARS}
STAGE_ENV = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
if __name__ == "__main__":
    # Before numpy is imported: the oracles run on one BLAS thread.
    for _name in THREAD_VARS[1:]:
        os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# One aging trajectory for every cohort; subject draws come from --seed.
TRAJECTORY_SEED = 1804
N_FEATURES = 8
# Hyperparameters of ``normgp fit --center-ages`` on 500 healthy subjects
# of this trajectory (subject seed 0). The score workload's model uses them
# as fixed values, so that workload does not depend on the optimizer.
MODEL_LENGTH_SCALES = (
    0.73700054133032256, 0.87476063939889948, 1.8642141997738642, 0.82819092117560733,
    1.161249981973739, 0.96398254116186988, 0.91433292220519191, 1.4682575421138173,
)
MODEL_NOISE_VARIANCE = 4.6189161563633263
# The train workload's subjects; its seed argument only reorders them.
TRAIN_SUBJECT_SEED = 1
# Optimum of ``normgp fit --center-ages --standardize`` on those 300
# subjects (standardized units; LML -833.63158311130337 in any row order).
# A fit must reach the LML at these values, so one that stops early fails:
# capped at 15 iterations it ends 0.13 below.
TRAIN_OPTIMUM_LENGTH_SCALES = (
    0.86134575076440389, 1.1118171446145579, 127851.71284167834, 1.5278131526324557,
    0.94113770667879526, 0.77384260286984885, 0.99635421439315697, 2.1536599275686465,
)
TRAIN_OPTIMUM_NOISE_VARIANCE = 5.5767248417561985
SWEEP_GRID = (0.1, 1.0, 10.0, 100.0, 1000.0, 1e5, math.inf)
SWEEP_CHECKED_LY = 10.0
STAGE_TIMEOUT_S = 150
# No repetition starts after this many seconds, so a run ends within 180 s.
START_CAP_S = 110.0


@dataclass(frozen=True)
class Size:
    train_m: int
    train_orders: int
    model_m: int
    score_per_group: int
    sweep_per_group: int
    setup_reps: int
    min_reps: int
    oracle_rows: int
    cov_auc_floor: float
    sweep_auc_floor: float


SIZES = {
    "full": Size(train_m=300, train_orders=2, model_m=500, score_per_group=3000,
                 sweep_per_group=1000, setup_reps=3, min_reps=3, oracle_rows=400,
                 cov_auc_floor=0.8, sweep_auc_floor=0.75),
    # For the benchmark's own tests: the same code paths in seconds.
    "tiny": Size(train_m=40, train_orders=2, model_m=60, score_per_group=60,
                 sweep_per_group=40, setup_reps=1, min_reps=2, oracle_rows=40,
                 cov_auc_floor=0.6, sweep_auc_floor=0.0),
}


class BenchError(Exception):
    """The benchmark could not build its inputs or start the program."""


@dataclass
class Timing:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def run_process(argv, cwd, log_path) -> Timing:
    """Run one child to completion; CPU and peak RSS come from ``os.wait4``."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=STAGE_ENV, stdout=log, stderr=log)
        previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(STAGE_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timing(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def normgp(argv, cwd, log_path) -> Timing:
    return run_process([sys.executable, "-m", "normgp", *argv], cwd, log_path)


def subject_seed(seed: int, cohort: int) -> int:
    return seed * 8 + cohort


@dataclass
class Stage:
    """One CLI stage: its arguments, the files it writes, and its gate."""

    name: str
    argv: list
    outputs: list
    check: Callable[[Path], object]


class Workload:
    """Inputs made from a seed, the stages that use them, and their oracles."""

    name = ""
    main_stage = ""

    def __init__(self, seed: int, size: Size, work: Path):
        self.seed, self.size, self.work = seed, size, work

    def synth(self, out, n_healthy, n_diseased, mode, seed) -> None:
        argv = ["synth", "--out", out, "--n-healthy", str(n_healthy),
                "--n-diseased", str(n_diseased), "--mode", mode, "--magnitude", "4",
                "--n-features", str(N_FEATURES), "--trajectory-seed", str(TRAJECTORY_SEED),
                "--seed", str(seed), "-q"]
        timing = normgp(argv, self.work, self.work / "setup.log")
        if timing.code != 0:
            raise BenchError(f"normgp synth exited with {timing.code}; see {self.work}/setup.log")

    def setup(self) -> list:
        """Build the inputs; return the names of the files made."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Read the inputs and compute what the oracles need (untimed)."""
        raise NotImplementedError

    def min_reps(self) -> int:
        return self.size.min_reps

    def stages(self, rep: int = 0) -> list:
        """The stages of repetition ``rep``."""
        raise NotImplementedError


class Train(Workload):
    """Fit on row orders of one pinned cohort; repetition r uses order r mod K.

    The subjects are pinned because the optimizer's work depends on the
    draw: over 12 subject seeds the 30 L-BFGS-B runs of one fit took 974 to
    1855 LML evaluations, a spread no affordable number of repetitions
    averages out. Reordering the rows changes the CV folds and the
    rounding, and moves that count by about 8%; cycling K orders averages
    it further. The last repetition repeats order 0, for the byte check.
    """

    name, main_stage = "train", "fit"

    def min_reps(self):
        return self.size.train_orders + 1

    def orders(self, n):
        return [np.random.default_rng([self.seed, k]).permutation(n)
                for k in range(self.size.train_orders)]

    def setup(self):
        self.synth("pool.csv", self.size.train_m, 0, "none", TRAIN_SUBJECT_SEED)
        lines = (self.work / "pool.csv").read_text().splitlines(keepends=True)
        made = []
        for k, order in enumerate(self.orders(len(lines) - 1)):
            made.append(f"train-{k}.csv")
            (self.work / made[-1]).write_text(lines[0] + "".join(lines[1 + i] for i in order))
        return made

    def prepare(self):
        pool = oracle.read_cohort(self.work / "pool.csv")
        self.cohorts = [
            {"ids": [pool["ids"][i] for i in order], "age": pool["age"][order],
             "dx": [pool["dx"][i] for i in order], "x": pool["x"][order]}
            for order in self.orders(len(pool["ids"]))
        ]
        self.reference = oracle.reference_lml(
            pool, TRAIN_OPTIMUM_LENGTH_SCALES, TRAIN_OPTIMUM_NOISE_VARIANCE
        )

    def stages(self, rep=0):
        k = rep % self.size.train_orders
        model = f"model-{k}.txt"
        return [Stage(
            "fit",
            ["fit", f"../train-{k}.csv", "--out", model, "--center-ages", "--standardize", "-q"],
            [model, model + ".report.json"],
            lambda d: oracle.check_fit(d / model, self.cohorts[k], self.reference),
        )]


def write_model(cohort_csv: Path, out: Path) -> None:
    """Write the fixed-hyperparameter m-subject model with the program's own writer."""
    from normgp import gpr, tabular_io
    from normgp.kernels import KernelParams

    cohort = tabular_io.load_cohort(cohort_csv)
    params = KernelParams(np.array(MODEL_LENGTH_SCALES), MODEL_NOISE_VARIANCE)
    offset = float(np.mean(cohort.age))
    lml = gpr.log_marginal_likelihood(params, "sum", cohort.features, cohort.age - offset)
    tabular_io.save_model(
        tabular_io.ModelArtifact(
            kernel_form="sum",
            feature_names=cohort.feature_names,
            training_features=cohort.features,
            training_ages=cohort.age,
            kernel_params=params,
            fit_metadata=tabular_io.FitMetadata(
                log_marginal=lml, restarts_used=1, restart_log_marginals=(lml,),
                seed=0, chosen_restart=0,
            ),
            y_offset=offset,
        ),
        out,
    )


class Score(Workload):
    """Score and evaluate a large cohort, then sweep l_y on a smaller one.

    Both test cohorts are scored against one fixed-hyperparameter model.
    ``score`` runs at ``l_y = inf`` (the path a Cholesky reuse would take);
    ``sweep`` repeats the weighted posterior at seven mostly finite grid
    points, which bypasses that reuse.
    """

    name, main_stage = "score", "score"

    def setup(self):
        size = self.size
        self.synth("normative.csv", size.model_m, 0, "none", subject_seed(self.seed, 2))
        self.synth("test.csv", size.score_per_group, size.score_per_group, "orthogonal",
                   subject_seed(self.seed, 3))
        self.synth("sweep-test.csv", size.sweep_per_group, size.sweep_per_group,
                   "age_conditional", subject_seed(self.seed, 4))
        write_model(self.work / "normative.csv", self.work / "model.txt")
        return ["normative.csv", "test.csv", "sweep-test.csv", "model.txt"]

    def gp(self, l_y=math.inf) -> oracle.DenseGP:
        model = oracle.read_model(self.work / "model.txt")
        return oracle.DenseGP(model["training_features"], model["training_ages"],
                              model["length_scales"], model["noise_variance"],
                              model["y_offset"], l_y)

    def prepare(self):
        self.test = oracle.read_cohort(self.work / "test.csv")
        self.dense = self.gp()
        rng = np.random.default_rng([self.seed, 99])
        self.rows = np.sort(rng.choice(len(self.test["ids"]), self.size.oracle_rows,
                                       replace=False))
        self.table = None
        sweep_test = oracle.read_cohort(self.work / "sweep-test.csv")
        positive = np.array(sweep_test["dx"]) == "DX"
        self.aucs = {
            l_y: oracle.auc(self.gp(l_y).posterior(sweep_test["x"], sweep_test["age"])[1],
                            positive)
            for l_y in (math.inf, SWEEP_CHECKED_LY)
        }

    def check_score(self, d):
        self.table = oracle.check_scores(d / "scores.csv", self.test, self.dense, self.rows)

    def stages(self, rep=0):
        grid = ",".join(format(v, "g") for v in SWEEP_GRID)
        return [
            Stage("score", ["score", "../model.txt", "../test.csv", "--out", "scores.csv", "-q"],
                  ["scores.csv"], self.check_score),
            Stage("evaluate", ["evaluate", "scores.csv", "--out", "report.json", "-q"],
                  ["report.json"],
                  lambda d: oracle.check_evaluate(d / "report.json", self.table,
                                                  cov_auc_floor=self.size.cov_auc_floor)),
            Stage("sweep",
                  ["sweep", "../model.txt", "../sweep-test.csv", "--out", "sweep.csv",
                   "--ly-grid", grid, "-q"],
                  ["sweep.csv"],
                  lambda d: oracle.check_sweep(d / "sweep.csv", SWEEP_GRID, self.aucs,
                                               self.size.sweep_auc_floor)),
        ]


WORKLOADS = {cls.name: cls for cls in (Train, Score)}


class Gate:
    """Counts attempted and failed stage invocations; holds first-run bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_bytes: dict[str, bytes] = {}
        self.messages: list[str] = []

    def judge(self, stage: Stage, directory: Path, code: int) -> bool:
        self.attempted += 1
        try:
            if code != 0:
                raise oracle.GateError(f"exited with code {code}")
            stage.check(directory)
            for name in stage.outputs:
                data = (directory / name).read_bytes()
                if self.first_bytes.setdefault(name, data) != data:
                    raise oracle.GateError(f"{name} differs from the first run's bytes")
        except (oracle.GateError, OSError, ValueError, TypeError, KeyError, IndexError,
                StopIteration) as exc:
            self.failed += 1
            self.messages.append(f"{stage.name} in {directory.name}: {exc}")
            print(f"FAILED {stage.name}: {exc}", file=sys.stderr)
            return False
        return True

    def skip(self, stages: list) -> None:
        """Stages after a failed one cannot run; they count as failed."""
        self.attempted += len(stages)
        self.failed += len(stages)


def clear_outputs(directory: Path, stages: list) -> None:
    directory.mkdir(exist_ok=True)
    for stage in stages:
        for name in stage.outputs:
            (directory / name).unlink(missing_ok=True)


def run_setups(workload: Workload, count: int) -> list:
    """Set up ``count`` times; inputs must come out byte-identical each time."""
    seconds, first = [], None
    for _ in range(count):
        start = time.perf_counter()
        made = workload.setup()
        seconds.append(time.perf_counter() - start)
        data = [(workload.work / name).read_bytes() for name in made]
        if first is not None and data != first:
            raise BenchError("set-up made different inputs from the same seed")
        first = data
    return seconds


def measure(workload: Workload, seconds: float, started: float) -> tuple:
    """Repeat the workload's stages; return per-repetition timings and the gate.

    After the minimum count, a repetition starts only if one of median
    length still ends within ``seconds``, so a run lasts about ``seconds``
    and the time a set of runs takes does not depend on where a repetition ends.
    """
    gate, reps, lengths = Gate(), [], []
    directory = workload.work / "run"
    loop_start = time.perf_counter()
    while len(reps) < workload.min_reps() or (
        time.perf_counter() - loop_start + statistics.median(lengths) <= seconds
        and time.perf_counter() - started < START_CAP_S
    ):
        rep_start = time.perf_counter()
        stages = workload.stages(len(reps))
        clear_outputs(directory, stages)
        rep = {}
        for index, stage in enumerate(stages):
            timing = normgp(stage.argv, directory, workload.work / "stages.log")
            rep[stage.name] = timing
            if not gate.judge(stage, directory, timing.code):
                gate.skip(stages[index + 1:])
                break
        reps.append(rep)
        lengths.append(time.perf_counter() - rep_start)
    return reps, gate


def end_to_end(workload: Workload, reps: list, setup_seconds: list) -> dict:
    stage_s = [rep[workload.main_stage].wall for rep in reps if workload.main_stage in rep]
    return {
        "stage_s": (statistics.median(stage_s), "s"),
        "pipeline_s": (statistics.median(sum(t.wall for t in rep.values()) for rep in reps), "s"),
        "cpu_s": (statistics.median(sum(t.cpu for t in rep.values()) for rep in reps), "s"),
        "peak_rss_mb": (max(t.rss_mb for rep in reps for t in rep.values()), "MB"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }


def per_stage_walls(reps: list) -> dict:
    """Median wall time of each stage by its own name (fit_s, score_s, ...)."""
    names = {name for rep in reps for name in rep}
    return {
        f"{name}_s": (statistics.median(rep[name].wall for rep in reps if name in rep), "s")
        for name in sorted(names)
    }


def import_seconds(work: Path, count: int = 3) -> float:
    code = ("import time; t = time.perf_counter(); import normgp.cli; "
            "print(time.perf_counter() - t)")
    values = []
    for _ in range(count):
        log = work / "import.log"
        log.unlink(missing_ok=True)
        timing = run_process([sys.executable, "-c", code], work, log)
        if timing.code != 0:
            raise BenchError("importing normgp.cli failed")
        values.append(float(log.read_text().split()[-1]))
    return statistics.median(values)


def traced_run(workload: Workload, record: dict) -> tuple:
    """Untraced, traced and untraced in-process passes; return layer metrics and gate."""
    gate = Gate()
    stages = workload.stages()
    passes = []
    # Untraced passes on both sides of the traced one, so first-call warm-up
    # and drift do not all land on one side of the overhead.
    for name, traced in (("plain", False), ("traced", True), ("plain-after", False)):
        clear_outputs(workload.work / name, stages)
        passes.append({"dir": str(workload.work / name), "traced": traced,
                       "stages": [[stage.name, stage.argv] for stage in stages]})
    spec_path, spans_path = workload.work / "trace-spec.json", workload.work / "trace.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "out": str(spans_path), "passes": passes}))
    timing = run_process([sys.executable, str(BENCH / "tracing.py"), str(spec_path)],
                         workload.work, workload.work / "trace.log")
    if timing.code != 0:
        raise BenchError(f"traced run exited with {timing.code}; see {workload.work}/trace.log")
    result = json.loads(spans_path.read_text())
    for stage_pass, spec in zip(result["passes"], passes):
        directory = Path(spec["dir"])
        ran = stage_pass["stages"]
        for index, stage in enumerate(stages):
            if index >= len(ran):
                gate.skip(stages[index:])
                break
            if not gate.judge(stage, directory, ran[index]["code"]):
                gate.skip(stages[index + 1:])
                break
    record["passes"] = result["passes"]
    print("tracing overhead per stage (traced minus mean untraced in-process wall)")
    for index, stage in enumerate(stages):
        walls = {True: [], False: []}
        for stage_pass in result["passes"]:
            if index < len(stage_pass["stages"]):
                walls[stage_pass["traced"]].append(stage_pass["stages"][index]["seconds"])
        if walls[True] and walls[False]:
            overhead = statistics.mean(walls[True]) - statistics.mean(walls[False])
            print(f"  {stage.name:<30} {overhead:>14.6g} s")
    record["trace_cpu_s"] = timing.cpu
    spans_out = OUT / f"spans-{workload.name}-{workload.seed}.json"
    spans_out.write_text(json.dumps(result["spans"]))
    metrics = tracing.layer_metrics(result["spans"], result["passes"],
                                        import_seconds(workload.work))
    return metrics, gate


def blas_info() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_record(args) -> dict:
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "caller_thread_env": CALLER_THREAD_ENV,
        "stage_thread_env": "cleared: stages run with the program's default threading",
    }


def load_program() -> None:
    """Import normgp from this checkout's ``src`` and nowhere else."""
    if not (SRC / "normgp" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC}/normgp")
    STAGE_ENV["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import normgp

    if Path(normgp.__file__).resolve().parent != SRC / "normgp":
        raise BenchError(f"normgp was imported from {normgp.__file__}, not {SRC}")


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(SIZES),
                        help="input sizes (tiny is for the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    try:
        load_program()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = run_record(args)
    print("run record: " + json.dumps(record, sort_keys=True))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], work)
    try:
        setup_seconds = run_setups(workload, 1 if args.trace else workload.size.setup_reps)
        workload.prepare()
        if args.trace:
            metrics, gate = traced_run(workload, record)
        else:
            reps, gate = measure(workload, args.seconds, started)
            metrics = end_to_end(workload, reps, setup_seconds)
            record["reps"] = [{name: vars(t) for name, t in rep.items()} for rep in reps]
            record["setup_seconds"] = setup_seconds
            print_metrics("per stage (median wall)", per_stage_walls(reps))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shutil.rmtree(work, ignore_errors=True)
    record["failures"] = gate.messages
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print_metrics(f"{args.workload} ({'per layer' if args.trace else 'end to end'})", metrics)
    print(f"  {'failed_ratio':<30} {gate.failed / max(gate.attempted, 1):>14.6g} ratio "
          f"({gate.failed} of {gate.attempted} stage runs)")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
