"""msnetlab benchmark: one workload per run, from a single process.

    python3 perfbench/run.py --workload train-msnet --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
traces the layers and reports the per-layer metrics.  Every run checks the
program's outputs.  The last line of stdout is the result object; the lines
before it state the environment and each metric.  Results and spans are also
kept under ``.perfbench_out/`` in the checkout.  Workloads, metrics and the
reasons for them: perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads must run in at most nproc threads, and a
# single thread keeps small matmuls steady on a shared machine.  Set before
# numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from probes import Clock, Patcher, Tracer, now  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# The desk-default generator and model configs, with the market's population
# (users, items, new items per day) cut to a quarter so that every run of
# every workload fits the measuring budget.  Impressions per user-day, days,
# history length, stock mix and every model setting stay at desk defaults,
# so the shapes a training step sees are the desk's.
BENCH_SCALE = 0.25
# Warm-up cycle run at the start of every set-up: about 2k impressions.
WARMUP_SCALE = 0.01
SETUP_REPEATS = 3
MIN_CYCLES = 3      # a median that one slow cycle cannot move
MAX_CYCLES = 50
LN2 = math.log(2.0)  # mean cross-entropy of a coin flip: diverged beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_examples_per_s": "ex/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_tail": "ms",
    "predict_examples_per_s": "ex/s",
    "peak_rss_mib": "MiB",
    "train_loss": "nats",
    "auc_limited": "ratio",
    "excess_logloss": "nats",
}

PER_LAYER_UNITS = {
    "autodiff.backward_s": "s",
    "autodiff.tape_nodes_per_step": "count",
    "seqmodel.target_attention_s": "s",
    "seqmodel.target_attention_calls": "count",
    "seqmodel.meta_s": "s",
    "model.forward_s": "s",
    "model.forward_self_s": "s",
    "model.losses_s": "s",
    "model.loss_aux_s": "s",
    "model.optimizer_step_s": "s",
    "model.steps": "count",
    "model.time_to_first_step_s": "s",
    "model.predict_s": "s",
    "model.save_checkpoint_s": "s",
    "model.load_checkpoint_s": "s",
    "features.build_vocab_s": "s",
    "features.encode_batch_s": "s",
    "features.encode_batch_calls": "count",
    "features.seq_fill_ratio": "ratio",
    "datagen.simulate_s": "s",
    "datagen.write_dataset_s": "s",
    "datagen.read_dataset_s": "s",
    "datagen.read_catalog_s": "s",
    "datagen.file_sha256_s": "s",
    "datagen.records": "count",
    "datagen.tsv_bytes": "bytes",
    "metrics.grouped_report_s": "s",
    "metrics.gauc_s": "s",
    "metrics.partition_aucs_s": "s",
    "metrics.write_predictions_s": "s",
    "metrics.read_predictions_s": "s",
    "metrics.partition_of_calls": "count",
    "cli.generate_s": "s",
    "cli.train_s": "s",
    "cli.evaluate_s": "s",
    "trace.overhead_s": "s",
}


def import_program():
    """Import msnetlab from this checkout's sources, never from elsewhere."""
    if not (SRC / "msnetlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no msnetlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import msnetlab
    import msnetlab.cli
    if Path(msnetlab.__file__).resolve().parent != SRC / "msnetlab":
        raise SystemExit(f"perfbench: msnetlab imported from "
                         f"{msnetlab.__file__}, not from {SRC}")
    return msnetlab


msnetlab = import_program()
import numpy as np  # noqa: E402
import scipy  # noqa: E402
from msnetlab import cli, datagen, metrics, model  # noqa: E402
from msnetlab.seqmodel import ScoreAccumulator  # noqa: E402

BATCH_SIZE = model.ModelConfig().batch_size  # every workload's, for predict too


class GateError(Exception):
    """A correctness check failed."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def check_predictions(path: Path, y_expected: np.ndarray) -> tuple[str, np.ndarray]:
    """Gate on a prediction file: one row per input, labels as given, every
    p finite and inside (0, 1).  Returns the file's sha256 and the p column."""
    data = path.read_bytes()
    table = np.loadtxt(io.BytesIO(data), comments="#", delimiter="\t",
                       usecols=(2, 3), ndmin=2)
    require(len(table) == len(y_expected),
            f"{path.name}: {len(table)} predictions for "
            f"{len(y_expected)} inputs")
    p, y = table[:, 0], table[:, 1]
    require(bool(np.isfinite(p).all()), f"{path.name}: non-finite p")
    require(bool(((p > 0.0) & (p < 1.0)).all()), f"{path.name}: p outside (0, 1)")
    require(bool((y == y_expected).all()), f"{path.name}: labels differ from input")
    return hashlib.sha256(data).hexdigest(), p


def check_loss(mean_ce: float, mean_total: float) -> float:
    require(math.isfinite(mean_total), f"training loss {mean_total} not finite")
    require(mean_ce < LN2, f"training diverged: mean cross-entropy {mean_ce}")
    return mean_total


def truth(test_tsv: Path) -> tuple[np.ndarray, np.ndarray]:
    """Labels and generator true CTRs of a dataset file, read by the
    benchmark itself so that checks add nothing to the traced layers."""
    table = np.loadtxt(test_tsv, comments="#", delimiter="\t",
                       usecols=(3, 4), ndmin=2)
    return table[:, 0], table[:, 1]


def excess_logloss(p: np.ndarray, y: np.ndarray, true_ctr: np.ndarray) -> float:
    """Model log-loss minus the Bayes log-loss of the true CTRs."""
    def logloss(q):
        return float(np.mean(-(y * np.log(q) + (1.0 - y) * np.log1p(-q))))
    return logloss(p) - logloss(true_ctr)


def auc_limited(report_groups: dict) -> float:
    value = report_groups["limited"]["auc_avg"]
    require(value is not None, "limited group has no AUC")
    return float(value)


# ----------------------------------------------------------------------
# workloads


class Workload:
    """One set-up and a repeatable cycle.

    ``prepare`` builds the inputs, after a warm-up cycle through the CLI,
    and is repeated to time set-up.  ``cycle`` runs the measured work once
    and its checks, and returns the cycle's wall time, loss and prediction
    digest.  Everything runs in ``work`` under the checkout.
    """

    def __init__(self, seed: int, scale: float, work: Path,
                 tracer: Tracer | None) -> None:
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.config = self._config_file("experiment.json", scale)
        self.data = work / "data"
        self.n_train = 0
        self.n_predict = 0

    def _config_file(self, name: str, scale: float) -> Path:
        base = datagen.GeneratorConfig()
        generator = {key: max(1, round(getattr(base, key) * scale))
                     for key in ("n_users", "n_items", "new_items_per_day")}
        path = self.work / name
        path.write_text(json.dumps({"generator": generator}))
        return path

    def cli(self, *argv: str) -> None:
        """Run one msnetlab subcommand in-process; gate on exit code and
        stderr."""
        out, err = io.StringIO(), io.StringIO()
        region = (self.tracer.region(f"cli.{argv[0]}") if self.tracer
                  else contextlib.nullcontext())
        with region, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        require(code == 0 and not err.getvalue(),
                f"msnetlab {argv[0]} exited {code}: {err.getvalue().strip()}")

    def generate(self, out: Path, config: Path, seed: int) -> dict:
        self.cli("generate", "--config", str(config), "--out", str(out),
                 "--seed", str(seed), "--force")
        return json.loads((out / cli.MANIFEST_NAME).read_text())

    def train_cli(self, arch: str, data: Path, runs: Path,
                  config: Path) -> float:
        self.cli("train", "--config", str(config), "--data", str(data),
                 "--arch", arch, "--out", str(runs))
        log = (runs / f"{arch}.log.jsonl").read_text().splitlines()
        last = json.loads(log[-1])
        return check_loss(last["mean_ce"], last["mean_total"])

    def evaluate_cli(self, arch: str, data: Path, runs: Path) -> None:
        self.cli("evaluate", "--checkpoint", str(runs / f"{arch}.ckpt.npz"),
                 "--data", str(data), "--out", str(runs))

    def check_evaluation(self, arch: str, data: Path, runs: Path) -> dict:
        """Gate the outputs of ``evaluate``; return the predictions digest,
        test-day limited AUC and excess log-loss."""
        y, true_ctr = truth(data / cli.TEST_FILE)
        digest, p = check_predictions(runs / f"{arch}.predictions.tsv", y)
        report = json.loads((runs / f"{arch}.report.json").read_text())
        return {"digest": digest, "auc_limited": auc_limited(report["groups"]),
                "excess_logloss": excess_logloss(p, y, true_ctr)}

    def warm_up(self) -> None:
        """A tiny generate -> train -> evaluate -> report cycle, so imports,
        lazy set-up and first-touch costs are paid before anything is timed."""
        data, runs = self.work / "warmup" / "data", self.work / "warmup" / "runs"
        config = self._config_file("warmup.json", WARMUP_SCALE)
        self.generate(data, config, self.seed)
        self.train_cli(model.ARCH_MSNET, data, runs, config)
        self.evaluate_cli(model.ARCH_MSNET, data, runs)
        self.check_evaluation(model.ARCH_MSNET, data, runs)
        self.cli("report", str(runs / "msnet.predictions.tsv"))

    def quality(self) -> dict:
        return {}


class TrainMsnet(Workload):
    """One epoch of ``model.fit`` for MSNet on a dataset generated and read
    in set-up; the check saves the model and evaluates it through the CLI."""

    def prepare(self) -> None:
        manifest = self.generate(self.data, self.config, self.seed)
        self.dataset_id = manifest["dataset_id"]
        self.train = datagen.read_dataset(self.data / cli.TRAIN_FILE)
        self.catalog = datagen.read_catalog(self.data / cli.CATALOG_FILE)
        self.n_train = len(self.train)
        self.n_predict = manifest["records"]["test"]
        self.model_config = model.ModelConfig(architecture=model.ARCH_MSNET)

    def cycle(self) -> dict:
        t0 = now()
        result = model.fit(self.train, self.catalog, self.model_config)
        wall = now() - t0
        require(not result.diverged, "training diverged")
        log = result.log[-1]
        loss = check_loss(log.mean_ce, log.mean_total)
        runs = self.work / "runs"
        runs.mkdir(exist_ok=True)
        model.save_checkpoint(runs / "msnet.ckpt.npz", result.params,
                              result.opt_state, self.model_config,
                              result.vocabs, dataset_hash=self.dataset_id)
        self.evaluate_cli(model.ARCH_MSNET, self.data, runs)
        return {"wall": wall, "loss": loss,
                **self.check_evaluation(model.ARCH_MSNET, self.data, runs)}


class ScoreMsnet(Workload):
    """Forward-only scoring of the whole log (train and test days) with an
    MSNet checkpoint trained in set-up, then the prediction file round trip
    and the grouped report."""

    def prepare(self) -> None:
        manifest = self.generate(self.data, self.config, self.seed)
        runs = self.work / "runs"
        loss = self.train_cli(model.ARCH_MSNET, self.data, runs, self.config)
        require(getattr(self, "loss", loss) == loss,
                f"set-up loss {loss!r} differs from the first set-up's")
        self.loss = loss
        self.ckpt = runs / f"{model.ARCH_MSNET}.ckpt.npz"
        train = datagen.read_dataset(self.data / cli.TRAIN_FILE)
        test = datagen.read_dataset(self.data / cli.TEST_FILE)
        self.records = train + test
        self.catalog = datagen.read_catalog(self.data / cli.CATALOG_FILE)
        self.n_train = manifest["records"]["train"]
        self.n_test = len(test)
        self.n_predict = len(self.records)
        self.y = np.array([r.label for r in self.records], dtype=float)
        self.true_ctr = np.array([r.true_ctr for r in self.records])

    def cycle(self) -> dict:
        path = self.work / "runs" / "msnet.predictions.tsv"
        t0 = now()
        ckpt = model.load_checkpoint(self.ckpt)
        accumulator = ScoreAccumulator()
        preds = model.predict(ckpt.params, ckpt.config, self.records,
                              ckpt.vocabs, self.catalog,
                              partition_seed=ckpt.config.seed,
                              score_accumulator=accumulator)
        metrics.write_predictions(preds, path, meta={
            "arch": ckpt.config.architecture,
            "partition_seed": ckpt.config.seed})
        back, _ = metrics.read_predictions(path)
        metrics.grouped_report(back)
        accumulator.table()
        wall = now() - t0
        require(len(back) == len(self.records), "prediction file lost rows")
        digest, _ = check_predictions(path, self.y)
        self.preds = preds
        return {"wall": wall, "loss": self.loss, "digest": digest}

    def quality(self) -> dict:
        """Test-day figures, from the last cycle's predictions."""
        test = self.preds[-self.n_test:]
        report = metrics.grouped_report(test).to_dict()
        p = np.array([r.p for r in test])
        return {"auc_limited": auc_limited(report["groups"]),
                "excess_logloss": excess_logloss(
                    p, self.y[-self.n_test:], self.true_ctr[-self.n_test:])}


WORKLOADS = {
    "train-msnet": TrainMsnet,
    "score-msnet": ScoreMsnet,
}


# ----------------------------------------------------------------------
# the run


def run_cycles(workload: Workload, seconds: float, cycles: list[dict],
               errors: list[str], min_cycles: int = MIN_CYCLES) -> None:
    """Repeat the cycle until ``seconds`` have passed and at least
    ``min_cycles`` ran.  A cycle whose checks fail, or whose loss or
    prediction digest differs from the run's first cycle, counts failed."""
    deadline = now() + seconds
    start = len(cycles)
    while len(cycles) - start < min_cycles or \
            (now() < deadline and len(cycles) - start < MAX_CYCLES):
        if workload.tracer is not None:
            workload.tracer.cycles += 1
        try:
            result = workload.cycle()
            first = cycles[0] if cycles else result
            require(result["loss"] == first["loss"],
                    f"loss {result['loss']!r} differs from first cycle's "
                    f"{first['loss']!r}")
            require(result["digest"] == first["digest"],
                    "prediction digest differs from first cycle's")
            result["ok"] = True
        except Exception as exc:  # the run reports failures and goes on
            errors.append("".join(traceback.format_exception_only(exc)).strip())
            traceback.print_exc(file=sys.stderr)
            result = {"ok": False, "wall": math.nan, "loss": None,
                      "digest": None}
        cycles.append(result)


def tail_percentile(n_steps: int) -> int:
    """Highest whole percentile with at least ten steps beyond it."""
    return max([q for q in range(50, 100) if n_steps * (100 - q) / 100 >= 10],
               default=50)


def end_to_end(workload: Workload, setup_s: list[float], cycles: list[dict],
               train_clock: Clock, predict_clock: Clock, tail_n: int
               ) -> tuple[dict, dict]:
    ok = [c for c in cycles if c["ok"]]
    quality = workload.quality() or ok[0]
    q = tail_percentile(tail_n)
    steps = train_clock.step_ms
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(c["wall"] for c in ok),
        "train_examples_per_s": statistics.median(
            workload.n_train / s for s in train_clock.fit_s),
        "train_step_ms_p50": float(np.percentile(steps, 50)),
        "train_step_ms_tail": float(np.percentile(steps, q)),
        "predict_examples_per_s": BATCH_SIZE / statistics.median(
            predict_clock.predict_batch_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "train_loss": ok[0]["loss"],
        "auc_limited": quality["auc_limited"],
        "excess_logloss": quality["excess_logloss"],
    }
    detail = {"train_steps": len(steps), "train_step_ms_tail_percentile": q,
              "fits": len(train_clock.fit_s),
              "predict_batches": len(predict_clock.predict_batch_s)}
    return values, detail


def measure(workload: Workload, seconds: float, errors: list[str]
            ) -> tuple[dict, list[dict], dict]:
    """Untraced run: several set-ups (median reported), then the cycles."""
    patcher, clock = Patcher(), Clock()
    clock.install(patcher, msnetlab)
    setup_s: list[float] = []
    setup_clock = Clock()  # fits made by prepare(), not by the warm-up
    try:
        for _ in range(SETUP_REPEATS):
            t0 = now()
            workload.warm_up()
            clock.clear()
            workload.prepare()
            setup_s.append(now() - t0)
            clock.drain_into(setup_clock)
        cycles: list[dict] = []
        run_cycles(workload, seconds, cycles, errors)
    finally:
        patcher.close()
    if not any(c["ok"] for c in cycles):
        return {}, cycles, {}
    if setup_clock.fit_s:  # the workload trains in set-up, not in its cycle
        train_clock, tail_n = setup_clock, len(setup_clock.step_ms)
    else:
        per_cycle = len(clock.step_ms) // len(cycles)
        train_clock, tail_n = clock, per_cycle * MIN_CYCLES
    values, detail = end_to_end(workload, setup_s, cycles, train_clock, clock,
                                tail_n)
    return values, cycles, detail


def measure_traced(workload: Workload, seconds: float, errors: list[str],
                   spans_path: Path) -> tuple[dict, list[dict], dict]:
    """Traced run: one traced set-up, one untraced cycle, then traced
    cycles.  Every cycle must give the same loss and prediction digest."""
    tracer = workload.tracer
    patcher = Patcher()
    Clock().install(patcher, msnetlab)  # same wrappers as the untraced run
    traced = Patcher()
    cycles: list[dict] = []
    try:
        tracer.install(traced, msnetlab)
        workload.warm_up()
        workload.prepare()
        traced.close()
        workload.tracer = None
        run_cycles(workload, 0, cycles, errors, min_cycles=1)
        workload.tracer = tracer
        tracer.phase = "cycle"
        tracer.install(traced, msnetlab)
        run_cycles(workload, seconds, cycles, errors, min_cycles=1)
        traced.close()
        if not all(c["ok"] for c in cycles):
            return {}, cycles, {}
    finally:
        traced.close()
        patcher.close()
    tracer.dump(spans_path)
    values = tracer.per_pass()
    values["trace.overhead_s"] = statistics.median(
        c["wall"] for c in cycles[1:]) - cycles[0]["wall"]
    missing = sorted(set(PER_LAYER_UNITS) - set(values))
    require(not missing, f"no spans for {missing}")
    return {k: values[k] for k in PER_LAYER_UNITS}, cycles, \
        {"traced_cycles": len(cycles) - 1, "spans": len(tracer.spans)}


# ----------------------------------------------------------------------
# environment and entry point


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, asked from the library."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (env {BLAS_THREADS})"


def environment(name: str, seed: int, seconds: float, trace: bool,
                scale: float, workload: Workload, detail: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "setup_repeats": SETUP_REPEATS,
        "train_impressions": workload.n_train,
        "impressions_scored_per_cycle": workload.n_predict,
        **detail,
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = BENCH_SCALE, out: Path = OUT) -> tuple[dict, dict, list[str]]:
    """Run one workload; return the result object, the environment record
    and the correctness violations."""
    started = now()
    out.mkdir(exist_ok=True)
    work = out / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    errors: list[str] = []
    try:
        workload = WORKLOADS[name](seed, scale, work,
                                   Tracer() if trace else None)
        if trace:
            values, cycles, detail = measure_traced(
                workload, seconds, errors,
                out / f"spans-{name}-seed{seed}.jsonl")
            units = PER_LAYER_UNITS
        else:
            values, cycles, detail = measure(workload, seconds, errors)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not c["ok"] for c in cycles)
    result = {"correct": failed == 0, "attempted": len(cycles),
              "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in units if k in values}}
    detail["cycles"] = len(cycles)
    detail["run_s"] = now() - started
    return result, environment(name, seed, seconds, trace, scale, workload,
                               detail), errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, env, errors = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    with (OUT / "results.jsonl").open("a") as fh:
        fh.write(json.dumps({"env": env, "result": result}) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    for error in errors:
        print(f"FAILED: {error}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
