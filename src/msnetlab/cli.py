"""Experiment orchestration CLI.

Subcommands mirror the experiment lifecycle: ``generate`` a synthetic
market, ``train`` an architecture on it, ``evaluate`` a checkpoint,
``ablate`` the model variants into one comparison table, and ``report``
rendered comparisons from stored prediction files.

Every output embeds content hashes and format versions; every consumer
verifies them before use (--no-verify skips the dataset check).  All
failures exit nonzero with a one-line machine-parsable ``error <CODE>:``
message on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import NoReturn

from .datagen import (
    Catalog,
    DatasetError,
    GeneratorConfig,
    build_market,
    file_sha256,
    is_number,
    read_catalog,
    read_dataset,
    simulate,
    split_train_test,
    write_catalog,
    write_dataset,
)
from .metrics import (
    MetricReport,
    MetricsError,
    fmt_num,
    fmt_pct,
    grouped_report,
    read_predictions,
    render_attention_table,
    render_report,
    write_predictions,
)
from .model import (
    ARCH_DIN,
    ARCH_MSNET,
    CheckpointError,
    ModelConfig,
    ModelError,
    config_hash,
    fit,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .seqmodel import ScoreAccumulator

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "manifest-v1"
TRAIN_FILE = "train.tsv"
TEST_FILE = "test.tsv"
CATALOG_FILE = "items.tsv"

# Table-3-style ablation rows, in presentation order
ABLATION_VARIANTS = {
    "base": {"architecture": ARCH_DIN},
    "wo_seq_split": {"architecture": ARCH_MSNET, "use_seq_split": False},
    "wo_seq_meta": {"architecture": ARCH_MSNET, "use_seq_meta": False},
    "wo_aux_loss": {"architecture": ARCH_MSNET, "use_aux_loss": False},
    "msnet": {"architecture": ARCH_MSNET},
}

VARIANT_LABELS = {
    "base": "Base (DIN)",
    "wo_seq_split": "W/o seq-split",
    "wo_seq_meta": "W/o seq-meta",
    "wo_aux_loss": "W/o auxiliary loss",
    "msnet": "MSNet",
}


class CliError(Exception):
    """Carries a stable machine-parsable error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclasses.dataclass
class ExperimentConfig:
    seed: int = 0
    generator: GeneratorConfig = dataclasses.field(
        default_factory=GeneratorConfig)
    model: ModelConfig = dataclasses.field(default_factory=ModelConfig)
    ablation: tuple[str, ...] = tuple(ABLATION_VARIANTS)
    alpha_sweep: tuple[float, ...] = (0.01, 0.1, 1.0)
    dataset_hash: str | None = None  # optional pin verified at train time

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise CliError("E_NOT_FOUND", f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        # ValueError covers undecodable bytes and integers past int()'s
        # digit limit; RecursionError, nesting past the parser's depth
        except (ValueError, RecursionError) as exc:
            raise CliError("E_CONFIG", f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise CliError("E_CONFIG", "config top level must be a JSON object")
        known = [field.name for field in dataclasses.fields(cls)]
        extra = sorted(set(raw) - set(known))
        if extra:
            raise CliError("E_CONFIG", f"unknown config keys {extra}; "
                           f"the known keys are {known}")
        try:
            gen = GeneratorConfig.from_dict(raw.get("generator", {}))
            gen.validate()
            model = ModelConfig.from_dict(raw.get("model", {}))
        except (DatasetError, ModelError) as exc:
            raise CliError("E_CONFIG", str(exc))
        seed = raw.get("seed", cls.seed)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise CliError("E_CONFIG",
                           f"seed must be an integer >= 0, got {seed!r}")
        ablation = raw.get("ablation", list(ABLATION_VARIANTS))
        if not isinstance(ablation, list):
            raise CliError("E_CONFIG", "ablation must be a list of variants")
        unknown = [v for v in ablation
                   if not isinstance(v, str) or v not in ABLATION_VARIANTS]
        if unknown:
            raise CliError("E_CONFIG", f"unknown ablation variants: {unknown}")
        alpha_sweep = raw.get("alpha_sweep", list(cls.alpha_sweep))
        if not isinstance(alpha_sweep, list) or not all(
                is_number(a) and 0.0 <= a < math.inf for a in alpha_sweep):
            raise CliError("E_CONFIG", "alpha_sweep must be a list of finite "
                           f"numbers >= 0, got {alpha_sweep!r}")
        dataset_hash = raw.get("dataset_hash")
        if dataset_hash is not None and not isinstance(dataset_hash, str):
            raise CliError("E_CONFIG", "dataset_hash must be a string")
        return cls(seed=seed, generator=gen, model=model,
                   ablation=tuple(ablation), alpha_sweep=tuple(alpha_sweep),
                   dataset_hash=dataset_hash)

    @classmethod
    def default_json(cls) -> str:
        cfg = cls()
        return json.dumps({
            "seed": cfg.seed,
            "generator": cfg.generator.to_dict(),
            "model": cfg.model.to_dict(),
            "ablation": list(cfg.ablation),
            "alpha_sweep": list(cfg.alpha_sweep),
        }, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# manifest helpers


def dataset_id(files: dict[str, str]) -> str:
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode())
        digest.update(files[name].encode())
    return digest.hexdigest()[:16]


def write_manifest(out_dir: Path, config: ExperimentConfig, seed: int,
                   counts: dict[str, int], sim_meta: dict) -> dict:
    files = {name: file_sha256(out_dir / name)
             for name in (TRAIN_FILE, TEST_FILE, CATALOG_FILE)}
    manifest = {
        "format": MANIFEST_FORMAT,
        "seed": seed,
        "generator": config.generator.to_dict(),
        "files": files,
        "records": counts,
        "simulation": sim_meta,
        "dataset_id": dataset_id(files),
    }
    (out_dir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_manifest(data_dir: Path) -> dict:
    path = data_dir / MANIFEST_NAME
    if not path.exists():
        raise CliError("E_NOT_FOUND", f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError("E_FORMAT", f"manifest {path} is not valid JSON: {exc}")
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != MANIFEST_FORMAT:
        raise CliError("E_FORMAT", f"unsupported manifest format {fmt!r}")
    files = manifest.get("files")
    if not isinstance(files, dict) or not all(
            isinstance(v, str) for v in files.values()):
        raise CliError("E_FORMAT", f"manifest {path} has no 'files' map of "
                       "file name to sha256")
    if not isinstance(manifest.get("dataset_id"), str):
        raise CliError("E_FORMAT", f"manifest {path} has no 'dataset_id'")
    return manifest


def verify_dataset(data_dir: Path, manifest: dict, *,
                   expected_id: str | None = None) -> None:
    for name, recorded in manifest["files"].items():
        if not (data_dir / name).is_file():
            raise CliError("E_FORMAT",
                           f"dataset file not found: {data_dir / name}")
        actual = file_sha256(data_dir / name)
        if actual != recorded:
            raise CliError(
                "E_HASH_MISMATCH",
                f"{name}: manifest hash {recorded} != actual {actual}")
    if expected_id is not None and expected_id != manifest["dataset_id"]:
        raise CliError(
            "E_HASH_MISMATCH",
            f"dataset_id {manifest['dataset_id']} does not match expected "
            f"{expected_id}")


# ----------------------------------------------------------------------
# subcommands


def _seed(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """``--seed`` when given, else the config's seed."""
    if args.seed is None:
        return config.seed
    if args.seed < 0:
        raise CliError("E_CONFIG", f"--seed must be >= 0, got {args.seed}")
    return args.seed


def cmd_generate(args: argparse.Namespace) -> int:
    config = ExperimentConfig.load(args.config)
    seed = _seed(args, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = [out_dir / n for n in (TRAIN_FILE, TEST_FILE, CATALOG_FILE,
                                     MANIFEST_NAME)]
    existing = [p for p in targets if p.exists()]
    if existing and not args.force:
        raise CliError("E_EXISTS",
                       f"refusing to overwrite {existing[0]} (use --force)")
    gen = config.generator
    market = build_market(gen, seed=seed)
    result = simulate(market, gen.days)
    train, test = split_train_test(result.records, gen.days)
    write_dataset(train, out_dir / TRAIN_FILE)
    write_dataset(test, out_dir / TEST_FILE)
    write_catalog(Catalog.from_items(market.items), out_dir / CATALOG_FILE)
    manifest = write_manifest(out_dir, config, seed,
                              {"train": len(train), "test": len(test)},
                              result.metadata)
    print(f"wrote {len(train)} train / {len(test)} test records to "
          f"{out_dir} (dataset_id {manifest['dataset_id']})")
    return 0


def _model_config(config: ExperimentConfig, arch: str, seed: int | None,
                  **overrides) -> ModelConfig:
    base = config.model.to_dict()
    base["architecture"] = arch
    if seed is not None:
        base["seed"] = seed
    base.update(overrides)
    return ModelConfig.from_dict(base)


def _load_data(data_dir: Path, which: str, *, verify: bool,
               expected_id: str | None = None):
    manifest = load_manifest(data_dir)
    if verify:
        verify_dataset(data_dir, manifest, expected_id=expected_id)
    try:
        records = read_dataset(data_dir / which)
        catalog = read_catalog(data_dir / CATALOG_FILE)
    except DatasetError as exc:
        raise CliError("E_FORMAT", str(exc))
    return records, catalog, manifest


def _train_one(config: ExperimentConfig, data_dir: Path, out_dir: Path,
               name: str, model_cfg: ModelConfig, *, verify: bool) -> Path:
    train, catalog, manifest = _load_data(
        data_dir, TRAIN_FILE, verify=verify,
        expected_id=config.dataset_hash if verify else None)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"{name}.ckpt.npz"
    log_path = out_dir / f"{name}.log.jsonl"

    def on_epoch(epoch: int, result) -> None:
        save_checkpoint(ckpt_path, result.params, result.opt_state,
                        model_cfg, result.vocabs,
                        dataset_hash=manifest["dataset_id"])
        with log_path.open("a") as fh:
            fh.write(json.dumps(result.log[-1].to_dict(), sort_keys=True)
                     + "\n")

    log_path.write_text("")
    try:
        result = fit(train, catalog, model_cfg, epoch_callback=on_epoch)
    except ModelError as exc:
        raise CliError("E_TRAIN", str(exc))
    if not result.log:  # epochs == 0: still persist the initial state
        save_checkpoint(ckpt_path, result.params, result.opt_state,
                        model_cfg, result.vocabs,
                        dataset_hash=manifest["dataset_id"])
    if result.diverged:
        raise CliError("E_DIVERGED", f"{result.diverged}; last good "
                       f"checkpoint kept at {ckpt_path}")
    return ckpt_path


def cmd_train(args: argparse.Namespace) -> int:
    config = ExperimentConfig.load(args.config)
    seed = _seed(args, config)
    model_cfg = _model_config(config, args.arch, seed)
    ckpt = _train_one(config, Path(args.data), Path(args.out), args.arch,
                      model_cfg, verify=not args.no_verify)
    log_path = Path(args.out) / f"{args.arch}.log.jsonl"
    lines = [l for l in log_path.read_text().splitlines() if l]
    if lines:
        last = json.loads(lines[-1])
        print(f"trained {args.arch} ({len(lines)} epochs): "
              f"final ce={last['mean_ce']:.5f} aux={last['mean_aux']:.5f} "
              f"total={last['mean_total']:.5f}")
    else:
        print(f"trained {args.arch} (0 epochs): initialized parameters only")
    print(f"checkpoint: {ckpt} (config_hash {config_hash(model_cfg)})")
    return 0


def _evaluate_checkpoint(ckpt_path: Path, data_dir: Path, out_dir: Path, *,
                         verify: bool, baseline_path: Path | None,
                         fmt: str) -> tuple[MetricReport, Path]:
    try:
        ckpt = load_checkpoint(ckpt_path)
    except CheckpointError as exc:
        raise CliError("E_INTEGRITY", str(exc))
    test, catalog, manifest = _load_data(data_dir, TEST_FILE, verify=verify)
    if verify and ckpt.meta.get("dataset_hash") and \
            ckpt.meta["dataset_hash"] != manifest["dataset_id"]:
        raise CliError(
            "E_HASH_MISMATCH",
            f"checkpoint was trained on dataset {ckpt.meta['dataset_hash']} "
            f"but {data_dir} has {manifest['dataset_id']}")
    baseline = None
    baseline_note = None
    if baseline_path is not None:
        if baseline_path.exists():
            try:
                baseline = MetricReport.from_json(
                    baseline_path.read_text(encoding="utf-8"))
            except (OSError, ValueError, MetricsError) as exc:
                raise CliError("E_FORMAT", f"baseline report {baseline_path} "
                               f"is unreadable: {exc}")
        else:
            baseline_note = f"baseline report missing: {baseline_path}"
    accumulator = ScoreAccumulator()
    preds = predict(ckpt.params, ckpt.config, test, ckpt.vocabs, catalog,
                    partition_seed=ckpt.config.seed,
                    score_accumulator=accumulator)
    stem = ckpt_path.name.replace(".ckpt.npz", "")
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_path = out_dir / f"{stem}.predictions.tsv"
    source = {"arch": ckpt.config.architecture,
              "config_hash": config_hash(ckpt.config),
              "dataset_hash": manifest["dataset_id"]}
    write_predictions(preds, pred_path,
                      meta={**source, "partition_seed": ckpt.config.seed})
    metadata = {**source, "predictions_file": pred_path.name}
    if baseline is not None:
        metadata["baseline"] = baseline.metadata.get("arch", "supplied")
    if baseline_note:
        metadata["baseline_note"] = baseline_note
    report = grouped_report(preds, baseline=baseline, metadata=metadata)
    attention = accumulator.table().as_dict()
    report_json = report.to_json(attention_scores=attention)
    (out_dir / f"{stem}.report.json").write_text(report_json)
    human = render_report(report, title=f"evaluation: {stem}") + "\n" + \
        render_attention_table(attention)
    (out_dir / f"{stem}.report.txt").write_text(human)
    if fmt == "machine":
        print(report_json, end="")
    elif fmt == "human":
        print(human, end="")
    return report, out_dir / f"{stem}.report.json"


def cmd_evaluate(args: argparse.Namespace) -> int:
    baseline = Path(args.baseline) if args.baseline else None
    _evaluate_checkpoint(Path(args.checkpoint), Path(args.data),
                         Path(args.out), verify=not args.no_verify,
                         baseline_path=baseline, fmt=args.format)
    return 0


def _ablation_rows(config: ExperimentConfig, sweep_alpha: bool) -> list[tuple[str, str, ModelConfig]]:
    rows = []
    # the base model always anchors the table
    variants = list(dict.fromkeys(["base", *config.ablation]))
    for name in variants:
        overrides = dict(ABLATION_VARIANTS[name])
        arch = overrides.pop("architecture")
        label = VARIANT_LABELS[name]
        rows.append((name, label,
                     _model_config(config, arch, config.seed, **overrides)))
    if sweep_alpha:
        for alpha in config.alpha_sweep:
            name = f"alpha_{alpha:g}"
            rows.append((name, f"MSNet (alpha={alpha:g})",
                         _model_config(config, ARCH_MSNET, config.seed,
                                       alpha=alpha)))
    return rows


def cmd_ablate(args: argparse.Namespace) -> int:
    config = ExperimentConfig.load(args.config)
    config = dataclasses.replace(config, seed=_seed(args, config))
    data_dir = Path(args.data)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _ablation_rows(config, args.sweep_alpha)
    results: dict[str, dict] = {}
    base_report: MetricReport | None = None
    base_json: Path | None = None
    for name, label, model_cfg in rows:
        try:
            _train_one(config, data_dir, out_dir, name, model_cfg,
                       verify=not args.no_verify)
            report, report_path = _evaluate_checkpoint(
                out_dir / f"{name}.ckpt.npz", data_dir, out_dir,
                verify=not args.no_verify, baseline_path=base_json,
                fmt="quiet")
            if name == "base":
                base_report = report
                base_json = report_path
            overall = report.groups["overall"]
            results[name] = {
                "label": label,
                "auc": overall.auc_avg,
                "rela_impr_auc": overall.rela_impr_auc
                if name != "base" else 0.0,
                "gauc": overall.gauc,
                "rela_impr_gauc": overall.rela_impr_gauc
                if name != "base" else 0.0,
                "failed": False,
            }
        except (CliError, ModelError, MetricsError) as exc:
            results[name] = {"label": label, "failed": True,
                             "error": str(exc)}
    table = _render_ablation(results, [r[0] for r in rows])
    (out_dir / "ablation.txt").write_text(table)
    (out_dir / "ablation.json").write_text(
        json.dumps({"format": "ablation-v1", "seed": config.seed,
                    "rows": results}, indent=2, sort_keys=True) + "\n")
    print(table, end="")
    return 0


def _render_ablation(results: dict[str, dict], order: list[str]) -> str:
    header = (f"{'variant':<22}{'AUC':>9}{'RelaImpr':>11}{'GAUC':>9}"
              f"{'RelaImpr':>11}")
    lines = [header, "-" * len(header)]
    for name in order:
        row = results.get(name)
        if row is None:
            continue
        if row.get("failed"):
            lines.append(f"{row['label']:<22}FAILED: {row['error']}")
            continue
        lines.append(f"{row['label']:<22}{fmt_num(row['auc']):>9}"
                     f"{fmt_pct(row['rela_impr_auc']):>11}"
                     f"{fmt_num(row['gauc']):>9}"
                     f"{fmt_pct(row['rela_impr_gauc']):>11}")
    return "\n".join(lines) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    dataset_hashes = set()
    for pred_path in args.predictions:
        try:
            records, meta = read_predictions(pred_path)
        except MetricsError as exc:
            raise CliError("E_FORMAT", str(exc))
        if meta.get("dataset_hash"):
            dataset_hashes.add(meta["dataset_hash"])
        reports.append((Path(pred_path).name, records, meta))
    if len(dataset_hashes) > 1:
        raise CliError("E_HASH_MISMATCH",
                       f"prediction files come from different datasets: "
                       f"{sorted(dataset_hashes)}")
    base_report = None
    rendered = []
    machine: dict = {"format": "comparison-v1", "reports": {}}
    for name, records, meta in reports:
        rep = grouped_report(records, baseline=base_report,
                             metadata={"arch": meta.get("arch", name),
                                       "predictions_file": name,
                                       **({"dataset_hash":
                                           meta["dataset_hash"]}
                                          if "dataset_hash" in meta else {})})
        if base_report is None:
            base_report = rep
        rendered.append(render_report(rep, title=name))
        machine["reports"][name] = rep.to_dict()
    if args.checkpoint:
        if not args.data:
            raise CliError("E_CONFIG",
                           "--checkpoint needs --data for the attention table")
        try:
            ckpt = load_checkpoint(args.checkpoint)
        except CheckpointError as exc:
            raise CliError("E_INTEGRITY", str(exc))
        test, catalog, _ = _load_data(Path(args.data), TEST_FILE,
                                      verify=False)
        accumulator = ScoreAccumulator()
        predict(ckpt.params, ckpt.config, test, ckpt.vocabs, catalog,
                score_accumulator=accumulator)
        table = accumulator.table().as_dict()
        rendered.append(render_attention_table(table))
        machine["attention_scores"] = table
    if args.format == "machine":
        print(json.dumps(machine, indent=2, sort_keys=True, allow_nan=False))
    else:
        print("\n".join(rendered), end="")
    return 0


def cmd_init_config(args: argparse.Namespace) -> int:
    path = Path(args.out)
    if path.is_dir():
        raise CliError("E_EXISTS", f"{path} is a directory")
    if path.exists() and not args.force:
        raise CliError("E_EXISTS", f"refusing to overwrite {path} "
                       "(use --force)")
    if not path.parent.is_dir():
        raise CliError("E_NOT_FOUND", f"directory not found: {path.parent}")
    path.write_text(ExperimentConfig.default_json())
    print(f"wrote default config to {path}")
    return 0


# ----------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``E_USAGE`` instead of printing a usage
    block; subcommand parsers inherit this class."""

    def error(self, message: str) -> NoReturn:
        raise CliError("E_USAGE", f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="msnetlab",
        description="Synthetic limited-stock market lab for DIN and MSNet "
                    "CTR models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-config", help="write a default config file")
    p.add_argument("--out", default="experiment.json")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_init_config)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one architecture")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--arch", choices=[ARCH_DIN, ARCH_MSNET], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--baseline", default=None,
                   help="baseline report.json for RelaImpr columns")
    p.add_argument("--no-verify", action="store_true")
    p.add_argument("--format", choices=["human", "machine"], default="human")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train and compare model variants")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sweep-alpha", action="store_true",
                   help="add aux-weight sweep rows")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", help="render stored prediction files")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--checkpoint", default=None,
                   help="add the attention-score table from this checkpoint")
    p.add_argument("--data", default=None)
    p.add_argument("--format", choices=["human", "machine"], default="human")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 2
    except (DatasetError, MetricsError) as exc:
        print(f"error E_FORMAT: {exc}", file=sys.stderr)
        return 2
    except (ModelError,) as exc:
        print(f"error E_MODEL: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:
        # numpy refuses a shape past its byte limit with a ValueError
        if (isinstance(exc, ValueError)
                and not str(exc).startswith("array is too big")):
            raise
        print(f"error E_MEMORY: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
