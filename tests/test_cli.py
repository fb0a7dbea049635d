"""CLI wiring tests: determinism, refusal semantics, exit codes, file
formats, ablation table shape."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import msnetlab
import msnetlab.model
from msnetlab.autodiff import ParamStore
from msnetlab.cli import ABLATION_VARIANTS, CliError, ExperimentConfig, main
from msnetlab.datagen import GeneratorConfig, read_dataset
from msnetlab.metrics import PREDICTION_FIELDS, read_predictions
from msnetlab.model import (
    ModelConfig,
    _array_checksum,
    load_checkpoint,
    save_checkpoint,
)

TINY = {
    "seed": 5,
    "generator": {"n_users": 100, "n_items": 600, "days": 4,
                  "new_items_per_day": 40,
                  "mean_impressions_per_user_day": 7.0},
    "model": {"epochs": 1, "history_len": 8, "batch_size": 64,
              "mlp_hidden": [16, 8], "d_id": 4, "d_side": 4, "d_head": 4},
}


def write_config(path: Path, **overrides) -> Path:
    cfg = json.loads(json.dumps(TINY))
    for key, val in overrides.items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus trained DIN/MSNet checkpoints, shared by
    the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    cfg = write_config(root / "cfg.json")
    data = root / "data"
    run = root / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    for arch in ("din", "msnet"):
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--arch", arch, "--out", str(run)]) == 0
        assert main(["evaluate", "--checkpoint",
                     str(run / f"{arch}.ckpt.npz"), "--data", str(data),
                     "--out", str(run)]) == 0
    return root, cfg, data, run


class TestGenerate:
    def test_rerun_same_seed_identical_hashes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["generate", "--config", str(cfg),
                         "--out", str(out)]) == 0
            outs.append(json.loads((out / "manifest.json").read_text()))
        assert outs[0]["files"] == outs[1]["files"]
        assert outs[0]["dataset_id"] == outs[1]["dataset_id"]

    # sha256 of every file ``generate`` writes for TINY at two seeds;
    # any change to the random stream or to a written byte moves them
    PINNED = {
        5: {"items.tsv": "91191d51a2d86d13ab3c89c09211303e"
                         "5fc1dfb0f65d1d6c28e42fbede8297b9",
            "manifest.json": "7c136656dbcf23a63bbe55368c6ffad7"
                             "fb9208ef4f218a11294eff3fe5aa7ba1",
            "test.tsv": "93ddd9876c42b1f247343928738c3392"
                        "28a73301cf0659c16fe7ea71007633fc",
            "train.tsv": "1052a213b566d6759f99b115acfd7fed"
                         "be4ba9113926ee4fb91de6afc78fefe9"},
        17: {"items.tsv": "c1df50a52e745d7947a1b84d31e56fc6"
                          "1c7c74ff1d795d039a4877423c1e385e",
             "manifest.json": "8c3e86795033d2ab4c6fff590753dc31"
                              "79ca038b2e7b5d1ff2634a03ba7946e1",
             "test.tsv": "d292b71d9f2d3630fd19bd0a496f398a"
                         "e9fce52a0328a30f69139418831b86f8",
             "train.tsv": "77303a0e7f36a13dbb93dfe2e36d87b7"
                          "ff96fd4ce963c741407f31f4038f6568"},
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_generated_bytes_pinned(self, seed, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out", str(out),
                     "--seed", str(seed)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
        assert got == self.PINNED[seed]

    # a market that sells out: every item limited and bought on its first
    # click, a few new items a day; each day runs out of live items, which
    # covers the uniform fallback and the cut-short days.  sha256 of each
    # file as taken when every simulator draw was a Generator call.
    SELL_OUT = {"seed": 5, "generator": {
        "n_users": 40, "n_items": 60, "days": 4, "new_items_per_day": 3,
        "limited_fraction": 1, "purchase_given_click": 1, "ctr_bias": 0}}
    SELL_OUT_PINNED = {
        "items.tsv": "c2808d37916d49651884c8726651e3df"
                     "8e458728c55411a5266d5d07cc17ff07",
        "manifest.json": "4e3b736f43c7e5e8bfb858b5a5db8162"
                         "e1cb6b3d5ef1381123e667e1f411c9b3",
        "test.tsv": "fcfa9fd3912929da2ece26a249f5f8ec"
                    "1ff4534ee3479e01329b7c0432401b8b",
        "train.tsv": "9518b5c99305eb4a98c302110202142a"
                     "0dd5a5941d55fcff9667ec707b9390a1"}

    def test_sell_out_bytes_pinned(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.SELL_OUT))
        out = tmp_path / "data"
        assert main(["generate", "--config", str(cfg), "--out",
                     str(out)]) == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
        assert got == self.SELL_OUT_PINNED
        # all 72 items sold, and every day ran out of them
        simulation = json.loads((out / "manifest.json").read_text())[
            "simulation"]
        assert simulation["days_cut_short"] == 4
        assert simulation["live_items_at_end"] == 0
        assert len((out / "items.tsv").read_text().splitlines()) == 1 + 72

    def test_test_file_is_last_day_only(self, workspace):
        _, _, data, _ = workspace
        days = TINY["generator"]["days"]
        test = read_dataset(data / "test.tsv")
        assert test and all(r.day == days for r in test)
        train = read_dataset(data / "train.tsv")
        assert train and all(r.day < days for r in train)

    def test_refuses_overwrite_without_force(self, workspace, capsys):
        root, cfg, data, _ = workspace
        assert main(["generate", "--config", str(cfg),
                     "--out", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error E_EXISTS")
        assert main(["generate", "--config", str(cfg), "--out", str(data),
                     "--force"]) == 0

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "d")]) == 2
        assert "E_NOT_FOUND" in capsys.readouterr().err


class TestTrain:
    def test_two_archs_distinct_config_hashes(self, workspace):
        _, _, _, run = workspace
        din = load_checkpoint(run / "din.ckpt.npz")
        msnet = load_checkpoint(run / "msnet.ckpt.npz")
        assert din.meta["config_hash"] != msnet.meta["config_hash"]
        assert din.config.architecture == "din"
        assert msnet.config.architecture == "msnet"

    def test_epochs_zero_initial_checkpoint_empty_log(self, workspace,
                                                      tmp_path):
        root, _, data, _ = workspace
        cfg = write_config(tmp_path / "cfg0.json", model={"epochs": 0})
        out = tmp_path / "run0"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--arch", "din", "--out", str(out)]) == 0
        assert (out / "din.log.jsonl").read_text() == ""
        ck = load_checkpoint(out / "din.ckpt.npz")
        assert ck.opt_state.step == 0

    def test_hash_mismatch_refused_naming_both(self, workspace, tmp_path,
                                               capsys):
        root, cfg, data, _ = workspace
        tampered = tmp_path / "data"
        tampered.mkdir()
        for f in data.iterdir():
            (tampered / f.name).write_bytes(f.read_bytes())
        # append one syntactically valid record: parses fine, hash differs
        train_records = read_dataset(tampered / "train.tsv")
        with (tampered / "train.tsv").open("a") as fh:
            r = next(iter(train_records))
            fh.write(f"{r.day}\t{r.user_id}\t{r.item_id}\t{r.label}\t"
                     f"{r.true_ctr!r}\t{int(r.item_is_limited)}\t"
                     f"{int(r.item_is_new)}\t\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(tampered),
                     "--arch", "din", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "E_HASH_MISMATCH" in err
        # both hashes named: the recorded one and the actual one
        assert err.count("!=") == 1
        assert main(["train", "--config", str(cfg), "--data", str(tampered),
                     "--arch", "din", "--out", str(out),
                     "--no-verify"]) == 0

    def test_config_pinned_dataset_hash(self, workspace, tmp_path, capsys):
        root, _, data, _ = workspace
        manifest = json.loads((data / "manifest.json").read_text())
        good = write_config(tmp_path / "good.json",
                            dataset_hash=manifest["dataset_id"])
        assert main(["train", "--config", str(good), "--data", str(data),
                     "--arch", "din", "--out", str(tmp_path / "g")]) == 0
        bad = write_config(tmp_path / "bad.json",
                           dataset_hash="deadbeefdeadbeef")
        assert main(["train", "--config", str(bad), "--data", str(data),
                     "--arch", "din", "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "E_HASH_MISMATCH" in err
        assert "deadbeefdeadbeef" in err and manifest["dataset_id"] in err

    def test_training_log_machine_parsable(self, workspace):
        _, _, _, run = workspace
        lines = (run / "din.log.jsonl").read_text().splitlines()
        assert len(lines) == TINY["model"]["epochs"]
        entry = json.loads(lines[0])
        assert {"epoch", "mean_ce", "mean_aux", "mean_total",
                "batches"} <= set(entry)


class TestEvaluate:
    def test_baseline_adds_rela_impr(self, workspace, tmp_path):
        root, _, data, run = workspace
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint",
                     str(run / "msnet.ckpt.npz"), "--data", str(data),
                     "--out", str(out), "--baseline",
                     str(run / "din.report.json")]) == 0
        report = json.loads((out / "msnet.report.json").read_text())
        assert report["groups"]["overall"]["rela_impr_auc"] is not None
        assert report["metadata"]["baseline"] == "din"

    def test_missing_baseline_noted_not_fatal(self, workspace, tmp_path):
        root, _, data, run = workspace
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint",
                     str(run / "msnet.ckpt.npz"), "--data", str(data),
                     "--out", str(out), "--baseline",
                     str(run / "missing.json")]) == 0
        report = json.loads((out / "msnet.report.json").read_text())
        assert report["groups"]["overall"]["rela_impr_auc"] is None
        assert "baseline_note" in report["metadata"]

    def test_unreadable_baseline_named(self, workspace, tmp_path, capsys):
        argv = _evaluate_with_baseline(workspace, tmp_path,
                                       lambda p: p.write_text("{corrupt"))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"baseline report {tmp_path / 'baseline.json'} " in err

    def test_re_evaluation_byte_identical(self, workspace, tmp_path):
        root, _, data, run = workspace
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            assert main(["evaluate", "--checkpoint",
                         str(run / "din.ckpt.npz"), "--data", str(data),
                         "--out", str(out)]) == 0
            outs.append((out / "din.report.json").read_bytes()
                        + (out / "din.predictions.tsv").read_bytes())
        assert outs[0] == outs[1]

    def test_wrong_dataset_refused(self, workspace, tmp_path, capsys):
        root, cfg, data, run = workspace
        other = tmp_path / "other_data"
        assert main(["generate", "--config", str(cfg), "--out", str(other),
                     "--seed", "99"]) == 0
        assert main(["evaluate", "--checkpoint",
                     str(run / "din.ckpt.npz"), "--data", str(other),
                     "--out", str(tmp_path / "e")]) == 2
        assert "E_HASH_MISMATCH" in capsys.readouterr().err

    def test_machine_format_parses(self, workspace, tmp_path, capsys):
        root, _, data, run = workspace
        assert main(["evaluate", "--checkpoint",
                     str(run / "din.ckpt.npz"), "--data", str(data),
                     "--out", str(tmp_path / "m"), "--format",
                     "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "report-v1"
        assert "attention_scores" in payload

    def test_predictions_file_round_trip(self, workspace):
        _, _, _, run = workspace
        records, meta = read_predictions(run / "din.predictions.tsv")
        assert records
        assert meta["arch"] == "din"
        assert all(0.0 < r.p < 1.0 for r in records)


class TestAblate:
    def test_degenerate_grid_two_rows(self, workspace, tmp_path, capsys):
        root, _, data, _ = workspace
        cfg = write_config(tmp_path / "cfg.json", ablation=["msnet"])
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        table = json.loads((out / "ablation.json").read_text())
        assert set(table["rows"]) == {"base", "msnet"}
        assert table["rows"]["base"]["rela_impr_auc"] == 0.0
        text = (out / "ablation.txt").read_text()
        assert "Base (DIN)" in text and "MSNet" in text

    def test_full_grid_renders_all_variants(self, workspace, tmp_path):
        root, _, data, _ = workspace
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "ablate_full"
        assert main(["ablate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        table = json.loads((out / "ablation.json").read_text())
        assert set(table["rows"]) == {"base", "wo_seq_split", "wo_seq_meta",
                                      "wo_aux_loss", "msnet"}
        assert not any(r.get("failed") for r in table["rows"].values())

    def test_alpha_sweep_adds_rows(self, workspace, tmp_path):
        root, _, data, _ = workspace
        cfg = write_config(tmp_path / "cfg.json", ablation=["msnet"],
                           alpha_sweep=[0.01, 1.0])
        out = tmp_path / "ablate_sweep"
        assert main(["ablate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--sweep-alpha"]) == 0
        table = json.loads((out / "ablation.json").read_text())
        assert set(table["rows"]) == {"base", "msnet", "alpha_0.01",
                                      "alpha_1"}
        text = (out / "ablation.txt").read_text()
        assert "alpha=0.01" in text and "alpha=1" in text

    def test_failing_variant_marked_partial_table(self, workspace, tmp_path,
                                                  monkeypatch):
        import msnetlab.cli as cli_mod
        root, _, data, _ = workspace
        cfg = write_config(tmp_path / "cfg.json", ablation=["msnet"])
        out = tmp_path / "ablate_fail"
        real_fit = cli_mod.fit

        def sabotaged(records, catalog, model_cfg, **kw):
            if model_cfg.architecture == "msnet":
                raise cli_mod.ModelError("injected failure")
            return real_fit(records, catalog, model_cfg, **kw)

        monkeypatch.setattr(cli_mod, "fit", sabotaged)
        assert main(["ablate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out)]) == 0
        table = json.loads((out / "ablation.json").read_text())
        assert not table["rows"]["base"]["failed"]
        assert table["rows"]["msnet"]["failed"]
        assert "injected failure" in table["rows"]["msnet"]["error"]
        text = (out / "ablation.txt").read_text()
        assert "FAILED" in text


class TestReport:
    def test_stored_file_reports_stored_json(self, capsys):
        """A stored prediction file with ties, single-class users and
        negative ids gives exactly the stored machine report."""
        data = Path(__file__).parent / "data"
        assert main(["report", str(data / "golden.predictions.tsv"),
                     "--format", "machine"]) == 0
        assert capsys.readouterr().out == \
            (data / "golden.report.json").read_text()

    @pytest.mark.parametrize("p", ["0.0", "5e-324"])
    def test_cal_n_null_when_not_finite(self, p, tmp_path, capsys):
        """A clicked partition predicted (nearly) all 0 has no finite
        Cal-N: the report says null and why, and stays valid JSON."""
        path = tmp_path / "p.tsv"
        path.write_text("#predictions-v1\t" + "\t".join(PREDICTION_FIELDS)
                        + f"\n1\t1\t{p}\t1\t0\t0\t4\n"
                        "2\t2\t0.5\t0\t0\t0\t5\n")
        assert main(["report", str(path), "--format", "machine"]) == 0

        def refuse(constant):
            raise AssertionError(f"not JSON: {constant}")

        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        groups = out["reports"]["p.tsv"]["groups"]
        for name in ("overall", "multi"):
            assert groups[name]["cal_n"] is None
            assert groups[name]["cal_partitions"] == 1
            assert "PCOC 0" in groups[name]["note"]
        assert main(["report", str(path)]) == 0
        assert "PCOC 0" in capsys.readouterr().out

    def test_single_file(self, workspace, capsys):
        _, _, _, run = workspace
        assert main(["report", str(run / "din.predictions.tsv")]) == 0
        out = capsys.readouterr().out
        assert "overall" in out

    def test_two_files_side_by_side(self, workspace, capsys):
        _, _, _, run = workspace
        assert main(["report", str(run / "din.predictions.tsv"),
                     str(run / "msnet.predictions.tsv")]) == 0
        out = capsys.readouterr().out
        assert "din.predictions.tsv" in out
        assert "msnet.predictions.tsv" in out

    def test_machine_format(self, workspace, capsys):
        _, _, _, run = workspace
        assert main(["report", str(run / "din.predictions.tsv"),
                     "--format", "machine"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "comparison-v1"

    def test_incompatible_dataset_hashes_refused(self, workspace, tmp_path,
                                                 capsys):
        root, cfg, data, run = workspace
        other_data = tmp_path / "data2"
        other_run = tmp_path / "run2"
        assert main(["generate", "--config", str(cfg),
                     "--out", str(other_data), "--seed", "77"]) == 0
        assert main(["train", "--config", str(cfg), "--data",
                     str(other_data), "--arch", "din", "--out",
                     str(other_run)]) == 0
        assert main(["evaluate", "--checkpoint",
                     str(other_run / "din.ckpt.npz"), "--data",
                     str(other_data), "--out", str(other_run)]) == 0
        assert main(["report", str(run / "din.predictions.tsv"),
                     str(other_run / "din.predictions.tsv")]) == 2
        assert "E_HASH_MISMATCH" in capsys.readouterr().err

    def test_attention_table_with_checkpoint(self, workspace, capsys):
        root, _, data, run = workspace
        assert main(["report", str(run / "din.predictions.tsv"),
                     "--checkpoint", str(run / "din.ckpt.npz"),
                     "--data", str(data)]) == 0
        out = capsys.readouterr().out
        assert "attention scores" in out


class TestUsage:
    def test_help_prints_to_stdout_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: msnetlab train")
        assert captured.err == ""


class TestInitConfig:
    def test_writes_default_and_refuses_overwrite(self, tmp_path, capsys):
        target = tmp_path / "exp.json"
        assert main(["init-config", "--out", str(target)]) == 0
        cfg = json.loads(target.read_text())
        assert "generator" in cfg and "model" in cfg
        assert "seed" in cfg and "seed" not in cfg["model"]
        assert ExperimentConfig.load(target) == ExperimentConfig()
        assert main(["init-config", "--out", str(target)]) == 2
        assert "E_EXISTS" in capsys.readouterr().err


def test_checkpoint_config_keeps_the_top_level_seed(workspace):
    # the config file holds one seed, at the top level; training copies it
    # into the model config each checkpoint stores
    _, _, _, run = workspace
    for arch in ("din", "msnet"):
        assert load_checkpoint(run / f"{arch}.ckpt.npz").config.seed == \
            TINY["seed"]


def _config_text(path: Path, text: str) -> list[str]:
    path.write_text(text)
    return ["generate", "--config", str(path), "--out", str(path.parent / "d")]


def _data_copy(workspace, tmp_path: Path, edit) -> list[str]:
    _, cfg, data, _ = workspace
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    edit(copy)
    return ["train", "--config", str(cfg), "--data", str(copy),
            "--arch", "din", "--out", str(tmp_path / "run")]


def _replace_field(path: Path, field: int, value: str) -> None:
    """Rewrite one tab-separated field of the first record after the
    header."""
    header, first, rest = path.read_text().split("\n", 2)
    parts = first.split("\t")
    parts[field] = value
    path.write_text("\n".join([header, "\t".join(parts), rest]))


def _as_directory(path: Path) -> None:
    path.unlink()
    path.mkdir()


# JSON nested past the parser's depth
TOO_DEEP = "[" * 100_000 + "]" * 100_000


def _append_bytes(path: Path, data: bytes) -> None:
    with path.open("ab") as fh:
        fh.write(data)


def _bad_prediction(workspace, tmp_path: Path, field: str,
                    value: str) -> list[str]:
    """Reports a copy of DIN's prediction file with one field of its first
    row replaced."""
    _, _, _, run = workspace
    lines = (run / "din.predictions.tsv").read_text().split("\n")
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    parts = lines[row].split("\t")
    parts[PREDICTION_FIELDS.index(field)] = value
    lines[row] = "\t".join(parts)
    path = tmp_path / "bad.predictions.tsv"
    path.write_text("\n".join(lines))
    return ["report", str(path), "--format", "machine"]


def _undecodable_prediction(tmp_path: Path) -> list[str]:
    path = tmp_path / "bad.predictions.tsv"
    path.write_bytes(b"#predictions-v1\xff\n")
    return ["report", str(path)]


def _evaluate_with_baseline(workspace, tmp_path: Path, make) -> list[str]:
    """Evaluates the MSNet checkpoint against the baseline path that
    ``make`` fills in (as a file or a directory)."""
    _, _, data, run = workspace
    baseline = tmp_path / "baseline.json"
    make(baseline)
    return ["evaluate", "--checkpoint", str(run / "msnet.ckpt.npz"),
            "--data", str(data), "--out", str(tmp_path / "eval"),
            "--baseline", str(baseline)]


def _checkpoint_meta(workspace, tmp_path: Path, edit,
                     edit_blocks=None) -> list[str]:
    """Rewrites only the metadata: the checksum covers the arrays, so it
    still matches and the edited field is what the loader must judge.
    ``edit_blocks``, when given, first changes the dict of array blocks in
    place, and the metadata gets their new checksum, so that the blocks
    themselves are what the loader must judge."""
    _, _, data, run = workspace
    with np.load(run / "msnet.ckpt.npz") as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = str(arrays.pop("__meta__"))
    if edit_blocks is not None:
        edit_blocks(arrays)
        meta = json.dumps({**json.loads(meta),
                           "checksum": _array_checksum(arrays)})
    ckpt = tmp_path / "msnet.ckpt.npz"
    with ckpt.open("wb") as fh:
        np.savez(fh, __meta__=np.asarray(edit(meta)), **arrays)
    return ["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
            "--out", str(tmp_path / "e")]


def _checkpoint_block(workspace, tmp_path: Path, key: str, make) -> list[str]:
    """The checkpoint with block ``key`` replaced by ``make(block)`` under a
    valid checksum."""
    def edit_blocks(arrays):
        arrays[key] = make(arrays[key])
    return _checkpoint_meta(workspace, tmp_path, str, edit_blocks)


def _repeated_item_id(arrays) -> None:
    """The last item id repeats the first, and the item table and its
    accumulator lose their last row, so that the shapes still agree with
    the vocabulary a repeated id would collapse to."""
    arrays["vocab/items"][-1] = arrays["vocab/items"][0]
    for key in ("param/emb.item", "opt/emb.item"):
        arrays[key] = arrays[key][:-1]


def _old_format(meta: str) -> str:
    return json.dumps({**json.loads(meta), "format": "ckpt-v1"})


def _opt_step_text(meta: str) -> str:
    return json.dumps({**json.loads(meta), "opt_step": "x"})


# model switches of an earlier version, each at its old default
REMOVED_SWITCHES = {"use_aux_loss": True, "aux_scope": "limited_only",
                    "meta_mode": "net"}


def _removed_switches(meta: str) -> str:
    meta = json.loads(meta)
    meta["config"].update(REMOVED_SWITCHES)
    return json.dumps(meta)


def _checkpoint_without(workspace, tmp_path: Path, block: str) -> list[str]:
    """Saves the checkpoint again without one parameter block, so its
    checksum is consistent and only the parameter set is wrong."""
    _, _, data, run = workspace
    ckpt = load_checkpoint(run / "msnet.ckpt.npz")
    params = ParamStore()
    for name in ckpt.params.names():
        if name != block:
            params.add(name, ckpt.params.values[name],
                       embedding=name in ckpt.params.embedding_names)
    path = tmp_path / "msnet.ckpt.npz"
    save_checkpoint(path, params, ckpt.opt_state, ckpt.config, ckpt.vocabs,
                    dataset_hash=ckpt.meta["dataset_hash"])
    return ["evaluate", "--checkpoint", str(path), "--data", str(data),
            "--out", str(tmp_path / "e")]


def _train_with_model(workspace, tmp_path: Path, **model) -> list[str]:
    _, _, data, _ = workspace
    cfg = write_config(tmp_path / "cfg.json", model=model)
    return ["train", "--config", str(cfg), "--data", str(data), "--arch",
            "msnet", "--out", str(tmp_path / "run")]


def _ablate_alpha_sweep(workspace, tmp_path: Path, sweep) -> list[str]:
    _, _, data, _ = workspace
    cfg = write_config(tmp_path / "cfg.json", alpha_sweep=sweep)
    return ["ablate", "--config", str(cfg), "--data", str(data), "--out",
            str(tmp_path / "a"), "--sweep-alpha"]


# name -> (expected code, argv builder over (workspace, tmp_path))
MALFORMED_INPUTS = {
    "config_top_level_list": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", "[1, 2]")),
    "config_negative_learning_rate": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", json.dumps({"model": {"learning_rate": -1}}))),
    "config_zero_logit_clamp": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", json.dumps({"model": {"logit_clamp": 0}}))),
    "config_is_directory": ("E_NOT_FOUND", lambda ws, tmp: [
        "generate", "--config", str(tmp), "--out", str(tmp / "d")]),
    "config_unknown_top_level_key": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", json.dumps({"modle": {"epochs": 3}}))),
    "manifest_not_json": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: (d / "manifest.json").write_text("{corrupt"))),
    "train_file_missing": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: (d / "train.tsv").unlink())),
    "train_file_missing_no_verify": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: (d / "train.tsv").unlink()) + ["--no-verify"]),
    "manifest_is_directory": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _as_directory(d / "manifest.json"))),
    "manifest_not_utf8": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: (d / "manifest.json").write_bytes(
            b'{"format": "manifest-v1"\xff}'))),
    "manifest_nested_too_deep": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: (d / "manifest.json").write_text(TOO_DEEP))),
    "train_file_is_directory": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _as_directory(d / "train.tsv"))),
    "train_file_is_directory_no_verify": ("E_FORMAT", lambda ws, tmp:
                                          _data_copy(
                                              ws, tmp,
                                              lambda d: _as_directory(
                                                  d / "train.tsv"))
                                          + ["--no-verify"]),
    "dataset_history_id_above_int64": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _replace_field(d / "train.tsv", 7, f"{2**64}:1:0"))
        + ["--no-verify"]),
    "dataset_user_id_below_int64": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _replace_field(d / "train.tsv", 1,
                                          str(-2**63 - 1)))
        + ["--no-verify"]),
    "dataset_flag_seven": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _replace_field(d / "train.tsv", 5, "7"))
        + ["--no-verify"]),
    "dataset_history_flag_seven": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _replace_field(d / "train.tsv", 7, "3:1:7"))
        + ["--no-verify"]),
    "dataset_not_utf8": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _append_bytes(d / "train.tsv", b"\xff\xfe"))
        + ["--no-verify"]),
    "catalog_not_utf8": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _append_bytes(d / "items.tsv", b"\xff\xfe"))
        + ["--no-verify"]),
    "catalog_item_id_above_int64": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: _replace_field(d / "items.tsv", 0, str(2**64)))
        + ["--no-verify"]),
    "checkpoint_meta_not_json": ("E_INTEGRITY", lambda ws, tmp:
                                 _checkpoint_meta(ws, tmp, lambda m: "{oops")),
    "checkpoint_old_format": ("E_INTEGRITY", lambda ws, tmp:
                              _checkpoint_meta(ws, tmp, _old_format)),
    "checkpoint_opt_step_string": ("E_INTEGRITY", lambda ws, tmp:
                                   _checkpoint_meta(ws, tmp, _opt_step_text)),
    "seed_flag_negative": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", "{}") + ["--seed", "-1"]),
    "seed_flag_past_int64": ("E_CONFIG", lambda ws, tmp:
                             _train_with_model(ws, tmp)
                             + ["--seed", str(10**30)]),
    "config_seed_past_int64": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", json.dumps({"seed": 10**30}))),
    "config_removed_model_switches": ("E_CONFIG", lambda ws, tmp:
                                      _train_with_model(ws, tmp,
                                                        **REMOVED_SWITCHES)),
    "checkpoint_removed_model_switches": ("E_INTEGRITY", lambda ws, tmp:
                                          _checkpoint_meta(ws, tmp,
                                                           _removed_switches)),
    "config_model_seed": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", json.dumps({"model": {"seed": 5}}))),
    "config_seed_string": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", json.dumps({"seed": "x"}))),
    "config_n_users_string": ("E_CONFIG", lambda ws, tmp: _config_text(
        tmp / "cfg.json", json.dumps({"generator": {"n_users": "5"}}))),
    "config_alpha_sweep_string": ("E_CONFIG", lambda ws, tmp:
                                  _ablate_alpha_sweep(ws, tmp, ["x"])),
    "config_history_len_past_int64": ("E_CONFIG", lambda ws, tmp:
                                      _train_with_model(ws, tmp,
                                                        history_len=10**30)),
    "config_d_id_past_int64": ("E_CONFIG", lambda ws, tmp: _train_with_model(
        ws, tmp, d_id=10**30)),
    "config_n_categories_past_int64": ("E_CONFIG", lambda ws, tmp:
                                       _config_text(tmp / "cfg.json",
                                                    json.dumps({"generator": {
                                                        "n_categories":
                                                        10**30}}))),
    "manifest_without_files": ("E_FORMAT", lambda ws, tmp: _data_copy(
        ws, tmp, lambda d: (d / "manifest.json").write_text(
            json.dumps({"format": "manifest-v1"})))),
    "checkpoint_missing_block": ("E_INTEGRITY", lambda ws, tmp:
                                 _checkpoint_without(ws, tmp,
                                                     "att.limited.wq")),
    "checkpoint_vocab_items_2d": ("E_INTEGRITY", lambda ws, tmp:
                                  _checkpoint_block(
                                      ws, tmp, "vocab/items",
                                      lambda a: a.reshape(1, -1))),
    "checkpoint_vocab_categories_0d": ("E_INTEGRITY", lambda ws, tmp:
                                       _checkpoint_block(
                                           ws, tmp, "vocab/categories",
                                           lambda a: a[0])),
    "checkpoint_vocab_ids_past_int64": ("E_INTEGRITY", lambda ws, tmp:
                                        _checkpoint_block(
                                            ws, tmp, "vocab/items",
                                            lambda a: a.astype(np.uint64)
                                            + np.uint64(2 ** 63))),
    "checkpoint_vocab_float_ids": ("E_INTEGRITY", lambda ws, tmp:
                                   _checkpoint_block(
                                       ws, tmp, "vocab/items",
                                       lambda a: a + 0.5)),
    "checkpoint_vocab_repeated_id": ("E_INTEGRITY", lambda ws, tmp:
                                     _checkpoint_meta(ws, tmp, str,
                                                      _repeated_item_id)),
    "checkpoint_param_strings": ("E_INTEGRITY", lambda ws, tmp:
                                 _checkpoint_block(
                                     ws, tmp, "param/mlp.out.b",
                                     lambda a: np.full(a.shape, "x"))),
    "checkpoint_param_complex": ("E_INTEGRITY", lambda ws, tmp:
                                 _checkpoint_block(
                                     ws, tmp, "param/mlp.out.b",
                                     lambda a: a.astype(np.complex128))),
    "checkpoint_opt_int64": ("E_INTEGRITY", lambda ws, tmp:
                             _checkpoint_block(
                                 ws, tmp, "opt/att.main.wq",
                                 lambda a: a.astype(np.int64))),
    "usage_missing_arguments": ("E_USAGE", lambda ws, tmp: [
        "train", "--config", "x.json"]),
    "usage_unknown_command": ("E_USAGE", lambda ws, tmp: ["bogus"]),
    "init_config_missing_directory": ("E_NOT_FOUND", lambda ws, tmp: [
        "init-config", "--out", str(tmp / "missing" / "x.json")]),
    "init_config_out_is_directory": ("E_EXISTS", lambda ws, tmp: [
        "init-config", "--out", str(tmp), "--force"]),
    "report_missing_predictions": ("E_FORMAT", lambda ws, tmp: [
        "report", str(tmp / "none.predictions.tsv")]),
    "report_checkpoint_without_data": ("E_CONFIG", lambda ws, tmp: [
        "report", str(ws[3] / "din.predictions.tsv"),
        "--checkpoint", str(ws[3] / "din.ckpt.npz")]),
    "prediction_p_nan": ("E_FORMAT", lambda ws, tmp: _bad_prediction(
        ws, tmp, "p", "nan")),
    "prediction_p_inf": ("E_FORMAT", lambda ws, tmp: _bad_prediction(
        ws, tmp, "p", "inf")),
    "prediction_p_above_one": ("E_FORMAT", lambda ws, tmp: _bad_prediction(
        ws, tmp, "p", "1.5")),
    "prediction_label_two": ("E_FORMAT", lambda ws, tmp: _bad_prediction(
        ws, tmp, "y", "2")),
    "prediction_is_new_seven": ("E_FORMAT", lambda ws, tmp: _bad_prediction(
        ws, tmp, "is_new", "7")),
    "prediction_partition_negative": ("E_FORMAT", lambda ws, tmp:
                                      _bad_prediction(ws, tmp, "partition_id",
                                                      "-4")),
    "prediction_user_id_above_int64": ("E_FORMAT", lambda ws, tmp:
                                       _bad_prediction(
                                           ws, tmp, "user_id",
                                           "99999999999999999999999")),
    "prediction_file_not_utf8": ("E_FORMAT", lambda ws, tmp:
                                 _undecodable_prediction(tmp)),
    "prediction_file_is_directory": ("E_FORMAT", lambda ws, tmp: [
        "report", str(tmp)]),
    "baseline_is_directory": ("E_FORMAT", lambda ws, tmp:
                              _evaluate_with_baseline(
                                  ws, tmp, lambda p: p.mkdir())),
    "baseline_not_json": ("E_FORMAT", lambda ws, tmp: _evaluate_with_baseline(
        ws, tmp, lambda p: p.write_text("{corrupt"))),
    "baseline_not_utf8": ("E_FORMAT", lambda ws, tmp: _evaluate_with_baseline(
        ws, tmp, lambda p: p.write_bytes(b'{"format": "report-v1"\xff}'))),
    "baseline_nested_too_deep": ("E_FORMAT", lambda ws, tmp:
                                 _evaluate_with_baseline(
                                     ws, tmp, lambda p: p.write_text(
                                         TOO_DEEP))),
    "baseline_not_an_object": ("E_FORMAT", lambda ws, tmp:
                               _evaluate_with_baseline(
                                   ws, tmp, lambda p: p.write_text("[1, 2]"))),
    "baseline_without_groups": ("E_FORMAT", lambda ws, tmp:
                                _evaluate_with_baseline(
                                    ws, tmp, lambda p: p.write_text(
                                        json.dumps({"format": "report-v1",
                                                    "metadata": {}})))),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_one_error_line(case, workspace, tmp_path, capsys):
    code, build = MALFORMED_INPUTS[case]
    assert main(build(workspace, tmp_path)) != 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and re.match(r"^error E_[A-Z_]+: ", lines[0])
    assert lines[0].startswith(f"error {code}: ")


def test_memory_error_is_one_error_line(workspace, tmp_path, capsys,
                                        monkeypatch):
    # an allocation the host refuses, raised where a huge history_len
    # fails; a real one would depend on the host's overcommit policy
    message = ("Unable to allocate 14.6 TiB for an array with shape "
               "(100000000000, 20) and data type int64")

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(msnetlab.model, "encode_batch", exhausted)
    _, cfg, data, _ = workspace
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--arch", "msnet", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error E_MEMORY: {message}"]


# a size numpy refuses before allocating, and steps that overflow: each
# gives exactly one error line, with no numpy warning on the way
OVERSIZED_OR_OVERFLOWING = {
    "d_head": (9 * 10 ** 18, "E_MEMORY"),
    "meta_hidden": (9 * 10 ** 18, "E_MEMORY"),
    "learning_rate": (1e308, "E_DIVERGED"),
    "alpha": (1e308, "E_DIVERGED"),
}


@pytest.mark.parametrize("key", sorted(OVERSIZED_OR_OVERFLOWING))
def test_oversized_or_overflowing_config_one_error_line(key, workspace,
                                                        tmp_path, capsys):
    value, code = OVERSIZED_OR_OVERFLOWING[key]
    _, _, data, _ = workspace
    cfg = write_config(tmp_path / "cfg.json",
                       model={**TINY["model"], key: value})
    run = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--arch", "msnet", "--out", str(run)]) == 2
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error {code}: ")
    if code == "E_DIVERGED":  # the initial parameters, the last good ones
        assert load_checkpoint(run / "msnet.ckpt.npz")


def test_history_len_past_every_history_trains(workspace, tmp_path):
    # the encoder stores only the entries each history keeps, so a
    # history_len past every history sizes no array: it trains as one
    # equal to the longest history does
    _, _, data, _ = workspace
    longest = int(np.diff(read_dataset(data / "train.tsv").hist_offsets).max())
    params = []
    for value in (9 * 10 ** 18, longest):
        cfg = write_config(tmp_path / f"cfg{value}.json",
                           model={**TINY["model"], "history_len": value})
        run = tmp_path / f"run{value}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(cfg), "--data", str(data),
                         "--arch", "msnet", "--out", str(run)]) == 0
        assert [str(w.message) for w in caught] == []
        params.append(load_checkpoint(run / "msnet.ckpt.npz").params)
    for name in params[0].names():
        assert params[0].values[name].tobytes() == \
            params[1].values[name].tobytes(), name


def _poisoned_checkpoint(workspace, tmp_path: Path, values: dict) -> Path:
    """The MSNet checkpoint with each named block filled with one value,
    saved again so that its checksum holds."""
    _, _, _, run = workspace
    ckpt = load_checkpoint(run / "msnet.ckpt.npz")
    for name, value in values.items():
        ckpt.params.values[name][...] = value
    path = tmp_path / "msnet.ckpt.npz"
    save_checkpoint(path, ckpt.params, ckpt.opt_state, ckpt.config,
                    ckpt.vocabs, dataset_hash=ckpt.meta["dataset_hash"])
    return path


# parameters that load and check out but give no finite forward pass
NON_FINITE_FORWARD = {
    "nan_output_bias": {"mlp.out.b": math.nan},
    "overflowing_attention": {"att.main.wq": 1e200, "att.main.wk": 1e200},
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_FORWARD))
@pytest.mark.parametrize("command", ["evaluate", "report"])
def test_non_finite_predictions_one_model_error(case, command, workspace,
                                                tmp_path, capsys):
    _, _, data, run = workspace
    ckpt = _poisoned_checkpoint(workspace, tmp_path, NON_FINITE_FORWARD[case])
    out = tmp_path / "eval"
    argv = {"evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data",
                         str(data), "--out", str(out)],
            "report": ["report", str(run / "msnet.predictions.tsv"),
                       "--checkpoint", str(ckpt), "--data", str(data)]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv[command]) == 2
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error E_MODEL: "), lines
    assert captured.out == "" and not out.exists()


def test_cli_import_loads_no_scipy():
    # every command pays at start-up for what the package imports
    src = str(Path(msnetlab.__file__).parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import msnetlab.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe, src], check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


# ----------------------------------------------------------------------
# whole-config fuzzing: every experiment.json either loads or is refused
# with exactly one ``error E_CONFIG:`` line


def _keys(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.integers(),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 10 ** 308, 10 ** 309, 10 ** 400,
                     -10 ** 400, 1e308, -1e308, 5e-324, 0.0, -0.0]),
    st.floats(), st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=8)


def config_block(cls):
    """A block of ``cls``'s keys, sometimes misspelled, with values near
    the defaults or arbitrary JSON."""
    keys = _keys(cls)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    near = st.sampled_from(keys).flatmap(lambda k: st.one_of(
        st.just(defaults[k]),
        st.just(list(defaults[k]) if isinstance(defaults[k], tuple)
                else defaults[k])))
    return st.dictionaries(st.one_of(st.sampled_from(keys),
                                     st.text(max_size=6)),
                           st.one_of(near, JSON_VALUES), max_size=6)


CONFIG_FILES = st.dictionaries(
    st.one_of(st.sampled_from(_keys(ExperimentConfig)), st.text(max_size=6)),
    st.one_of(config_block(GeneratorConfig), config_block(ModelConfig),
              st.lists(st.one_of(st.sampled_from(list(ABLATION_VARIANTS)),
                                 JSON_SCALARS), max_size=4),
              JSON_VALUES),
    max_size=5).map(lambda d: json.dumps(d))
# texts no dumped object gives: broken JSON, digits past int()'s limit,
# deep nesting and bytes that are not UTF-8
RAW_CONFIGS = st.one_of(
    st.sampled_from([
        "", "{", "[1, 2]", "null", '{"seed": 1e999}', '{"seed": NaN}',
        '{"seed": ' + "9" * 5000 + "}",
        '{"model": {"alpha": ' + "9" * 400 + "}}",
        '{"generator": {"ctr_bias": ' + "9" * 400 + "}}",
        '{"alpha_sweep": [' + "9" * 400 + "]}",
        "[" * 100_000 + "]" * 100_000,
        '{"model": ' * 5000 + "{}" + "}" * 5000]),
    st.binary(max_size=20).map(lambda b: b"\xff" + b))


@given(st.one_of(CONFIG_FILES, RAW_CONFIGS))
@settings(max_examples=400, deadline=None)
def test_whole_config_loads_or_one_config_error(tmp_path_factory, text):
    root = tmp_path_factory.mktemp("fuzz")
    path = root / "experiment.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    try:
        ExperimentConfig.load(path)
        loaded = True
    except CliError as exc:
        assert exc.code == "E_CONFIG"
        loaded = False
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["train", "--config", str(path), "--data",
                     str(root / "no-data"), "--arch", "din", "--out",
                     str(root / "run")])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1, lines
    # a config that loads gets as far as the missing dataset
    want = "error E_NOT_FOUND: manifest not found" if loaded \
        else "error E_CONFIG: "
    assert lines[0].startswith(want), lines[0]


# ----------------------------------------------------------------------
# model-config fuzzing through ``train``: every well-typed model block
# trains, or is refused with exactly one error line and no warning

FUZZ_DATA = {"n_users": 30, "n_items": 80, "days": 3,
             "new_items_per_day": 5, "mean_impressions_per_user_day": 5.0}
# a size is small or past what numpy allocates, so that no example asks
# the host for gigabytes
SIZES = st.sampled_from([1, 2, 3, 4, 0, 9 * 10 ** 18])
RATES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-3, 0.1, 0.5, 1.0, 15.0,
                                   1e308]),
                  st.floats(0.0, 2.0), st.floats())
MODEL_BLOCKS = st.fixed_dictionaries({}, optional={
    "d_id": SIZES, "d_side": SIZES, "history_len": SIZES,
    "n_heads": SIZES, "d_head": SIZES, "meta_hidden": SIZES,
    "mlp_hidden": st.lists(SIZES, max_size=3),
    "batch_size": st.one_of(st.integers(16, 64), st.just(9 * 10 ** 18)),
    "epochs": st.integers(0, 2),
    "seed": st.one_of(st.integers(0, 3), st.just(2 ** 63 - 1)),
    "alpha": RATES, "learning_rate": RATES, "adagrad_decay": RATES,
    "logit_clamp": RATES,
    "use_seq_split": st.booleans(), "use_seq_meta": st.booleans(),
})


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-data")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "generator": FUZZ_DATA}))
    assert main(["generate", "--config", str(cfg), "--out",
                 str(root / "data")]) == 0
    return root / "data"


@given(MODEL_BLOCKS, st.sampled_from(["din", "msnet"]))
# outputs that saturate to p = 0: log(0) in the loss warned before the
# E_DIVERGED line
@example({"learning_rate": 0.5, "logit_clamp": 746.0}, "din")
@settings(max_examples=400, deadline=None)
def test_fuzzed_model_config_trains_or_one_error_line(fuzz_data,
                                                      tmp_path_factory,
                                                      model, arch):
    root = tmp_path_factory.mktemp("train")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"model": model}))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["train", "--config", str(cfg), "--data", str(fuzz_data),
                     "--arch", arch, "--out", str(root / "run")])
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2 and len(lines) == 1, lines
        assert re.match(r"^error E_[A-Z_]+: ", lines[0]), lines[0]
