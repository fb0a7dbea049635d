"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 8 and 9 train at the full default desk scale (about 200k
training impressions per seed, five seeds, two architectures) and dominate
the runtime; everything else is seconds.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from msnetlab.autodiff import ParamStore, Tape, check_gradients
from msnetlab.cli import main as cli_main
from msnetlab.datagen import (
    Catalog,
    GeneratorConfig,
    build_market,
    simulate,
    split_train_test,
)
from msnetlab.features import Vocab, Vocabs
from msnetlab.metrics import (
    PredictionRecord,
    auc_from_arrays,
    cal_n,
    gauc,
    rela_impr,
)
from msnetlab.model import (
    ModelConfig,
    build_params,
    compute_losses,
    fit,
    forward,
    loss_aux,
    predict,
)
from msnetlab.metrics import grouped_report
from msnetlab.seqmodel import (
    ScoreAccumulator,
    add_attention_params,
    meta_shift,
    project_kv,
    scaling_weights,
    target_attention,
)

from helpers import (
    batch_grids,
    embed,
    grid_batch,
    physical_split,
    sum_all,
    zero_meta_outputs,
)


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# ----------------------------------------------------------------------
# 1. RelaImpr arithmetic reproduces the published comparison table


def test_criterion_1_rela_impr_table():
    cases = [
        ((0.7497, 0.7471), 1.05),
        ((0.6690, 0.6658), 1.93),
        ((0.7358, 0.7471), -4.57),
        ((0.7412, 0.7471), -2.39),
    ]
    for (measured, base), want in cases:
        got = rela_impr(measured, base)
        assert abs(got - want) < 0.005, (measured, base, got, want)
    ok(1, "4 published RelaImpr values reproduced within 0.005 pp")


# ----------------------------------------------------------------------
# 2. gradient fidelity on full MSNet


ACC_MSNET = ModelConfig(architecture="msnet", d_id=4, d_side=4,
                        history_len=5, n_heads=2, d_head=8,
                        mlp_hidden=(8, 4), meta_hidden=6, seed=3)


def acceptance_batch(seed=0, b=2, h=5):
    rng = np.random.default_rng(seed)
    mask_len = rng.integers(2, h + 1, size=b)
    mask = np.arange(h)[None, :] < mask_len[:, None]
    limited = mask & (rng.random(size=(b, h)) < 0.5)
    if not limited.any():
        limited[0, 0] = mask[0, 0]
    return grid_batch(
        target_item=rng.integers(1, 7, size=b),
        target_category=rng.integers(1, 4, size=b),
        seq_item=np.where(mask, rng.integers(1, 7, size=(b, h)), 0),
        seq_category=np.where(mask, rng.integers(1, 4, size=(b, h)), 0),
        seq_mask=mask, seq_limited=limited,
        labels=rng.integers(0, 2, size=b).astype(float),
        is_new=rng.random(size=b) < 0.3,
        is_limited=rng.random(size=b) < 0.5)


def acceptance_vocabs():
    return Vocabs(item=Vocab(range(100, 106)), category=Vocab(range(3)))


def test_criterion_2_gradient_fidelity():
    t0 = time.time()
    params = build_params(ACC_MSNET, acceptance_vocabs())
    batch = acceptance_batch()

    def loss_fn(tape):
        out = forward(tape, ACC_MSNET, batch)
        return compute_losses(tape, ACC_MSNET, batch, out)[2]

    report = check_gradients(loss_fn, params, h=1e-5, tol=1e-4,
                             max_entries=50, seed=7)
    elapsed = time.time() - t0
    failures = [(c.name, c.max_rel_err) for c in report.failures()]
    assert not failures, failures
    assert not all(c.blocked for c in report.checks.values())
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    ok(2, f"full MSNet tape gradients match central differences, "
          f"max rel err {report.max_rel_err():.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. stop-gradient contracts, asserted bitwise


def test_criterion_3_stop_gradient_contracts():
    t0 = time.time()
    params = build_params(ACC_MSNET, acceptance_vocabs())
    batch = acceptance_batch(seed=1)

    # (a) scaling-net input path -> id table
    tape = Tape(params)
    emb = embed(tape, batch, batch.seq_mask)
    weights = scaling_weights(tape, emb.seq_id)
    grads = tape.backward(sum_all(tape, weights))
    assert not np.any(grads["emb.item"].rows)

    # (b) shifting-net input path -> side table
    tape = Tape(params)
    emb = embed(tape, batch, batch.seq_mask)
    shifted, _ = meta_shift(tape, emb.seq_side, emb.seq_id)
    grads = tape.backward(sum_all(tape, shifted))
    assert not np.any(grads["emb.category"].rows)

    # (c) aux-loss side-similarity path -> side table
    tape = Tape(params)
    grids = batch_grids(batch)
    emb = embed(tape, batch, grids.mask & grids.limited)
    aux = loss_aux(tape, emb)
    grads = tape.backward(aux)
    assert not np.any(grads["emb.category"].rows)
    assert np.any(grads["emb.item"].rows != 0.0)

    elapsed = time.time() - t0
    assert elapsed < 10.0
    ok(3, f"scaling/shifting/aux blocked paths contribute exactly zero "
          f"({elapsed:.2f}s)")


# ----------------------------------------------------------------------
# 4. degeneracy: MSNet with no-op meta nets == DIN bitwise


def test_criterion_4_degeneracy_bitwise():
    """Unsplit MSNet whose meta nets have zeroed output layers, so that
    they scale by exactly 1 and shift by exactly 0, runs the meta path and
    gives DIN's bits; with the nets as initialized it does not."""
    vocabs = acceptance_vocabs()
    din_cfg = ModelConfig(architecture="din", d_id=4, d_side=4,
                          history_len=5, n_heads=2, d_head=8,
                          mlp_hidden=(8, 4), seed=3)
    forced = ModelConfig(architecture="msnet", d_id=4, d_side=4,
                         history_len=5, n_heads=2, d_head=8,
                         mlp_hidden=(8, 4), meta_hidden=6, seed=11,
                         use_seq_split=False, use_seq_meta=True, alpha=0.0)
    din_params = build_params(din_cfg, vocabs)
    ms_params = build_params(forced, vocabs)
    for name in din_params.names():
        ms_params.values[name][:] = din_params.values[name]
    raw_params = ms_params.copy()
    zero_meta_outputs(ms_params)
    for seed in range(5):
        batch = acceptance_batch(seed=seed)
        p_din = forward(Tape(din_params), din_cfg, batch).p.values
        p_ms = forward(Tape(ms_params), forced, batch).p.values
        p_raw = forward(Tape(raw_params), forced, batch).p.values
        assert p_din.tobytes() == p_ms.tobytes(), f"batch seed {seed}"
        assert p_din.tobytes() != p_raw.tobytes(), f"batch seed {seed}"
    ok(4, "MSNet with zeroed meta output layers equals DIN bitwise on 5 "
          "batches; untouched meta nets differ")


# ----------------------------------------------------------------------
# 5. metric oracles


def brute_force_auc_vectorized(p, y):
    """Exhaustive pairwise count (vectorized but still the literal
    definition: one indicator per positive-negative pair, ties 0.5)."""
    pos = p[y == 1]
    neg = p[y == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        p = rng.random(n)
        if rng.random() < 0.5:
            p = np.round(p, 1)  # heavy ties
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
        want = brute_force_auc_vectorized(p, y)
        got = auc_from_arrays(p, y.astype(float))
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)
            checked += 1
    assert checked > 800

    # GAUC hand case: 4 impressions at AUC 1.0, 2 at 0.5 -> 5/6
    def rec(p, y, user):
        return PredictionRecord(user_id=user, item_id=0, p=p, y=y,
                                is_new=False, is_limited=False,
                                partition_id=0)

    hand = [rec(.9, 1, 1), rec(.8, 1, 1), rec(.2, 0, 1), rec(.1, 0, 1),
            rec(.5, 1, 2), rec(.5, 0, 2)]
    assert gauc(hand) == pytest.approx(5.0 / 6.0, abs=1e-12)

    # Cal-N: perfectly calibrated partitions -> exactly 0; ten partitions
    # at PCOC 5.5/5 -> exactly the rms of ten equal pcoc-1 errors (= 0.1)
    def part_records(n_records, clicks, part):
        return [PredictionRecord(user_id=0, item_id=i, p=0.5,
                                 y=1 if i < clicks else 0, is_new=False,
                                 is_limited=False, partition_id=part)
                for i in range(n_records)]

    perfect = [r for part in range(10) for r in part_records(10, 5, part)]
    value, counted = cal_n(perfect)
    assert value == 0.0 and counted == 10
    off = [r for part in range(10) for r in part_records(11, 5, part)]
    value, counted = cal_n(off)
    e = (0.5 * 11) / 5 - 1.0
    want = math.sqrt(sum(e * e for _ in range(10)) / 10)
    assert value == want and counted == 10
    assert value == pytest.approx(0.1, abs=1e-12)
    ok(5, f"rank-sum AUC == brute force on 1000 instances "
          f"({checked} two-class); GAUC and Cal-N exact on hand cases")


# ----------------------------------------------------------------------
# 6. sold-item learnability via the aux loss


def test_criterion_6_sold_item_gradient_support():
    """A sold limited-stock item whose attention weight underflows to zero
    gets no id-table gradient from the click loss; turning the aux loss on
    must strictly enlarge the gradient support to include it."""
    cfg = ModelConfig(architecture="msnet", d_id=2, d_side=2, history_len=3,
                      n_heads=1, d_head=4, mlp_hidden=(4,), meta_hidden=4,
                      seed=5)
    vocabs = Vocabs(item=Vocab([901, 902, 903, 904]), category=Vocab([1, 2]))
    params = build_params(cfg, vocabs)
    # rows: 1 = sold limited item (appears only in the sequence),
    #       2 = live limited item, 3 = multi item, 4 = target
    params.values["emb.item"][:] = [
        [0.1, 0.1], [0.0, -1.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]
    # categories: target + live item share category 1; sold item is cat 2
    params.values["emb.category"][:] = [
        [0.1, 0.1], [3.0, 3.0], [-3.0, -3.0]]
    # huge symmetric projections force the limited-branch softmax to
    # underflow on the sold item (score gap far beyond exp's range)
    for h in range(cfg.n_heads):
        eye = np.zeros((4, 4))
        np.fill_diagonal(eye, 50.0)
        cols = slice(h * cfg.d_head, (h + 1) * cfg.d_head)
        params.values["att.limited.wq"][:, cols] = eye
        params.values["att.limited.wk"][:, cols] = eye

    batch = grid_batch(
        target_item=np.array([4]), target_category=np.array([1]),
        seq_item=np.array([[3, 1, 2]]),       # multi, sold-limited, limited
        seq_category=np.array([[1, 2, 1]]),
        seq_mask=np.ones((1, 3), dtype=bool),
        seq_limited=np.array([[False, True, True]]),
        labels=np.array([1.0]), is_new=np.array([False]),
        is_limited=np.array([False]))

    supports = {}
    for alpha in (0.0, 0.1):
        run_cfg = ModelConfig(**{**cfg.to_dict(),
                                 "mlp_hidden": cfg.mlp_hidden,
                                 "alpha": alpha})
        tape = Tape(params)
        out = forward(tape, run_cfg, batch)
        _, _, total = compute_losses(tape, run_cfg, batch, out)
        grads = tape.backward(total)
        g = grads["emb.item"]
        supports[alpha] = {int(i) for i, row in zip(g.indices, g.rows)
                           if np.any(row != 0.0)}
    assert supports[0.0] <= supports[0.1], "aux must only add support"
    assert 1 not in supports[0.0], \
        "sold item already updated without aux; construction failed"
    assert 1 in supports[0.1], "aux failed to update the sold item"
    ok(6, f"gradient support grows strictly: {sorted(supports[0.0])} -> "
          f"{sorted(supports[0.1])} (row 1 is the sold item)")


# ----------------------------------------------------------------------
# 7. physical vs masked split equivalence


def test_criterion_7_split_equivalence_100_batches():
    rng = np.random.default_rng(29)
    params = ParamStore()
    d_in = 6
    add_attention_params(params, "att", d_in, 2, 4, rng)
    table = rng.normal(size=(15, d_in))
    for trial in range(100):
        b = int(rng.integers(1, 5))
        h = int(rng.integers(1, 7))
        mask_len = rng.integers(0, h + 1, size=b)
        mask = np.arange(h)[None, :] < mask_len[:, None]
        batch = grid_batch(
            target_item=rng.integers(1, 15, size=b),
            target_category=np.ones(b, dtype=np.int64),
            seq_item=np.where(mask, rng.integers(1, 15, size=(b, h)), 0),
            seq_category=np.where(mask, 1, 0).astype(np.int64),
            seq_mask=mask,
            seq_limited=mask & (rng.random(size=(b, h)) < 0.5),
            labels=np.zeros(b), is_new=np.zeros(b, dtype=bool),
            is_limited=np.zeros(b, dtype=bool))
        grids = batch_grids(batch)
        for branch_mask in (grids.mask & ~grids.limited,
                            grids.mask & grids.limited):
            phys = physical_split(batch, branch_mask)
            outs = []
            for seq_items, m in ((grids.item, branch_mask),
                                 (batch_grids(phys).item, phys.seq_mask)):
                e_seq = Tape.constant(
                    table[seq_items.reshape(-1)[m.reshape(-1)]])
                e_t = Tape.constant(table[batch.target_item])
                tape = Tape(params)
                k, v = project_kv(tape, "att", e_seq, e_seq)
                q = tape.matmul(e_t, tape.param("att.wq"))
                res = target_attention(tape, "att", q, np.arange(b), k, v,
                                       np.arange(k.values.shape[0]),
                                       m.sum(axis=1), 2, 4)
                outs.append(res.interest.values.tobytes())
            assert outs[0] == outs[1], f"trial {trial}"
    ok(7, "mask-based and physically split branches agree bitwise on "
          "100 random batches x 2 branches")


# ----------------------------------------------------------------------
# 8 and 9: full-scale directional checks (shared sweep)


def table_digest(table) -> str:
    """sha256 over an impression table's row columns and history store."""
    digest = hashlib.sha256()
    for column in (*table.columns(), table.hist_offsets, table.hist_item,
                   table.hist_category, table.hist_limited):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def full_scale_sweep():
    t0 = time.time()
    outcome = {"wins": 0, "overall_deltas": [], "per_seed": [],
               "attention": [], "digests": []}
    for seed in range(5):
        gen = GeneratorConfig()
        market = build_market(gen, seed=seed)
        res = simulate(market, gen.days)
        outcome["digests"].append(table_digest(res.records))
        train, test = split_train_test(res.records, gen.days)
        catalog = Catalog.from_items(market.items)
        groups = {}
        for arch in ("din", "msnet"):
            mc = ModelConfig(architecture=arch, seed=seed)
            r = fit(train, catalog, mc)
            acc = ScoreAccumulator() if arch == "din" else None
            preds = predict(r.params, mc, test, r.vocabs, catalog,
                            score_accumulator=acc)
            groups[arch] = grouped_report(preds).groups
            if acc is not None:
                outcome["attention"].append(acc.table().means)
        lim_d = groups["din"]["limited"].auc_avg
        lim_m = groups["msnet"]["limited"].auc_avg
        outcome["wins"] += int(lim_m >= lim_d)
        outcome["overall_deltas"].append(
            groups["msnet"]["overall"].auc_avg
            - groups["din"]["overall"].auc_avg)
        outcome["per_seed"].append((seed, lim_d, lim_m))
    outcome["elapsed"] = time.time() - t0
    return outcome


@pytest.mark.slow
def test_criterion_8_directional_check(full_scale_sweep):
    sw = full_scale_sweep
    detail = ", ".join(f"s{seed}: {d:.4f}->{m:.4f}"
                       for seed, d, m in sw["per_seed"])
    assert sw["wins"] >= 4, f"limited-group wins {sw['wins']}/5 ({detail})"
    mean_delta = float(np.mean(sw["overall_deltas"]))
    assert mean_delta >= -0.002, f"overall AUC regressed: {mean_delta:+.4f}"
    assert sw["elapsed"] < 15 * 60, f"budget exceeded: {sw['elapsed']:.0f}s"
    ok(8, f"limited-group AUC wins {sw['wins']}/5 seeds; mean overall "
          f"delta {mean_delta:+.4f}; {sw['elapsed']:.0f}s ({detail})")


@pytest.mark.slow
def test_criterion_9_attention_asymmetry(full_scale_sweep):
    asym = []
    for means in full_scale_sweep["attention"]:
        mm = means[("multi", "multi")]
        ml = means[("multi", "limited")]
        assert mm is not None and ml is not None
        asym.append((mm, ml))
    # the qualitative claim is checked on the trained baseline per seed;
    # require it to hold in the majority and in the pooled mean
    holds = [mm > ml for mm, ml in asym]
    pooled_mm = float(np.mean([mm for mm, _ in asym]))
    pooled_ml = float(np.mean([ml for _, ml in asym]))
    assert sum(holds) >= 3 and pooled_mm > pooled_ml, asym
    ok(9, f"trained DIN favors multi-stock sequence items: pooled "
          f"multi->multi {pooled_mm:.4f} > multi->limited {pooled_ml:.4f} "
          f"({sum(holds)}/5 seeds individually)")


# the desk-default impression tables of seeds 0-4, as taken when every
# simulator draw was a Generator call; a change to the random stream or to
# the table layout moves them
DESK_DIGESTS = [
    "f9260e052d72c0aab3012ec25289ac556a62dc5d41aebc7e52d2ccefc16da483",
    "36c70400149df7e17d4f1d6d7eb74d814dac10bc93ea4b7be00d0832a5311bc6",
    "c3ecf95fcec21e3a45d51889a7ccacb83d7aada07eb10f3ff284510c4fd8a029",
    "564264297202a80abf78459b78e58c443dc381f116a9d5c042ebe4a1044f1865",
    "4aa550535802e7ae724d0faf9c0b6f45f8505aaddf476594ed7c10dfa808b7d8",
]


@pytest.mark.slow
def test_desk_simulations_pinned(full_scale_sweep):
    assert full_scale_sweep["digests"] == DESK_DIGESTS


# ----------------------------------------------------------------------
# 10. end-to-end byte determinism


def test_criterion_10_end_to_end_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 13,
        "generator": {"n_users": 80, "n_items": 500, "days": 3,
                      "new_items_per_day": 30,
                      "mean_impressions_per_user_day": 6.0},
        "model": {"epochs": 1, "history_len": 6, "batch_size": 64,
                  "d_id": 4, "d_side": 4, "d_head": 4,
                  "mlp_hidden": [8, 4]},
    }))
    artifacts = []
    for run in ("r1", "r2"):
        data = tmp_path / run / "data"
        out = tmp_path / run / "out"
        assert cli_main(["generate", "--config", str(cfg_path),
                         "--out", str(data)]) == 0
        assert cli_main(["train", "--config", str(cfg_path), "--data",
                         str(data), "--arch", "msnet", "--out",
                         str(out)]) == 0
        assert cli_main(["evaluate", "--checkpoint",
                         str(out / "msnet.ckpt.npz"), "--data", str(data),
                         "--out", str(out)]) == 0
        artifacts.append({
            "train": (data / "train.tsv").read_bytes(),
            "test": (data / "test.tsv").read_bytes(),
            "items": (data / "items.tsv").read_bytes(),
            "manifest": (data / "manifest.json").read_bytes(),
            "predictions": (out / "msnet.predictions.tsv").read_bytes(),
            "report": (out / "msnet.report.json").read_bytes(),
            "log": (out / "msnet.log.jsonl").read_bytes(),
        })
    for key in artifacts[0]:
        assert artifacts[0][key] == artifacts[1][key], \
            f"{key} differs between identical runs"
    ok(10, "generate/train/evaluate twice: all 7 artifact files "
           "byte-identical")
