"""Metric tests.  The rank-sum AUC is verified against the exhaustive
pairwise count; calibration values against hand arithmetic; RelaImpr
against the published comparison-table arithmetic; the column-based
metrics and report against per-record loop oracles, bit for bit."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msnetlab.metrics import (
    CAL_N_NOT_FINITE,
    GROUPS,
    N_PARTITIONS,
    PREDICTION_FIELDS,
    GroupMetrics,
    MetricReport,
    MetricsError,
    PredictionRecord,
    PredictionTable,
    auc,
    auc_from_arrays,
    cal_n,
    calibration_error,
    gauc,
    grouped_report,
    paired_partition_ttest,
    partition_aucs,
    partition_ids,
    partition_of,
    pcoc,
    read_predictions,
    rela_impr,
    render_attention_table,
    render_report,
    write_predictions,
)


def rec(p, y, user=0, item=0, new=False, limited=False, part=0):
    return PredictionRecord(user_id=user, item_id=item, p=p, y=y,
                            is_new=new, is_limited=limited,
                            partition_id=part)


def brute_force_auc(records):
    """Exhaustive pairwise oracle: 1 per win, 0.5 per tie."""
    pos = [r.p for r in records if r.y == 1]
    neg = [r.p for r in records if r.y == 0]
    if not pos or not neg:
        return None
    score = 0.0
    for pp in pos:
        for nn in neg:
            if pp > nn:
                score += 1.0
            elif pp == nn:
                score += 0.5
    return score / (len(pos) * len(neg))


def random_records(rng, n, discretize=False):
    out = []
    for _ in range(n):
        p = float(rng.random())
        if discretize:
            p = round(p, 1)  # force ties
        out.append(rec(p, int(rng.random() < 0.4),
                       user=int(rng.integers(5)),
                       item=int(rng.integers(50)),
                       new=bool(rng.random() < 0.2),
                       limited=bool(rng.random() < 0.5),
                       part=int(rng.integers(10))))
    return out


# ----------------------------------------------------------------------
# per-record loop oracles: the list-based metrics the column versions
# replaced, kept to check them bit for bit


def loop_auc(records):
    if not records:
        return None
    return auc_from_arrays(np.array([r.p for r in records]),
                           np.array([r.y for r in records]))


def loop_gauc(records):
    by_user = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(r)
    weighted = 0.0
    weight = 0
    for user_records in by_user.values():
        a = loop_auc(user_records)
        if a is None:
            continue
        weighted += len(user_records) * a
        weight += len(user_records)
    if weight == 0:
        return None
    return weighted / weight


def loop_pcoc(records):
    clicks = sum(r.y for r in records)
    if clicks == 0:
        return None
    return sum(r.p for r in records) / clicks


def loop_partitions(records, n_partitions):
    parts = {i: [] for i in range(n_partitions)}
    for r in records:
        parts[r.partition_id % n_partitions].append(r)
    return parts


def loop_cal_n(records, n_partitions=N_PARTITIONS):
    per_part = [loop_pcoc(rs)
                for rs in loop_partitions(records, n_partitions).values()]
    errors = [calibration_error(v) for v in per_part if v is not None]
    if not errors:
        return None, 0
    value = math.sqrt(sum(e * e for e in errors) / len(errors))
    return (value if math.isfinite(value) else None), len(errors)


def loop_partition_aucs(records, n_partitions=N_PARTITIONS):
    aucs = [loop_auc(rs)
            for rs in loop_partitions(records, n_partitions).values()]
    return [a for a in aucs if a is not None]


def loop_report_groups(records, baseline=None, n_partitions=N_PARTITIONS):
    """The groups of ``grouped_report``, from list-comprehension members."""
    members_of = {"overall": list(records),
                  "new": [r for r in records if r.is_new],
                  "limited": [r for r in records if r.is_limited],
                  "multi": [r for r in records if not r.is_limited]}
    groups = {}
    for name in GROUPS:
        members = members_of[name]
        if not members:
            groups[name] = GroupMetrics(n=0, n_pos=0, absent=True,
                                        note="empty group")
            continue
        paucs = loop_partition_aucs(members, n_partitions)
        cal, cal_parts = loop_cal_n(members, n_partitions)
        gm = GroupMetrics(
            n=len(members), n_pos=sum(r.y for r in members),
            auc_avg=float(np.mean(paucs)) if paucs else None,
            auc_std=float(np.std(paucs)) if paucs else None,
            auc_partitions=len(paucs), gauc=loop_gauc(members),
            pcoc=loop_pcoc(members), cal_n=cal, cal_partitions=cal_parts,
            note=CAL_N_NOT_FINITE if cal is None and cal_parts else "")
        base_gm = baseline.groups.get(name) if baseline else None
        if base_gm is not None and not base_gm.absent:
            if gm.auc_avg is not None and base_gm.auc_avg is not None:
                gm.rela_impr_auc = rela_impr(gm.auc_avg, base_gm.auc_avg)
            if gm.gauc is not None and base_gm.gauc is not None:
                gm.rela_impr_gauc = rela_impr(gm.gauc, base_gm.gauc)
        groups[name] = gm
    return groups


INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
# a few values, so that ties are common, or any probability; 0 and
# 5e-324 give a clicked partition a Cal-N that is not finite
P_VALUES = st.one_of(st.sampled_from([0.0, 5e-324, 0.1, 0.25, 0.5, 1.0]),
                     st.floats(0.0, 1.0))
PREDICTION = st.builds(
    PredictionRecord,
    user_id=st.sampled_from([-(2 ** 63 - 1), -7, -1, 0, 3, 2 ** 40,
                             2 ** 63 - 1]),
    item_id=st.integers(-5, 5), p=P_VALUES, y=st.integers(0, 1),
    is_new=st.booleans(), is_limited=st.booleans(),
    partition_id=st.integers(0, 2 * N_PARTITIONS))


class TestColumnsMatchLoopOracles:
    @given(st.lists(PREDICTION, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_scalar_metrics_bitwise(self, records):
        table = PredictionTable.from_records(records)
        got = (auc(table), gauc(table), pcoc(table), cal_n(table),
               partition_aucs(table))
        want = (loop_auc(records), loop_gauc(records), loop_pcoc(records),
                loop_cal_n(records), loop_partition_aucs(records))
        assert repr(got) == repr(want)

    @given(st.lists(PREDICTION, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_report_json_identical(self, records):
        table = PredictionTable.from_records(records)
        flipped = [dataclasses.replace(r, p=1.0 - r.p / 2) for r in records]
        base = grouped_report(flipped)
        for baseline in (None, base):
            rep = grouped_report(table, baseline=baseline)
            want = MetricReport(metadata=rep.metadata,
                                groups=loop_report_groups(records, baseline))
            assert rep.to_json() == want.to_json()

    def test_single_class_users_and_empty_groups(self):
        # users -3 and 8 are single-class; user 4 has a tied pair
        records = [rec(.5, 1, user=-3, limited=True),
                   rec(.5, 0, user=4, limited=True),
                   rec(.5, 1, user=-3, limited=True),
                   rec(.5, 1, user=4, limited=True),
                   rec(.9, 1, user=8, limited=True),
                   rec(.7, 1, user=4, limited=True)]
        rep = grouped_report(PredictionTable.from_records(records))
        assert rep.groups["multi"].absent and rep.groups["new"].absent
        assert rep.groups["limited"].gauc == loop_gauc(records) == 0.75
        assert rep.to_json() == MetricReport(
            metadata=rep.metadata,
            groups=loop_report_groups(records)).to_json()


class TestPredictionTable:
    def test_slices_index_and_iterate_like_records(self):
        records = random_records(np.random.default_rng(2), 30)
        table = PredictionTable.from_records(records)
        assert len(table) == 30
        assert list(table) == records
        assert list(table[-7:]) == records[-7:]
        assert list(table[3:9]) == records[3:9]
        assert table[-1] == records[-1] and table[4] == records[4]
        assert [r.p for r in table[-5:]] == [r.p for r in records[-5:]]

    def test_row_assignment(self):
        table = PredictionTable.from_records(
            random_records(np.random.default_rng(3), 5))
        table[-1] = dataclasses.replace(table[-1], p=1.0, y=0)
        assert table.p[-1] == 1.0 and table.y[-1] == 0

    def test_empty(self):
        table = PredictionTable.from_records([])
        assert len(table) == 0 and list(table) == []
        assert gauc(table) is None and pcoc(table) is None


class TestAuc:
    def test_perfect_ranking(self):
        records = [rec(.9, 1), rec(.8, 1), rec(.2, 0), rec(.1, 0)]
        assert auc(records) == 1.0

    def test_tie_convention(self):
        assert auc([rec(.5, 1), rec(.5, 0)]) == 0.5

    def test_single_class_undefined(self):
        assert auc([rec(.5, 1), rec(.7, 1)]) is None
        assert auc([]) is None

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("discretize", [False, True])
    def test_rank_sum_equals_brute_force(self, seed, discretize):
        rng = np.random.default_rng(seed)
        records = random_records(rng, 200, discretize=discretize)
        want = brute_force_auc(records)
        got = auc(records)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        records = random_records(rng, 60)
        base = auc(records)
        # strictly monotone maps: affine up, exp, logistic squash
        for f in (lambda p: 3.0 * p + 1.0, math.exp,
                  lambda p: 1.0 / (1.0 + math.exp(-5 * p))):
            mapped = [rec(f(r.p), r.y) for r in records]
            got = auc(mapped)
            if base is None:
                assert got is None
            else:
                assert got == pytest.approx(base, abs=1e-12)


class TestGauc:
    def test_single_user_equals_auc(self):
        records = [rec(.9, 1, user=3), rec(.2, 0, user=3), rec(.6, 1, user=3)]
        assert gauc(records) == pytest.approx(auc(records))

    def test_weighted_mean_by_hand(self):
        # user A: 4 impressions, AUC 1.0; user B: 2 impressions, AUC 0.5
        # GAUC = (4*1.0 + 2*0.5) / 6 = 5/6
        a = [rec(.9, 1, user=1), rec(.8, 1, user=1),
             rec(.2, 0, user=1), rec(.1, 0, user=1)]
        b = [rec(.5, 1, user=2), rec(.5, 0, user=2)]
        assert gauc(a + b) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_single_class_users_excluded_from_both_sums(self):
        eligible = [rec(.9, 1, user=1), rec(.1, 0, user=1)]
        noise = [rec(.99, 1, user=2)] * 30  # single-class, must not dilute
        assert gauc(eligible + noise) == pytest.approx(1.0)

    def test_no_eligible_user_absent(self):
        assert gauc([rec(.9, 1, user=1), rec(.8, 1, user=2)]) is None

    def test_identical_users_collapse_to_auc(self):
        rng = np.random.default_rng(0)
        one_user = random_records(rng, 50)
        one_user = [rec(r.p, r.y, user=7) for r in one_user]
        assert gauc(one_user) == pytest.approx(auc(one_user))


class TestRelaImpr:
    # arithmetic reproduced from the published model-comparison table,
    # tolerance 0.005 percentage points
    @pytest.mark.parametrize("measured,base,want", [
        (0.7497, 0.7471, 1.05),
        (0.6690, 0.6658, 1.93),
        (0.7358, 0.7471, -4.57),
        (0.7412, 0.7471, -2.39),
    ])
    def test_published_table_arithmetic(self, measured, base, want):
        got = rela_impr(measured, base)
        assert abs(got - want) < 0.005

    def test_self_comparison_is_zero(self):
        for x in (0.51, 0.6658, 0.7471, 0.9):
            assert rela_impr(x, x) == pytest.approx(0.0, abs=1e-12)

    def test_random_base_undefined(self):
        assert rela_impr(0.7, 0.5) is None


class TestPcoc:
    def test_perfectly_calibrated(self):
        records = [rec(.5, 1), rec(.5, 0)]
        assert pcoc(records) == pytest.approx(1.0)

    def test_overprediction(self):
        # (0.8 + 0.8) / 1 = 1.6
        assert pcoc([rec(.8, 1), rec(.8, 0)]) == pytest.approx(1.6)

    def test_no_clicks_absent(self):
        assert pcoc([rec(.4, 0), rec(.2, 0)]) is None


class TestCalN:
    # record counts and click counts that make sum(0.5)/clicks hit each
    # target PCOC with exact float arithmetic
    EXACT = {1.0: (10, 5), 1.1: (11, 5), 1.5: (6, 2), 0.5: (2, 2)}

    def _partitioned(self, pcocs):
        """One partition per target PCOC: records at p=0.5 with a click
        count chosen so sum(p)/sum(y) equals the target exactly."""
        records = []
        for part, target in enumerate(pcocs):
            n_records, clicks = self.EXACT[target]
            assert (0.5 * n_records) / clicks == target
            for i in range(n_records):
                records.append(rec(0.5, 1 if i < clicks else 0, part=part))
        return records

    def test_perfect_partitions_zero(self):
        records = self._partitioned([1.0] * 10)
        value, counted = cal_n(records)
        assert value == 0.0
        assert counted == 10

    def test_uniform_1_1_gives_point_one(self):
        records = self._partitioned([1.1] * 10)
        value, counted = cal_n(records)
        # independent oracle: per-partition pcoc is 5.5/5, its error is
        # pcoc-1, Cal-N is the rms of ten equal errors
        e = (0.5 * 11) / 5 - 1.0
        want = math.sqrt(sum(e * e for _ in range(10)) / 10)
        assert counted == 10
        assert value == want
        assert value == pytest.approx(0.1, abs=1e-12)

    def test_asymmetric_branch(self):
        # PCOC 0.8 -> error = 1/0.8 - 1 = 0.25
        assert calibration_error(0.8) == pytest.approx(0.25, abs=1e-15)
        assert calibration_error(1.25) == pytest.approx(0.25, abs=1e-15)

    @given(st.floats(0.05, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_error_symmetric_under_reciprocal(self, p):
        assert calibration_error(p) == pytest.approx(
            calibration_error(1.0 / p), rel=1e-9)

    @pytest.mark.parametrize("p", [0.0, 5e-324])
    def test_pcoc_zero_partition_gives_none(self, p):
        # a clicked partition predicted (nearly) all 0: the error is
        # infinite, so Cal-N has no value though a partition counted
        assert calibration_error(0.0) == math.inf
        value, counted = cal_n([rec(p, 1, part=4), rec(.5, 0, part=5)])
        assert (value, counted) == (None, 1)
        rep = grouped_report(PredictionTable.from_records(
            [rec(p, 1, part=4), rec(.5, 0, part=5)]))
        assert rep.groups["overall"].note == CAL_N_NOT_FINITE
        assert "Infinity" not in rep.to_json()

    def test_clickless_partition_excluded(self):
        records = self._partitioned([1.0] * 9)
        records += [rec(.4, 0, part=9), rec(.3, 0, part=9)]
        value, counted = cal_n(records)
        assert counted == 9
        assert value == 0.0

    def test_nonnegative_zero_iff_all_one(self):
        records = self._partitioned([1.0, 1.5, 1.0, 0.5, 1.0, 1.0, 1.0,
                                     1.0, 1.0, 1.0])
        value, _ = cal_n(records)
        assert value > 0.0


class TestPartitions:
    def test_deterministic_and_in_range(self):
        for seed in (0, 7):
            a = [partition_of(u, i, seed) for u in range(30)
                 for i in range(10)]
            b = [partition_of(u, i, seed) for u in range(30)
                 for i in range(10)]
            assert a == b
            assert all(0 <= x < 10 for x in a)
        assert [partition_of(u, 1, 0) for u in range(50)] != \
            [partition_of(u, 1, 1) for u in range(50)]

    @staticmethod
    def loop_partition(user, item, seed, n=N_PARTITIONS):
        """The partition rule written out per pair."""
        digest = hashlib.sha256(f"{seed}|{user}|{item}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % n

    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    def test_columns_match_per_pair_loop(self, seed):
        lo, hi = -2**63, 2**63 - 1
        rng = np.random.default_rng(seed % 97)
        users = np.concatenate([[lo, hi, 0, -1, lo, hi, -7],
                                rng.integers(lo, hi, size=200,
                                             endpoint=True)])
        items = np.concatenate([[hi, lo, 0, -1, lo, hi, 12],
                                rng.integers(-50, 50, size=200)])
        got = partition_ids(users, items, seed)
        assert got.dtype == np.int64
        want = [self.loop_partition(u, i, seed)
                for u, i in zip(users.tolist(), items.tolist())]
        assert got.tolist() == want
        assert [partition_of(u, i, seed) for u, i in
                zip(users.tolist()[:20], items.tolist()[:20])] == want[:20]
        assert partition_ids(users, items, seed, 7).tolist() == \
            [self.loop_partition(u, i, seed, 7)
             for u, i in zip(users.tolist(), items.tolist())]

    def test_empty_and_mismatched_columns(self):
        got = partition_ids(np.zeros(0, np.int64), np.zeros(0, np.int64), 1)
        assert got.dtype == np.int64 and got.size == 0
        with pytest.raises(ValueError, match="2 user ids for 1 item ids"):
            partition_ids([1, 2], [3], 0)

    def test_partition_aucs_skip_single_class(self):
        records = [rec(.9, 1, part=0), rec(.1, 0, part=0),
                   rec(.8, 1, part=1)]  # partition 1 has no negative
        assert partition_aucs(records) == [1.0]


class TestTTest:
    def test_identical_partitions_p_one(self):
        aucs = [0.7, 0.71, 0.72, 0.69]
        assert paired_partition_ttest(aucs, list(aucs)) == 1.0

    def test_clear_difference_small_p(self):
        a = [0.70, 0.71, 0.72, 0.73, 0.71, 0.70, 0.72, 0.71, 0.73, 0.72]
        deltas = [0.019, 0.021, 0.020, 0.022, 0.018,
                  0.021, 0.019, 0.020, 0.022, 0.018]
        b = [x - d for x, d in zip(a, deltas)]
        p = paired_partition_ttest(a, b)
        assert p < 0.001

    def test_mismatched_lengths_none(self):
        assert paired_partition_ttest([0.7], [0.7, 0.8]) is None


class TestGroupedReport:
    def _records(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        return random_records(rng, n)

    def test_self_baseline_zero_improvement(self):
        records = self._records()
        base = grouped_report(records)
        rep = grouped_report(records, baseline=base)
        for gm in rep.groups.values():
            if not gm.absent and gm.rela_impr_auc is not None:
                assert gm.rela_impr_auc == pytest.approx(0.0, abs=1e-9)
                assert gm.rela_impr_gauc == pytest.approx(0.0, abs=1e-9)

    def test_empty_group_absent_with_reason(self):
        records = [rec(.4, 1, limited=False), rec(.6, 0, limited=False)]
        rep = grouped_report(records)
        assert rep.groups["limited"].absent
        assert rep.groups["limited"].note == "empty group"
        assert not rep.groups["overall"].absent

    def test_report_json_round_trip(self):
        rep = grouped_report(self._records())
        again = MetricReport.from_json(rep.to_json())
        assert again.to_dict() == rep.to_dict()

    def test_regenerated_from_file_identical(self, tmp_path):
        records = self._records(seed=3)
        path = tmp_path / "preds.tsv"
        write_predictions(records, path, meta={"dataset_hash": "x1"})
        loaded, meta = read_predictions(path)
        assert meta["dataset_hash"] == "x1"
        a = grouped_report(records).to_json()
        b = grouped_report(loaded).to_json()
        assert a == b

    def test_render_smoke(self):
        rep = grouped_report(self._records(), baseline=None)
        text = render_report(rep, title="check")
        assert "overall" in text and "AUC" in text
        table = render_attention_table({
            "multi->multi": {"mean": 0.35, "count": 2},
            "multi->limited": {"mean": 0.17, "count": 2},
            "limited->multi": {"mean": None, "count": 0},
            "limited->limited": {"mean": 0.07, "count": 1}})
        assert "absent" in table


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        records = random_records(rng, 200)
        path = tmp_path / "p.tsv"
        write_predictions(records, path, meta={"arch": "din"})
        loaded, meta = read_predictions(path)
        assert list(loaded) == records
        assert meta == {"arch": "din"}

    @given(st.lists(st.builds(
        PredictionRecord, user_id=INT64, item_id=INT64,
        p=st.one_of(st.sampled_from([0.0, 5e-324, 1 - 2 ** -53, 1.0]),
                    st.floats(0.0, 1.0)),
        y=st.integers(0, 1), is_new=st.booleans(), is_limited=st.booleans(),
        partition_id=st.integers(0, 2 ** 63 - 1)), max_size=40))
    @example([rec(5e-324, 1, user=2 ** 63 - 1, item=-(2 ** 63 - 1)),
              rec(1 - 2 ** -53, 0, user=-(2 ** 63 - 1), item=2 ** 63 - 1)])
    @settings(max_examples=100, deadline=None)
    def test_table_round_trip_bitwise(self, tmp_path_factory, records):
        table = PredictionTable.from_records(records)
        path = tmp_path_factory.mktemp("rt") / "p.tsv"
        write_predictions(table, path, meta={"arch": "msnet"})
        loaded, meta = read_predictions(path)
        assert meta == {"arch": "msnet"}
        for field in PREDICTION_FIELDS:
            a, b = getattr(loaded, field), getattr(table, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    def test_bad_row_named_by_its_line(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_predictions([rec(.5, 1), rec(.25, 0)], path, meta={"a": "b"})
        good = path.read_text()
        path.write_text(good + "\n" + "1\t2\t1.5\t1\t0\t0\t3\n")
        with pytest.raises(MetricsError, match=r"^line 6: p=1\.5 "):
            read_predictions(path)
        path.write_text(good.replace("0.25", "x"))
        with pytest.raises(MetricsError, match="^line 4: could not convert"):
            read_predictions(path)

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_predictions([rec(.5, 1)], path)
        with path.open("a") as fh:
            fh.write("1\t2\t3\n")
        with pytest.raises(MetricsError, match="expected 7 fields"):
            read_predictions(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MetricsError, match="not found"):
            read_predictions(tmp_path / "gone.tsv")
