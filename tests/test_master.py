"""Unit tests for master-level batch reassignment."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from dpgibbs.errors import NumericalDegeneracyError
from dpgibbs.gibbs import log_joint, pack_stats, sample_log_weights
from dpgibbs.master import global_log_joint, master_sweep
from dpgibbs.metrics import ari
from dpgibbs.niw import (
    ModelHyperParams,
    NiwParams,
    log_marginal,
    log_posterior_predictive,
    log_prior_predictive,
    stats_from_points,
    stats_merge,
    zero_stats,
)
from dpgibbs.worker import WorkerState, WorkerSummary, apply_global_labels, summarize

from _oracles import (
    FixedOrderRng,
    packed_stats,
    recorded_weights,
    reference_master_sweep,
    state_from_stats,
    stats_of,
    table_of,
)


def make_hyper(d=2, alpha=1.0, scale=1.0):
    return ModelHyperParams(
        alpha=alpha,
        prior=NiwParams(mu=np.zeros(d), kappa=1.0, nu=d + 1.0, psi=scale * np.eye(d)),
    )


def summary_of(worker_id, batches, previous=None):
    """batches: list of (n, d) arrays, one per local cluster, labelled 0, 1, ...;
    ``previous`` lists each batch's previous global id (default: all unassigned)."""
    return summary_of_stats(worker_id, [stats_from_points(pts) for pts in batches], previous)


def summary_of_stats(worker_id, stats, previous=None):
    """WorkerSummary of a list of SufficientStats, as ``summary_of``; None in
    ``previous`` is an unassigned batch."""
    if previous is None:
        previous = [None] * len(stats)
    return WorkerSummary(
        worker_id=worker_id,
        clusters=np.arange(len(stats), dtype=np.int64),
        previous=np.array([-1 if g is None else g for g in previous], dtype=np.int64),
        stats=np.array([pack_stats(s.n, s.sum, s.sum_outer) for s in stats]),
    )


def batches_of(summaries, d):
    """{(worker_id, local_label): SufficientStats} of every batch of dimension d."""
    return {
        (s.worker_id, int(h)): stats
        for s in summaries
        for h, stats in zip(s.clusters, packed_stats(s.stats, d))
    }


class TestMasterSweep:
    def test_single_batch_empty_state_opens_cluster_zero(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((5, 2))
        out = master_sweep([summary_of(0, [pts])], make_hyper(), rng)
        assert out.targets == {0: [0]}
        assert out.num_clusters == 1
        assert stats_of(out.table)[0].n == 5

    def test_tight_identical_batches_co_cluster(self):
        rng = np.random.default_rng(1)
        mean = np.array([3.0, -1.0])
        a = mean + 0.01 * rng.standard_normal((50, 2))
        b = mean + 0.01 * rng.standard_normal((50, 2))
        hyper = make_hyper(scale=25.0)  # wide prior scale, tight batches
        sa, sb = stats_from_points(a), stats_from_points(b)
        w_join = math.log(sa.n) + log_posterior_predictive(sb, sa, hyper.prior)
        w_new = math.log(hyper.alpha) + log_prior_predictive(sb, hyper.prior)
        p_join = math.exp(w_join - logsumexp([w_join, w_new]))
        assert p_join > 0.99
        in_order = FixedOrderRng([0, 1], np.random.default_rng(2))
        out = master_sweep([summary_of(0, [a, b])], hyper, in_order)
        assert out.targets[0][0] == out.targets[0][1]
        assert out.num_clusters == 1

    def test_fixed_seed_deterministic(self):
        rng_data = np.random.default_rng(3)
        summaries = [
            summary_of(j, [rng_data.standard_normal((4, 2)) + 5 * j for _ in range(3)])
            for j in range(3)
        ]
        a = master_sweep(summaries, make_hyper(), np.random.default_rng(7))
        b = master_sweep(summaries, make_hyper(), np.random.default_rng(7))
        assert a.targets == b.targets

    def test_stats_conservation(self):
        rng = np.random.default_rng(4)
        summaries = [
            summary_of(j, [rng.standard_normal((int(rng.integers(1, 8)), 2)) for _ in range(4)])
            for j in range(3)
        ]
        out = master_sweep(summaries, make_hyper(), np.random.default_rng(5))
        batches = batches_of(summaries, 2)
        merged_in = stats_merge(list(batches.values()))
        merged_out = stats_merge(list(stats_of(out.table).values()))
        assert merged_in.n == merged_out.n
        assert np.allclose(merged_in.sum, merged_out.sum, rtol=1e-10)
        assert np.allclose(merged_in.sum_outer, merged_out.sum_outer, rtol=1e-10)
        # Each global row holds the batches whose reply entry names it: its
        # count is the sum of their counts, its stats their merge.
        by_cluster = {}
        for s in summaries:
            targets = out.targets[s.worker_id]
            assert len(targets) == len(s.clusters)
            for g, h in zip(targets, s.clusters.tolist()):
                by_cluster.setdefault(g, []).append(batches[(s.worker_id, h)])
        assert sorted(by_cluster) == list(range(out.num_clusters))
        for g, parts in by_cluster.items():
            ref = stats_merge(parts)
            assert out.table.counts[g] == sum(p.n for p in parts)
            assert stats_of(out.table)[g].n == ref.n
            assert np.allclose(stats_of(out.table)[g].sum_outer, ref.sum_outer, rtol=1e-10)

    def test_weights_match_marginal_ratio_identity(self):
        """Two-batch hand replay: recorded weights equal the ratio route."""
        rng = np.random.default_rng(6)
        b0 = rng.standard_normal((6, 2))
        b1 = rng.standard_normal((4, 2)) + 0.5
        hyper = make_hyper()
        s0, s1 = stats_from_points(b0), stats_from_points(b1)
        with recorded_weights() as log:
            master_sweep(
                [summary_of(0, [b0, b1])], hyper, FixedOrderRng([0, 1], np.random.default_rng(8))
            )
        assert len(log) == 2
        # Step 1: empty state, only the new-cluster option exists.
        assert log[0].shape == (1,)
        assert math.isclose(
            log[0][0],
            math.log(hyper.alpha) + log_marginal(s0, hyper.prior),
            rel_tol=1e-12,
        )
        # Step 2: existing cluster {b0} plus new; ratio-of-marginals oracle.
        assert log[1].shape == (2,)
        ratio = log_marginal(stats_merge([s0, s1]), hyper.prior) - log_marginal(s0, hyper.prior)
        assert math.isclose(log[1][0], math.log(s0.n) + ratio, rel_tol=1e-8)
        assert math.isclose(
            log[1][1], math.log(hyper.alpha) + log_marginal(s1, hyper.prior), rel_tol=1e-12
        )

    def test_batched_scores_equal_per_candidate_predictive(self):
        """Replay a sweep with one log_posterior_predictive call per candidate,
        drawing from a twin of the master's stream: one permutation of the
        batches, then one uniform per batch in that order."""
        rng = np.random.default_rng(23)
        for trial in range(12):
            d = int(rng.integers(1, 9))
            hyper = make_hyper(
                d, alpha=float(rng.uniform(0.2, 3.0)), scale=float(rng.uniform(0.5, 4.0))
            )
            shards = []
            for j in range(3):
                sizes = rng.integers(1, 12, size=int(rng.integers(1, 5)))
                shards.append([
                    rng.standard_normal((int(m), d)) + 4.0 * rng.integers(-1, 2, d)
                    for m in sizes
                ])
            previous = [[int(rng.integers(0, 3)) for _ in shard] for shard in shards]
            summaries = [summary_of(j, shards[j], previous[j]) for j in range(3)]
            batches = batches_of(summaries, d)
            keys = sorted(batches)
            seeded = {(j, h): g for j in range(3) for h, g in enumerate(previous[j])}
            with recorded_weights() as log:
                master_sweep(summaries, hyper, np.random.default_rng(trial))
            replay_rng = np.random.default_rng(trial)
            order = replay_rng.permutation(len(keys))
            assert len(log) == len(keys)
            assigned = dict(seeded)
            for step, i in enumerate(order):
                stats = batches[keys[i]]
                own = assigned.pop(keys[i])
                members = {}
                for key, g in assigned.items():
                    members.setdefault(g, []).append(batches[key])
                # A batch that was its whole cluster still has that cluster's
                # candidate, at -inf (log 0 for the empty rest), until it leaves.
                candidates = sorted(set(members) | {own})
                reference = [
                    math.log(sum(s.n for s in members[g]))
                    + log_posterior_predictive(stats, stats_merge(members[g]), hyper.prior)
                    if g in members else -math.inf
                    for g in candidates
                ]
                reference.append(math.log(hyper.alpha) + log_prior_predictive(stats, hyper.prior))
                assert np.allclose(log[step], reference, rtol=1e-12, atol=1e-12)
                choice = sample_log_weights(log[step], replay_rng.random())
                fresh = max(list(members) + [max(seeded.values())]) + 1
                assigned[keys[i]] = candidates[choice] if choice < len(candidates) else fresh

    def test_initial_state_reassignment(self):
        rng = np.random.default_rng(9)
        batches = [rng.standard_normal((3, 2)), rng.standard_normal((3, 2)) + 12.0]
        hyper = make_hyper()
        first = master_sweep([summary_of(0, batches)], hyper, np.random.default_rng(10))
        again = master_sweep(
            [summary_of(0, batches, first.targets[0])], hyper, np.random.default_rng(11)
        )
        assert [len(t) for t in again.targets.values()] == [2]
        sizes = sorted(s.n for s in stats_of(again.table).values())
        assert sum(sizes) == 6

    def test_empty_or_mismatched_batches_rejected(self):
        rng = np.random.default_rng(12)
        summary = summary_of(0, [rng.standard_normal((3, 2))])
        empty = summary_of_stats(1, [zero_stats(2)])
        with pytest.raises(ValueError, match="empty"):
            master_sweep([summary, empty], make_hyper(), np.random.default_rng(0))
        wide = summary_of(1, [rng.standard_normal((3, 3))])
        with pytest.raises(ValueError, match="dimension"):
            master_sweep([summary, wide], make_hyper(), np.random.default_rng(0))
        rowless = [
            WorkerSummary(j, np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 9)))
            for j in (0, 1)
        ]
        with pytest.raises(ValueError, match="no batches to assign"):
            master_sweep(rowless, make_hyper(), np.random.default_rng(0))

    def test_log_joint_of_another_point_count_rejected(self):
        rng = np.random.default_rng(25)
        batches = [rng.standard_normal((3, 2)), rng.standard_normal((4, 2)) + 12.0]
        gstate = master_sweep([summary_of(0, batches)], make_hyper(), np.random.default_rng(0))
        assert math.isfinite(global_log_joint(gstate, 7))
        with pytest.raises(ValueError, match="global cluster sizes sum to 7, expected 8"):
            global_log_joint(gstate, 8)

    @pytest.mark.parametrize("previous", [[0], None], ids=["seeded", "unseeded"])
    def test_summary_of_the_wrong_dimension_rejected(self, previous):
        """The dimension is the model's, not the first summary's: a lone d = 3
        summary sent to a d = 2 model is refused before any arithmetic."""
        pts = np.random.default_rng(27).standard_normal((4, 3))
        with pytest.raises(ValueError, match="worker 0 sent shapes"):
            master_sweep([summary_of(0, [pts], previous)], make_hyper(d=2), np.random.default_rng(0))

    def test_fields_of_different_lengths_rejected(self):
        rng = np.random.default_rng(24)
        summary = summary_of(0, [rng.standard_normal((3, 2)), rng.standard_normal((4, 2))])
        for field in ("clusters", "previous", "stats"):
            short = replace(summary, **{field: getattr(summary, field)[:1]})
            with pytest.raises(ValueError, match="shapes"):
                master_sweep([short], make_hyper(), np.random.default_rng(0))

    def test_initial_table_is_the_merge_of_each_ids_members(self, monkeypatch):
        """Seeded batches, 1, 2 and 3 to a global id over two workers, give
        the table built from stats_merge of each id's members, bit for bit:
        its rows' sums and terms (it keeps no maps), and the weights of an
        unseeded batch visited first."""
        from dpgibbs.gibbs import _ClusterCache

        initial = []
        score = _ClusterCache.batch_log_weights

        def spy(table, *args):
            if not initial:
                rows = len(table.labels) + 1
                initial.append({name: getattr(table, name)[:rows].copy() for name in table._row_arrays})
            return score(table, *args)

        monkeypatch.setattr(_ClusterCache, "batch_log_weights", spy)
        rng = np.random.default_rng(25)
        hyper = make_hyper(d=3, alpha=0.7)
        sizes = ([4, 2, 5, 3], [6, 1, 2])
        shards = [[rng.standard_normal((m, 3)) + 3.0 * j for m in row] for j, row in enumerate(sizes)]
        previous = [[7, 2, None, 2], [4, 4, 2]]
        summaries = [summary_of(j, shards[j], previous[j]) for j in range(2)]
        batches = batches_of(summaries, 3)
        members = {}
        for j, ids in enumerate(previous):
            for h, g in enumerate(ids):
                if g is not None:
                    members.setdefault(g, []).append(batches[(j, h)])
        assert sorted(len(parts) for parts in members.values()) == [1, 2, 3]
        merged = {g: stats_merge(parts) for g, parts in members.items()}
        reference = table_of(hyper.prior, hyper.alpha, merged)
        first = sorted(batches).index((0, 2))
        order = [first] + [i for i in range(len(batches)) if i != first]
        with recorded_weights() as log:
            master_sweep(summaries, hyper, FixedOrderRng(order, np.random.default_rng(26)))
        assert sorted(initial[0]) == ["stats", "terms"]
        for name, rows in initial[0].items():
            assert np.array_equal(rows, getattr(reference, name)[: len(merged) + 1]), name
        batch = batches[(0, 2)]
        row = pack_stats(batch.n, batch.sum, batch.sum_outer)
        assert np.array_equal(log[0], reference.batch_log_weights(row))

    @pytest.mark.parametrize("previous", [0, 1, None], ids=["whole-cluster", "shared-cluster", "unseeded"])
    def test_a_failed_draw_names_its_batch(self, monkeypatch, previous):
        """Batch (1, 1) gets +inf weights: the sweep raises non-finite
        sampling weights with that batch's worker id and local label,
        whether the batch seeds a cluster alone, shares one or is unseeded."""
        from dpgibbs.gibbs import _ClusterCache

        rng = np.random.default_rng(29)
        shards = [[rng.standard_normal((m, 2)) for m in sizes] for sizes in ((3, 4), (5, 6))]
        summaries = [summary_of(0, shards[0], [1, 1]), summary_of(1, shards[1], [2, previous])]
        bad = summaries[1].stats[1]
        score = _ClusterCache.batch_log_weights

        def infinite_for_one_batch(table, row, own=None):
            weights = score(table, row, own)
            if np.array_equal(row, bad):
                weights[:] = np.inf
            return weights

        monkeypatch.setattr(_ClusterCache, "batch_log_weights", infinite_for_one_batch)
        with pytest.raises(NumericalDegeneracyError, match="non-finite sampling weights") as info:
            master_sweep(summaries, make_hyper(), np.random.default_rng(30))
        assert info.value.context == {"worker_id": 1, "local_label": 1}

    def test_its_table_keeps_no_maps_and_scores_no_points(self):
        """The master's table scores batches only: it keeps no whitening
        maps, and scoring points against it raises."""
        rng = np.random.default_rng(31)
        out = master_sweep([summary_of(0, [rng.standard_normal((4, 2)), rng.standard_normal((3, 2))])],
                           make_hyper(), rng)
        assert out.table.maps is None and "maps" not in out.table._row_arrays
        with pytest.raises(ValueError, match="no whitening maps"):
            out.table.point_log_weights(np.ones((3, 5)))

    def test_duplicate_worker_rejected(self):
        rng = np.random.default_rng(13)
        s = summary_of(0, [rng.standard_normal((3, 2))])
        with pytest.raises(ValueError):
            master_sweep([s, s], make_hyper(), np.random.default_rng(0))

    def test_global_labels_compacted(self):
        rng = np.random.default_rng(14)
        summaries = [
            summary_of(j, [rng.standard_normal((3, 2)) + 9 * k for k in range(3)])
            for j in range(2)
        ]
        out = master_sweep(summaries, make_hyper(), np.random.default_rng(15))
        assert out.table.labels == list(range(out.num_clusters))
        assert {g for t in out.targets.values() for g in t} == set(out.table.labels)


class TestMasterSweepMatchesTheReference:
    """master_sweep against the plain route of ``_oracles.reference_master_sweep``."""

    @staticmethod
    def random_summaries(rng, d, workers):
        """1 to 6 batches per worker, of 1 to 24 points around four means,
        each seeded with a global id in 0..4 or newborn (-1), so ids are
        shared by several batches, held by one whole-cluster batch or absent."""
        means = 5.0 * rng.standard_normal((4, d))
        summaries = []
        for j in range(workers):
            k = int(rng.integers(1, 7))
            batches = [means[rng.integers(4)] + rng.standard_normal((int(rng.integers(1, 25)), d)) for _ in range(k)]
            summaries.append(summary_of(j, batches, [None if g < 0 else g for g in rng.integers(-1, 5, k).tolist()]))
        return summaries

    def test_targets_and_table_are_the_reference_sweeps_byte_for_byte(self, monkeypatch):
        """On 60 random summary sets, at d in {1, 2, 8} with 1 to 3 workers
        and alpha from 0.3 to 30, master_sweep and the reference sweep from
        the same seed give the same targets, and tables whose live rows of
        stats and terms, labels and row_of are byte-identical.  The sets hold
        seeded, newborn and whole-cluster batches, and whole clusters that
        move to a new row without a refresh (a rotation)."""
        from dpgibbs.gibbs import _ClusterCache

        moved, refreshed = [], []
        move, refresh = _ClusterCache.move, _ClusterCache._refresh

        def counted_move(table, *args):
            refreshed.append(0)
            target = move(table, *args)
            moved.append(refreshed.pop())
            return target

        def counted_refresh(table, rows):
            if refreshed:
                refreshed[-1] += 1
            return refresh(table, rows)

        monkeypatch.setattr(_ClusterCache, "move", counted_move)
        monkeypatch.setattr(_ClusterCache, "_refresh", counted_refresh)
        rng = np.random.default_rng(270)
        kinds = {"seeded": 0, "newborn": 0, "whole": 0}
        rotations = 0
        for trial in range(60):
            d, workers = (1, 2, 8)[trial % 3], 1 + trial // 3 % 3
            hyper = make_hyper(d=d, alpha=float(np.exp(rng.uniform(math.log(0.3), math.log(30.0)))))
            summaries = self.random_summaries(rng, d, workers)
            previous = np.concatenate([s.previous for s in summaries])
            ids, sizes = np.unique(previous[previous >= 0], return_counts=True)
            kinds["seeded"] += int(np.count_nonzero(previous >= 0))
            kinds["newborn"] += int(np.count_nonzero(previous < 0))
            kinds["whole"] += int(np.count_nonzero(sizes == 1))
            seed = int(rng.integers(2**32))
            del moved[:]
            got = master_sweep(summaries, hyper, np.random.default_rng(seed))
            rotations += moved.count(0)
            targets, table = reference_master_sweep(summaries, hyper, np.random.default_rng(seed))
            assert got.targets == targets, trial
            assert got.table.labels == table.labels, trial
            rows = len(table.labels) + 1
            for name in ("stats", "terms"):
                assert getattr(got.table, name)[:rows].tobytes() == getattr(table, name)[:rows].tobytes(), (trial, name)
            assert got.table.row_of.tobytes() == table.row_of.tobytes(), trial
        assert min(kinds.values()) >= 30, kinds
        assert rotations >= 10


def collected_labels(replies, workers):
    """Per-point global labels as the runtime collects them: each worker
    applies its own reply, in place, and the shards are joined in worker order."""
    return np.concatenate([
        apply_global_labels(w, targets).local.labels for w, targets in zip(workers, replies)
    ])


class TestExpansion:
    def test_identity_single_worker(self):
        rng = np.random.default_rng(16)
        data = rng.standard_normal((10, 2))
        hyper = make_hyper()
        w = WorkerState.single_cluster(0, data, hyper)
        out = collected_labels([[0]], [w])
        assert np.array_equal(out, np.zeros(10, dtype=np.int64))

    def test_permuted_names_same_partition(self):
        rng = np.random.default_rng(17)
        data = rng.standard_normal((12, 2))
        hyper = make_hyper()
        w = WorkerState.single_cluster(0, data, hyper)
        w.local = state_from_stats(
            np.repeat([1, 0], 6),
            {0: stats_from_points(data[6:]), 1: stats_from_points(data[:6])},
            hyper,
        )
        a = collected_labels([[0, 1]], [w])
        b = collected_labels([[7, 3]], [w])
        assert ari(a, b) == 1.0

    def test_three_workers_hand_checked(self):
        hyper = make_hyper(d=1)
        data = np.arange(12, dtype=np.float64).reshape(-1, 1)
        workers = []
        for j in range(3):
            shard = data[4 * j : 4 * j + 4]
            w = WorkerState.single_cluster(j, shard, hyper)
            w.local = state_from_stats(
                [0, 0, 1, 1],
                {0: stats_from_points(shard[:2]), 1: stats_from_points(shard[2:])},
                hyper,
            )
            workers.append(w)
        out = collected_labels([[0, 1], [1, 2], [0, 2]], workers)
        assert np.array_equal(out, np.array([0, 0, 1, 1, 1, 1, 2, 2, 0, 0, 2, 2]))

    def test_coverage_gap_rejected(self):
        rng = np.random.default_rng(18)
        data = rng.standard_normal((6, 2))
        w = WorkerState.single_cluster(0, data, make_hyper())
        with pytest.raises(ValueError, match="worker 0 has 1 clusters but received 0"):
            collected_labels([[]], [w])


class TestGlobalLogJoint:
    def test_matches_central_log_joint_on_expanded_membership(self):
        rng = np.random.default_rng(19)
        hyper = make_hyper()
        data = np.vstack([rng.standard_normal((8, 2)), rng.standard_normal((7, 2)) + 10])
        workers = []
        summaries = []
        for j, sl in ((0, slice(0, 8)), (1, slice(8, 15))):
            w = WorkerState.single_cluster(j, data[sl], hyper)
            w = replace_with_sweeps(w, seed=20 + j)
            workers.append(w)
            summaries.append(summarize(w))
        gstate = master_sweep(summaries, hyper, np.random.default_rng(22))
        membership = collected_labels([gstate.targets[0], gstate.targets[1]], workers)
        central = state_from_stats(
            membership,
            {int(g): stats_from_points(data[membership == g]) for g in np.unique(membership)},
            hyper,
        )
        assert math.isclose(
            global_log_joint(gstate, 15), log_joint(central), rel_tol=1e-10
        )


def replace_with_sweeps(w, seed, sweeps=10):
    from dpgibbs.worker import worker_sweep

    rng = np.random.default_rng(seed)
    for _ in range(sweeps):
        w = worker_sweep(w, rng)
    return w
