import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpmropt.errors import ContractError
from hpmropt.metrics import export_buffer, nondominated_filter
from hpmropt.pareto import (
    ObjectivePoint,
    ParetoBuffer,
    crowding_distance,
    dominates,
    niching_rank,
    nondominated_sort,
    reference_directions,
)
from hpmropt import pearl
from hpmropt.economics import load_scenario
from hpmropt.environment import DesignEvaluator
from hpmropt.pearl import PearlConfig, merge_fronts, random_search, run_agent
from hpmropt.runio import RunConfig, run_optimize

from oracles import (
    EagerBuffer,
    buffer_rank_oracle,
    crowding_oracle,
    dominates_oracle,
    fronts_oracle,
    niching_oracle,
    nondominated_filter_oracle,
)

OBJ = st.tuples(st.floats(-100, 100), st.floats(-100, 100))


def feasible(*objectives):
    return ObjectivePoint(np.array(objectives, dtype=float), feasible=True)


def infeasible(penalty, *objectives):
    return ObjectivePoint(np.array(objectives, dtype=float), feasible=False,
                          penalty=penalty)


class TestDominates:
    def test_componentwise_strict(self):
        assert dominates(feasible(1, 1), feasible(2, 2))
        assert not dominates(feasible(2, 2), feasible(1, 1))

    def test_incomparable_both_ways(self):
        assert not dominates(feasible(1, 2), feasible(2, 1))
        assert not dominates(feasible(2, 1), feasible(1, 2))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(feasible(1, 1), feasible(1, 1))

    def test_feasible_always_beats_infeasible(self):
        good = feasible(9, 9)
        bad = infeasible(5.0, 0, 0)
        assert dominates(good, bad)
        assert not dominates(bad, good)

    def test_infeasible_compare_by_penalty(self):
        assert dominates(infeasible(1.0, 5, 5), infeasible(2.0, 0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            dominates(feasible(1, 2), ObjectivePoint(np.array([1.0]), True))

    @settings(max_examples=200, deadline=None)
    @given(a=OBJ, b=OBJ, c=OBJ)
    def test_irreflexive_and_transitive(self, a, b, c):
        pa, pb, pc = feasible(*a), feasible(*b), feasible(*c)
        assert not dominates(pa, pa)
        if dominates(pa, pb) and dominates(pb, pc):
            assert dominates(pa, pc)

    @settings(max_examples=300, deadline=None)
    @given(a=OBJ, b=OBJ, fa=st.booleans(), fb=st.booleans(),
           qa=st.floats(0.001, 100), qb=st.floats(0.001, 100))
    def test_matches_oracle(self, a, b, fa, fb, qa, qb):
        pa = feasible(*a) if fa else infeasible(qa, *a)
        pb = feasible(*b) if fb else infeasible(qb, *b)
        assert dominates(pa, pb) == dominates_oracle(
            a, fa, 0.0 if fa else qa, b, fb, 0.0 if fb else qb)


class TestNondominatedSort:
    def test_single_front(self):
        fronts = nondominated_sort([feasible(1, 3), feasible(3, 1), feasible(2, 2)])
        assert fronts == [[0, 1, 2]]

    def test_chain(self):
        fronts = nondominated_sort([feasible(1, 1), feasible(2, 2), feasible(3, 3)])
        assert fronts == [[0], [1], [2]]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            nondominated_sort([])

    def test_every_point_appears_once(self, rng):
        pts = [feasible(*rng.random(2)) for _ in range(50)]
        fronts = nondominated_sort(pts)
        flat = sorted(i for front in fronts for i in front)
        assert flat == list(range(50))

    def test_matches_bruteforce_on_random_sets(self, rng):
        for _ in range(30):
            n = rng.integers(2, 40)
            obj = rng.random((n, 2))
            pts = [feasible(*row) for row in obj]
            assert nondominated_sort(pts) == fronts_oracle(obj.tolist())

    def test_matches_bruteforce_with_feasibility(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 30))
            obj = rng.random((n, 2))
            feas = rng.random(n) < 0.6
            pen = np.where(feas, 0.0, rng.integers(1, 5, n).astype(float))
            pts = [
                feasible(*obj[i]) if feas[i] else infeasible(pen[i], *obj[i])
                for i in range(n)
            ]
            assert nondominated_sort(pts) == fronts_oracle(
                obj.tolist(), feas.tolist(), pen.tolist())


class TestCrowding:
    def test_three_point_hand_case(self):
        d = crowding_distance([feasible(0, 2), feasible(1, 1), feasible(2, 0)])
        assert d[0] == math.inf and d[2] == math.inf
        assert d[1] == pytest.approx(2.0)

    def test_two_point_front_all_infinite(self):
        assert np.all(np.isinf(crowding_distance([feasible(0, 2), feasible(1, 1)])))

    def test_identical_points_all_infinite(self):
        # five twins are one distinct row, and a lone row is a boundary
        assert np.all(np.isinf(crowding_distance([feasible(1, 1) for _ in range(5)])))

    @pytest.mark.parametrize("rows", [[(0, 1), (0, 2), (0, 3)], [(1, 0), (2, 0), (3, 0)]])
    def test_zero_span_objective_adds_nothing(self, rows):
        d = crowding_distance([feasible(*row) for row in rows])
        assert d.tolist() == [math.inf, 1.0, math.inf]
        assert np.array_equal(d, crowding_oracle(rows))

    def test_twins_share_their_row_distance(self):
        d = crowding_distance([feasible(1, 1), feasible(0, 2), feasible(1, 1),
                               feasible(2, 0), feasible(1, 1)])
        assert d.tolist() == [2.0, math.inf, 2.0, math.inf, 2.0]

    def test_matches_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 25))
            obj = rng.random((n, 2)) * 10
            mine = crowding_distance([feasible(*row) for row in obj])
            ref = crowding_oracle(obj)
            assert np.allclose(mine, ref, equal_nan=True)


class TestReferenceDirections:
    def test_two_objective_one_division(self):
        dirs = reference_directions(2, 1)
        assert sorted(map(tuple, dirs.tolist())) == [(0.0, 1.0), (1.0, 0.0)]

    def test_two_objective_four_divisions(self):
        dirs = reference_directions(2, 4)
        assert len(dirs) == 5
        assert np.allclose(dirs.sum(axis=1), 1.0)
        assert np.allclose(np.diff(dirs[:, 0]), 0.25)

    def test_bad_arguments(self):
        for n_obj, divisions in ((1, 4), (3, 3), (2, 0)):
            with pytest.raises(ContractError):
                reference_directions(n_obj, divisions)

    def test_closed_form_equals_the_enumerated_lattice(self):
        for d in range(1, 201):
            want = np.array([(k, d - k) for k in range(d + 1)], dtype=float) / d
            got = reference_directions(2, d)
            assert got.dtype == want.dtype and got.shape == want.shape, d
            assert got.tobytes() == want.tobytes() and got.flags.c_contiguous, d


class TestNichingRank:
    def test_one_point_per_niche(self):
        dirs = reference_directions(2, 1)
        order = niching_rank(np.array([[0.1, 0.9], [0.9, 0.1]]), dirs)
        assert sorted(order) == [0, 1]

    def test_single_niche_ascending_perpendicular(self):
        dirs = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        pts = np.array([[0.4, 0.9], [0.1, 0.95], [0.3, 0.9], [0.2, 0.9]])
        order = niching_rank(pts, np.array([[0.0, 1.0]]))
        perp = [abs(p[0]) for p in pts]
        assert order == sorted(range(4), key=lambda i: (perp[i], i))

    def test_empty_directions_rejected(self):
        with pytest.raises(ContractError):
            niching_rank(np.array([[0.5, 0.5]]), np.empty((0, 2)))

    def test_matches_recomputing_oracle(self, rng):
        dirs = reference_directions(2, 4)
        for _ in range(25):
            pts = rng.random((10, 2))
            mine = niching_rank(pts, dirs)
            ref, _ = niching_oracle(pts, dirs)
            assert mine == ref


class TestParetoBuffer:
    def test_empty_insert(self):
        buf = ParetoBuffer(capacity=64)
        assert buf.insert(feasible(5, 5)) == -1
        assert len(buf) == 1

    def test_dominator_ranks_first(self):
        buf = ParetoBuffer(capacity=64)
        buf.insert(feasible(1, 3))
        buf.insert(feasible(3, 1))
        assert buf.insert(feasible(0, 0)) == -1

    def test_dominated_by_all_63(self, rng):
        buf = ParetoBuffer(capacity=64)
        for _ in range(63):
            buf.insert(feasible(*rng.random(2)))
        assert buf.insert(feasible(5.0, 5.0)) == -64
        assert len(buf) == 64
        assert buf.entries[-1].objectives.tolist() == [5.0, 5.0]

    def test_capacity_never_exceeded(self, rng):
        buf = ParetoBuffer(capacity=8)
        for _ in range(50):
            buf.insert(feasible(*rng.random(2)))
            assert len(buf) <= 8

    def test_reward_range_invariant(self, rng):
        buf = ParetoBuffer(capacity=16)
        for _ in range(60):
            before = len(buf)
            reward = buf.insert(feasible(*rng.random(2)))
            assert -(before + 1) <= reward <= -1

    def test_identical_point_never_outranks_incumbent(self, rng):
        for metric in ("crowding", "niching"):
            buf = ParetoBuffer(capacity=16, metric=metric)
            pts = [feasible(*rng.random(2)) for _ in range(10)]
            for p in pts:
                buf.insert(p)
            target = buf.entries[3]
            incumbent_rank = 3
            twin = ObjectivePoint(target.objectives.copy(), True)
            reward = buf.insert(twin)
            assert -reward - 1 > incumbent_rank  # strictly worse than incumbent

    def test_feasible_never_below_infeasible(self, rng):
        buf = ParetoBuffer(capacity=32)
        for _ in range(80):
            if rng.random() < 0.5:
                buf.insert(feasible(*rng.random(2)))
            else:
                buf.insert(infeasible(float(rng.random() * 100 + 0.1), *rng.random(2)))
            seen_infeasible = False
            for p in buf.entries:
                if not p.feasible:
                    seen_infeasible = True
                assert not (p.feasible and seen_infeasible)

    def test_front_one_prefix_mutually_nondominated(self, rng):
        buf = ParetoBuffer(capacity=32)
        for _ in range(120):
            buf.insert(feasible(*(rng.random(2) * 10)))
        front = buf.front(0)
        for i, a in enumerate(front):
            for j, b in enumerate(front):
                if i != j:
                    assert not dominates_oracle(
                        a.objectives, True, 0.0, b.objectives, True, 0.0)

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    def test_rank_matches_bruteforce_oracle(self, metric, rng):
        # a capacity-16 archive niches on the 15-division lattice
        dirs = reference_directions(2, 15)
        buf = ParetoBuffer(capacity=16, metric=metric)
        history = []
        for step in range(120):
            if rng.random() < 0.75:
                p = feasible(*(rng.random(2) * 5))
            else:
                p = infeasible(float(rng.integers(1, 50)), *(rng.random(2) * 5))
            entry = (p.objectives.tolist(), p.feasible, p.penalty, step)
            expected_rank, order = buffer_rank_oracle(
                history, entry, metric, dirs if metric == "niching" else None)
            reward = buf.insert(p)
            assert reward == -expected_rank, f"step {step}"
            history = [(history + [entry])[i] for i in order][:16]

    def test_nsga2_style_sort_equivalence(self, rng):
        # (front, crowding) ordering recomputed from scratch must equal the
        # buffer's retained ordering for <=100-point histories
        buf = ParetoBuffer(capacity=100, metric="crowding")
        pts = [feasible(*(rng.random(2) * 3)) for _ in range(100)]
        for p in pts:
            buf.insert(p)
        objs = [p.objectives.tolist() for p in pts]
        fronts = fronts_oracle(objs)
        expected = []
        for front in fronts:
            dist = crowding_oracle([objs[i] for i in front])
            expected.extend(i for i, _ in sorted(zip(front, dist),
                                                 key=lambda t: (-t[1], t[0])))
        got = [pts.index(p) for p in buf.entries]
        assert got == expected

    def test_export_columns(self, tmp_path, rng):
        buf = ParetoBuffer(capacity=8)
        for _ in range(12):
            buf.insert(feasible(*rng.random(2)))
        path = tmp_path / "buffer.tsv"
        export_buffer(buf, path)
        header = path.read_text().splitlines()[0].split("\t")
        assert header[:6] == ["objective_0", "objective_1", "feasible",
                              "penalty", "front", "distance"]
        assert len(path.read_text().splitlines()) == 9


def grid_points(rng, n, levels=4, feasible_share=0.7, penalties=(1.0, 2.0, 3.0)):
    """Points on a small integer grid: exact duplicates, shared coordinates
    and infeasible points sharing a penalty are the rule, not the exception."""
    obj = rng.integers(0, levels, (n, 2)).astype(float)
    feas = rng.random(n) < feasible_share
    pen = np.where(feas, 0.0, rng.choice(penalties, n))
    pts = [feasible(*obj[i]) if feas[i] else infeasible(pen[i], *obj[i])
           for i in range(n)]
    return pts, obj, feas, pen


class GridEvaluator:
    """Hands out the given objective rows in call order, whatever the
    design."""

    def __init__(self, obj, feas, pen):
        self.rows = iter(zip(obj, feas.tolist(), pen.tolist()))

    def evaluate(self, design):
        objectives, feasible, penalty = next(self.rows)
        return objectives, SimpleNamespace(feasible=feasible, penalty=penalty), None


class TestTieHeavyOracles:
    def test_sort_matches_oracle_on_grids(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            pts, obj, feas, pen = grid_points(rng, n, levels=int(rng.integers(1, 6)))
            assert nondominated_sort(pts) == fronts_oracle(
                obj.tolist(), feas.tolist(), pen.tolist())

    def test_sort_matches_oracle_all_duplicates(self):
        pts = [feasible(2, 2) for _ in range(5)] + [infeasible(1.0, 0, 0)] * 3
        assert nondominated_sort(pts) == [[0, 1, 2, 3, 4], [5, 6, 7]]

    def test_sort_rejects_three_objectives(self):
        with pytest.raises(ContractError):
            nondominated_sort([feasible(1, 2, 3), feasible(3, 2, 1)])

    def test_filter_matches_oracle_on_grids(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            _, obj, _, _ = grid_points(rng, n, levels=int(rng.integers(1, 6)))
            assert np.array_equal(nondominated_filter(obj), nondominated_filter_oracle(obj))

    def test_filter_rejects_three_objectives(self):
        with pytest.raises(ContractError):
            nondominated_filter([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])

    def test_merge_matches_oracle_on_grids(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            pts, obj, feas, pen = grid_points(rng, n, levels=int(rng.integers(1, 6)))
            cuts = np.sort(rng.integers(0, n + 1, 3))
            merged = merge_fronts([pts[a:b] for a, b in zip([0, *cuts], [*cuts, n])])
            # front 0, each (objectives, feasibility) key kept at its first
            # occurrence, in pool order
            expected, keys = [], set()
            for i in fronts_oracle(obj.tolist(), feas.tolist(), pen.tolist())[0]:
                key = (tuple(obj[i]), bool(feas[i]))
                if key not in keys:
                    keys.add(key)
                    expected.append(i)
            assert [pts.index(p) for p in merged] == expected

    def test_random_search_matches_oracle_on_grids(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            _, obj, feas, pen = grid_points(rng, n, levels=int(rng.integers(1, 6)))
            front = random_search(GridEvaluator(obj, feas, pen), n, seed=0)
            ids = [p.payload.id for p in front]
            if not feas.any():
                assert ids == [f"rs-{min(range(n), key=lambda i: (pen[i], i))}"]
                continue
            members = np.flatnonzero(feas)
            expected, keys = [], set()
            for k in fronts_oracle(obj[members].tolist())[0]:
                if tuple(obj[members[k]]) not in keys:
                    keys.add(tuple(obj[members[k]]))
                    expected.append(members[k])
            expected.sort(key=lambda i: obj[i, 0])
            assert ids == [f"rs-{i}" for i in expected]
            assert all(p.payload.design is not None for p in front)

    def test_crowding_matches_oracle_with_ties(self, rng):
        for _ in range(100):
            obj = rng.integers(0, 3, (int(rng.integers(3, 20)), 2)).astype(float)
            mine = crowding_distance([feasible(*row) for row in obj])
            assert np.array_equal(mine, crowding_oracle(obj))

    def test_crowding_ignores_row_order_with_ties(self, rng):
        for _ in range(300):
            n_obj = int(rng.integers(1, 4))
            obj = rng.integers(0, 3, (int(rng.integers(3, 20)), n_obj)).astype(float)
            p = rng.permutation(len(obj))
            assert np.array_equal(crowding_distance(obj[p]), crowding_distance(obj)[p])
            front = obj[fronts_oracle(obj.tolist())[0]] if n_obj < 3 else obj
            p = rng.permutation(len(front))
            assert np.array_equal(crowding_distance(front[p]), crowding_distance(front)[p])

    def test_niching_matches_oracle_with_duplicates(self, rng):
        dirs = reference_directions(2, 3)
        for _ in range(100):
            pts = rng.integers(0, 3, (int(rng.integers(1, 15)), 2)) / 2.0
            seq = rng.permutation(len(pts))
            counts = rng.integers(0, 3, len(dirs))
            carried = counts.copy()
            mine = niching_rank(pts, dirs, carried, seq=seq)
            ref, ref_counts = niching_oracle(pts, dirs, counts.tolist(), seq=seq)
            assert mine == ref
            assert carried.tolist() == ref_counts

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    @pytest.mark.parametrize("capacity", [4, 16])
    def test_buffer_matches_oracle_on_grids(self, metric, capacity, rng):
        dirs = reference_directions(2, capacity - 1)
        for stream in range(4):
            buf = ParetoBuffer(capacity=capacity, metric=metric)
            history = []
            for step in range(150):
                (p,), obj, _, _ = grid_points(rng, 1, levels=5, feasible_share=0.75)
                entry = (p.objectives.tolist(), p.feasible, p.penalty, step)
                expected_rank, order = buffer_rank_oracle(
                    history, entry, metric, dirs if metric == "niching" else None)
                assert buf.insert(p) == -expected_rank, f"stream {stream} step {step}"
                history = [(history + [entry])[i] for i in order][:capacity]
                assert [(q.objectives.tolist(), q.feasible, q.penalty)
                        for q in buf.entries] == [h[:3] for h in history]


def pearl_traffic(rng, n, feasible_share=0.1, penalties=range(1, 7)):
    """Points as PEARL sends them to an archive: about one in ten feasible,
    and integer penalties from a small range, so ties repeat."""
    points = []
    for _ in range(n):
        objectives = rng.random(2) * [5000.0, 0.5] + [1000.0, 1.0]
        points.append(feasible(*objectives) if rng.random() < feasible_share
                      else infeasible(float(rng.choice(penalties)), *objectives))
    return points


class TestPearlTraffic:
    """An infeasible newcomer ranks by bisection in the buffer's infeasible
    list and builds no ranking of the feasible rows.  Streams of PEARL's
    traffic check every reward against the brute-force oracle, and the
    whole archive after every insert."""

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    @pytest.mark.parametrize("capacity, length", [(1, 150), (2, 150), (64, 500)])
    def test_matches_oracle(self, metric, capacity, length, rng):
        dirs = reference_directions(2, max(capacity - 1, 1))
        buf = ParetoBuffer(capacity=capacity, metric=metric)
        history, held = [], []
        evicted_itself = feasible_evicted_infeasible = 0
        for step, point in enumerate(pearl_traffic(rng, length)):
            entry = (point.objectives.tolist(), point.feasible, point.penalty, step)
            expected_rank, order = buffer_rank_oracle(
                history, entry, metric, dirs if metric == "niching" else None)
            assert buf.insert(point) == -expected_rank, f"step {step}"
            union = held + [point]
            history = [(history + [entry])[i] for i in order][:capacity]
            kept = [union[i] for i in order][:capacity]
            assert [id(q) for q in buf.entries] == [id(q) for q in kept], f"step {step}"
            dropped = [q for q in union if all(q is not k for k in kept)]
            if dropped:
                (gone,) = dropped
                evicted_itself += gone is point
                feasible_evicted_infeasible += point.feasible and not gone.feasible
            held = kept
        assert evicted_itself and feasible_evicted_infeasible

    def test_ties_by_penalty_rank_older_first(self):
        buf = ParetoBuffer(capacity=3)
        points = [infeasible(2.0, 0, 0), infeasible(1.0, 1, 1), infeasible(2.0, 2, 2)]
        assert [buf.insert(p) for p in points] == [-1, -1, -3]
        # a newcomer tied with the worst held penalty ranks last, and evicts
        # itself; a feasible one evicts the newest row of the worst penalty
        newcomer = infeasible(2.0, 3, 3)
        assert buf.insert(newcomer) == -4
        assert buf.entries == [points[1], points[0], points[2]]
        best = feasible(5, 5)
        assert buf.insert(best) == -1
        assert buf.entries == [best, points[1], points[0]]


def assert_same_archive(lazy, eager):
    """Entries, every front and the ranked (point, front, distance) triples
    of two buffers agree; a distance by its ``repr``, the way it is
    written."""
    assert len(lazy) == len(eager)
    assert [id(p) for p in lazy.entries] == [id(p) for p in eager.entries]
    fronts = {slot[2] for slot in eager.slots}
    for k in range(max(fronts, default=-1) + 2):
        assert [id(p) for p in lazy.front(k)] == [id(p) for p in eager.front(k)], k
    assert [(id(p), front, repr(distance)) for p, front, distance in lazy.ranked()] == \
        [(id(p), front, repr(distance)) for p, front, distance in eager.ranked()]


def replay(points, capacity, metric):
    """Insert ``points`` into a lazy and an eager buffer side by side,
    checking rewards and the whole archive after every insert, and into a
    lazy buffer read only at the end; returns the rewards."""
    lazy, unread = (ParetoBuffer(capacity=capacity, metric=metric) for _ in range(2))
    eager = EagerBuffer(capacity=capacity, metric=metric)
    rewards = []
    for step, point in enumerate(points):
        reward = lazy.insert(point)
        assert reward == eager.insert(point) == unread.insert(point), f"step {step}"
        assert_same_archive(lazy, eager)
        rewards.append(reward)
    assert_same_archive(unread, eager)
    return rewards


@pytest.fixture(scope="module")
def desk_stream():
    """The points one agent of the pearl-desk study inserts: 300 steps,
    kappa 64, niching, on scenario-3, with their design payloads."""
    inserted = []

    class Recording(ParetoBuffer):
        def insert(self, point):
            inserted.append(point)
            return super().insert(point)

    config = PearlConfig(agents=8, total_steps=2400, kappa=64, base_seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pearl, "ParetoBuffer", Recording)
        run_agent(DesignEvaluator(load_scenario("scenario-3")), config, seed=1)
    return inserted


class TestLazyArchive:
    """The archive ranks lazily: an insert computes the candidate's rank and
    the row that drops out, and the full order is built when read.  The
    eager reference re-ranks everything on every insert."""

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    @pytest.mark.parametrize("capacity", [4, 16])
    def test_matches_eager_on_grids(self, metric, capacity, rng):
        for _ in range(3):
            points, _, _, _ = grid_points(rng, 120, levels=5, feasible_share=0.75)
            replay(points, capacity, metric)

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    def test_matches_eager_on_desk_stream(self, metric, desk_stream):
        assert sum(p.feasible for p in desk_stream) >= 5
        replay(desk_stream, 64, metric)

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    def test_matches_eager_on_feasible_stream(self, metric, rng):
        points = [feasible(*(rng.random(2) * [5000.0, 0.5] + [1000.0, 1.0]))
                  for _ in range(150)]
        replay(points, 64, metric)

    def test_singleton_front_does_not_occupy_its_niche(self):
        # A alone in front 0 sits in niche 0; X (niche 0) and Y (niche 3)
        # share front 1.  A singleton front is crowding-ranked, so niche 0
        # is still empty when front 1 is niched, and X, the candidate, goes
        # first there (counting A would put Y first)
        dirs = reference_directions(2, 3)
        a, y, x = feasible(0.0, 0.0), feasible(1.0, 0.1), feasible(0.1, 1.0)
        buf = ParetoBuffer(capacity=4, metric="niching")
        buf.insert(a)
        buf.insert(y)
        assert buf.insert(x) == -2
        history = [([0.0, 0.0], True, 0.0, 0), ([1.0, 0.1], True, 0.0, 1)]
        assert buffer_rank_oracle(history, ([0.1, 1.0], True, 0.0, 2),
                                  "niching", dirs)[0] == 2
        assert buf.front(1) == [x, y]
        replay([a, y, x], 4, "niching")

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    def test_candidate_evicts_itself(self, metric):
        held = [feasible(0, 3), feasible(1, 1), feasible(3, 0)]
        worst = feasible(5, 5)
        buf = ParetoBuffer(capacity=3, metric=metric)
        for p in held:
            buf.insert(p)
        assert buf.insert(worst) == -4
        assert len(buf) == 3
        assert all(p is not worst for p in buf.entries)
        assert set(map(id, buf.entries)) == set(map(id, held))
        replay([*held, worst, feasible(6, 6), feasible(0.5, 0.5)], 3, metric)

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    def test_all_infeasible_archive(self, metric):
        penalties = [3.0, 1.0, 3.0, 2.0, 1.0, 5.0, 2.0, 0.5, 3.0]
        points = [infeasible(q, i, -i) for i, q in enumerate(penalties)]
        buf = ParetoBuffer(capacity=4, metric=metric)
        rewards = [buf.insert(p) for p in points]
        assert rewards == [-1, -1, -3, -2, -2, -5, -4, -1, -5]
        # least penalty first, older first within a penalty
        assert buf.entries == [points[7], points[1], points[4], points[3]]
        assert [buf.front(k) for k in range(3)] == \
            [[points[7]], [points[1], points[4]], [points[3]]]
        replay(points, 4, metric)

    @pytest.mark.parametrize("metric", ["crowding", "niching"])
    def test_capacity_one(self, metric, rng):
        points, _, _, _ = grid_points(rng, 80, levels=3, feasible_share=0.6)
        rewards = replay(points, 1, metric)
        assert set(rewards) <= {-1, -2}

    def test_duplicates_keep_their_crowding_positions(self):
        # exact duplicates inside a crowding front share their row's
        # distance and follow by age; a stream of repeated points checks
        # that every insert agrees with the eager re-rank
        base = [(0, 4), (1, 2), (2, 1), (4, 0)]
        points = [feasible(*base[i % 4]) for i in range(24)]
        points += [feasible(1, 2), feasible(0.5, 3), feasible(3, 0.5)]
        replay(points, 12, "crowding")

    def test_twins_order_by_age_across_inserts(self):
        # the twins of (1, 2) share their row's distance, so they follow the
        # boundary points by age; later points land in other fronts or join
        # the twins, and neither an insert nor a read reorders them
        end_a, end_b = feasible(0, 4), feasible(4, 0)
        twin_a, twin_b, twin_c = (feasible(1, 2) for _ in range(3))
        points = [twin_a, end_a, end_b, twin_b]
        points += [feasible(5 + i, 5 + i) for i in range(4)] + [twin_c]
        points += [feasible(6 + i, 5 + i) for i in range(3)]
        expected = [[end_a, end_b, twin_a, twin_b]] * 5 + \
            [[end_a, end_b, twin_a, twin_b, twin_c]] * 4
        buf = ParetoBuffer(capacity=16, metric="crowding")
        for p in points[:3]:
            buf.insert(p)
        for n, p in enumerate(points[3:], 4):
            buf.insert(p)
            assert buf.front(0) == expected[n - 4], n
            # a buffer read only at the end agrees
            unread = ParetoBuffer(capacity=16, metric="crowding")
            for q in points[:n]:
                unread.insert(q)
            assert unread.front(0) == expected[n - 4], n
        replay(points, 16, "crowding")

    def test_empty_buffer_reads(self, tmp_path):
        buf = ParetoBuffer(capacity=4, metric="niching")
        assert len(buf) == 0 and buf.entries == [] and buf.front(0) == []
        assert buf.ranked() == []
        # one empty header line, as the archive's own export wrote
        export_buffer(buf, tmp_path / "empty.tsv")
        assert (tmp_path / "empty.tsv").read_bytes() == b"\r\n"

    def test_export_of_an_archive_without_payloads(self, tmp_path):
        # the bytes the archive's own export wrote for these inserts: floats
        # by repr, an integer penalty by str, one front per penalty
        buf = ParetoBuffer(capacity=5)
        for objectives, penalty in [((1.0, 2.0), 0.0), ((2.0, 1.0), 0.0), ((3.0, 0.5), 2.5),
                                    ((0.1, 0.3), 2.5), ((1.5, 1.5), 0.0), ((4, 4), 1)]:
            buf.insert(ObjectivePoint(objectives, penalty == 0, penalty))
        export_buffer(buf, tmp_path / "buffer.tsv")
        assert (tmp_path / "buffer.tsv").read_bytes() == (
            b"objective_0\tobjective_1\tfeasible\tpenalty\tfront\tdistance\r\n"
            b"1.0\t2.0\tTrue\t0.0\t0\tinf\r\n"
            b"2.0\t1.0\tTrue\t0.0\t0\tinf\r\n"
            b"1.5\t1.5\tTrue\t0.0\t0\t2.0\r\n"
            b"4.0\t4.0\tFalse\t1\t1\t0.0\r\n"
            b"3.0\t0.5\tFalse\t2.5\t2\t0.0\r\n")

    @pytest.mark.parametrize("pearl_config", [
        {"agents": 3, "total_steps": 384, "kappa": 16, "base_seed": 9},
        {"agents": 2, "total_steps": 256, "kappa": 8, "base_seed": 2,
         "distance_metric": "crowding"},
        {"agents": 2, "total_steps": 256, "kappa": 16, "base_seed": 5},
    ])
    def test_run_directory_matches_eager(self, pearl_config, tmp_path, monkeypatch):
        lazy_dir, eager_dir = tmp_path / "lazy", tmp_path / "eager"
        run_optimize(RunConfig(pearl=pearl_config, out_dir=str(lazy_dir)))
        monkeypatch.setattr(pearl, "ParetoBuffer", EagerBuffer)
        run_optimize(RunConfig(pearl=pearl_config, out_dir=str(eager_dir)))
        names = sorted(path.name for path in lazy_dir.iterdir())
        assert names == sorted(path.name for path in eager_dir.iterdir())
        assert any(name.startswith("buffer-agent") for name in names)
        for name in names:
            assert (lazy_dir / name).read_bytes() == (eager_dir / name).read_bytes(), name


class TestBufferContract:
    @pytest.mark.parametrize("kwargs", [
        {"capacity": 0}, {"capacity": 2.5}, {"capacity": True}, {"capacity": "8"},
        {"metric": "bogus"},
    ])
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ContractError):
            ParetoBuffer(**{"metric": "niching", **kwargs})

    # the objective count is checked where a point is built, so a point of
    # other than two objectives never reaches a buffer
    def test_mixed_dimensions_rejected(self):
        buf = ParetoBuffer(capacity=4)
        buf.insert(feasible(1.0, 2.0))
        with pytest.raises(ContractError, match=re.escape("got shape (1,)")):
            buf.insert(ObjectivePoint(np.array([1.0]), True))
        assert len(buf) == 1

    def test_three_objectives_rejected(self):
        buf = ParetoBuffer(capacity=4)
        with pytest.raises(ContractError, match=re.escape("got shape (3,)")):
            buf.insert(feasible(1.0, 2.0, 3.0))
        assert len(buf) == 0

    @pytest.mark.parametrize("capacity", [1, 2, 64])
    def test_a_fresh_buffer_holds_its_lattice(self, capacity):
        want = reference_directions(2, max(capacity - 1, 1))
        assert ParetoBuffer(capacity, "niching").directions.tobytes() == want.tobytes()
        assert ParetoBuffer(capacity, "crowding").directions is None


def test_objective_point_invariants():
    with pytest.raises(ContractError):
        ObjectivePoint(np.array([1.0, np.inf]), True)
    with pytest.raises(ContractError):
        ObjectivePoint(np.array([1.0, 2.0]), True, penalty=3.0)
    with pytest.raises(ContractError):
        ObjectivePoint(np.array([1.0, 2.0]), False, penalty=0.0)
    with pytest.raises(ContractError):
        ObjectivePoint(np.array([1.0, 2.0]), False, penalty=-1.0)
    with pytest.raises(ContractError):
        ObjectivePoint(np.array([1.0, 2.0]), False, penalty=math.nan)


class TestObjectivePointObjectives:
    """What ``ObjectivePoint`` makes of its objectives: a 1-D float64 array
    is kept as the same object; anything else becomes
    ``np.atleast_1d(np.asarray(x, dtype=float))``; a NaN or an infinity
    anywhere is a contract error, and so is a result whose shape is not
    ``(2,)``."""

    def test_float64_array_is_kept_as_the_same_object(self):
        objectives = np.array([1.0, 2.0])
        assert ObjectivePoint(objectives, True).objectives is objectives

    @pytest.mark.parametrize("given", [
        [1.0, 2.0], (3, 4),
        np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32),
        np.array([1.0, 2.0], dtype=">f8"),
    ], ids=["given0", "given1", "given6", "given7", "given8"])
    def test_other_inputs_are_converted_as_before(self, given):
        point = ObjectivePoint(given, True)
        want = np.atleast_1d(np.asarray(given, dtype=float))
        assert type(point.objectives) is np.ndarray
        assert point.objectives.dtype == np.float64
        assert point.objectives.shape == want.shape
        assert point.objectives.tobytes() == want.tobytes()

    @pytest.mark.parametrize("given", [np.array([[1.0, 2.0]]), [[3.0], [4.0]],
                                       np.zeros((1, 1, 2))])
    def test_objectives_not_1d_are_rejected(self, given):
        shape = np.asarray(given).shape
        with pytest.raises(ContractError, match=re.escape(f"(2,), got shape {shape}")):
            ObjectivePoint(given, True)

    @pytest.mark.parametrize("given", [
        [5], np.float64(2.5), 7, np.array(1.5), np.arange(6.0)[::2],
    ])
    def test_other_objective_counts_are_rejected(self, given):
        shape = np.atleast_1d(np.asarray(given, dtype=float)).shape
        with pytest.raises(ContractError, match=re.escape(f"(2,), got shape {shape}")):
            ObjectivePoint(given, True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap", [
        lambda v: np.array([1.0, v]), lambda v: [v, 1.0], lambda v: v,
        lambda v: np.array(v), lambda v: np.array([[1.0, v]]),
    ])
    def test_non_finite_values_are_rejected(self, bad, wrap):
        with pytest.raises(ContractError, match="non-finite objectives"):
            ObjectivePoint(wrap(bad), True)
