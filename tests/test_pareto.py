import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpmropt.errors import ContractError
from hpmropt.metrics import nondominated_filter
from hpmropt.pareto import (
    ObjectivePoint,
    ParetoBuffer,
    crowding_distance,
    dominates,
    niching_rank,
    nondominated_sort,
    reference_directions,
)
from hpmropt.pearl import merge_fronts, random_search

from oracles import (
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

    def test_identical_points_interior_zero(self):
        d = crowding_distance([feasible(1, 1) for _ in range(5)])
        assert np.isinf(d[0]) and np.isinf(d[-1])
        assert np.all(d[1:-1] == 0.0)

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

    def test_three_objective_count(self):
        assert len(reference_directions(3, 3)) == 10  # C(5, 2)

    def test_bad_arguments(self):
        with pytest.raises(ContractError):
            reference_directions(1, 4)


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
            buf = ParetoBuffer(capacity=16, metric=metric, divisions=15)
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
        divisions = 15
        dirs = reference_directions(2, divisions)
        buf = ParetoBuffer(capacity=16, metric=metric, divisions=divisions)
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
        buf.export(path)
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

    def test_sort_one_objective(self, rng):
        for _ in range(50):
            obj = rng.integers(0, 5, (int(rng.integers(1, 30)), 1)).astype(float)
            pts = [ObjectivePoint(row, True) for row in obj]
            assert nondominated_sort(pts) == fronts_oracle(obj.tolist())

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
    @pytest.mark.parametrize("divisions", [3, 15])
    def test_buffer_matches_oracle_on_grids(self, metric, divisions, rng):
        dirs = reference_directions(2, divisions)
        for stream in range(4):
            buf = ParetoBuffer(capacity=16, metric=metric, divisions=divisions)
            history = []
            for step in range(150):
                (p,), obj, _, _ = grid_points(rng, 1, levels=5, feasible_share=0.75)
                entry = (p.objectives.tolist(), p.feasible, p.penalty, step)
                expected_rank, order = buffer_rank_oracle(
                    history, entry, metric, dirs if metric == "niching" else None)
                assert buf.insert(p) == -expected_rank, f"stream {stream} step {step}"
                history = [(history + [entry])[i] for i in order][:16]
                assert [(q.objectives.tolist(), q.feasible, q.penalty)
                        for q in buf.entries] == [h[:3] for h in history]


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
