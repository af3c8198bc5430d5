"""Exact reference solvers."""

import random
import subprocess
import sys
from pathlib import Path

import pytest

import auctionmatch
from auctionmatch.graph import BipartiteInstance, generate_random
from auctionmatch.oracles import (
    ORACLE_SIZE_LIMIT,
    exact_mcbm,
    exact_mcm,
    exact_mwm,
)
from auctionmatch.criteria import (
    brute_force_mcbm,
    brute_force_mcm,
    brute_force_mwm,
)
from auctionmatch.suite import check_matching


def test_mcm_on_a_path():
    # path 0-0, 0-1, 1-1: perfect matching of size 2
    inst = BipartiteInstance.build(2, 2, [(0, 0, 1), (0, 1, 1), (1, 1, 1)])
    got = exact_mcm(inst)
    assert got.value == 2
    assert sorted(got.pairs) == [(0, 0), (1, 1)]


def test_mwm_picks_weight_over_cardinality():
    # one heavy edge beats two light ones
    inst = BipartiteInstance.build(
        2, 2, [(0, 0, 10), (0, 1, 1), (1, 0, 1)])
    got = exact_mwm(inst)
    assert got.value == 10
    assert got.pairs == ((0, 0),)


def test_mcbm_uses_capacities():
    inst = BipartiteInstance.build(
        1, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1)], b_l=[2], b_r=[1, 1, 1])
    got = exact_mcbm(inst)
    assert got.value == 2


def test_mcbm_item_capacity_binds():
    inst = BipartiteInstance.build(
        3, 1, [(0, 0, 1), (1, 0, 1), (2, 0, 1)], b_l=[1, 1, 1], b_r=[2])
    assert exact_mcbm(inst).value == 2


def test_oracle_pairs_are_valid_matchings():
    inst = generate_random(7, 7, 0.5, w_range=(1, 20), seed=4)
    for fn in (exact_mcm, exact_mwm):
        got = fn(inst)
        lefts = [i for i, _ in got.pairs]
        rights = [j for _, j in got.pairs]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        edge_set = {(i, j) for i, j, _ in inst.edges}
        assert all(p in edge_set for p in got.pairs)


def test_size_limit_guard():
    # a forged size: _replace skips the checks that would refuse it
    big = BipartiteInstance.build(2, 2, [(0, 0, 1)])._replace(n_l=ORACLE_SIZE_LIMIT)
    with pytest.raises(ValueError):
        exact_mcm(big)


@pytest.mark.parametrize("seed", range(10))
def test_exact_solvers_agree_with_brute_force(seed):
    inst = generate_random(6, 6, 0.5, w_range=(1, 12), seed=seed)
    assert exact_mcm(inst).value == brute_force_mcm(inst)
    assert exact_mwm(inst).value == brute_force_mwm(inst)


@pytest.mark.parametrize("seed", range(10))
def test_capacitated_solver_agrees_with_brute_force(seed):
    inst = generate_random(
        5, 5, 0.5, b_l_range=(1, 3), b_r_range=(1, 3), seed=seed)
    assert exact_mcbm(inst).value == brute_force_mcbm(inst)


@pytest.mark.parametrize("seed", range(10))
def test_unit_capacity_mcbm_is_mcm(seed):
    inst = generate_random(7, 7, 0.4, seed=seed)
    assert exact_mcbm(inst).value == exact_mcm(inst).value


def _chain(n):
    # bidder 0 sees item 0, bidder i items i - 1 and i in that order: each
    # bidder's augmenting search walks back down the whole chain
    edges = [(0, 0, 1)] + [e for i in range(1, n) for e in ((i, i - 1, 1), (i, i, 1))]
    return BipartiteInstance.build(n, n, edges)


def test_mcm_handles_chain_at_size_limit():
    inst = _chain(1024)
    assert inst.n_l * inst.n_r <= ORACLE_SIZE_LIMIT
    got = exact_mcm(inst)
    assert got.value == 1024
    assert got.pairs == tuple((i, i) for i in range(1024))


def test_mcbm_handles_chain_at_size_limit():
    inst = _chain(1024)
    got = exact_mcbm(inst)
    assert got.value == 1024
    assert got.pairs == tuple((i, i) for i in range(1024))


def _shifted_chain(n):
    # bidder i < n - 1 prefers item i + 1 (weight n + 1) to item i (weight
    # n), and the last bidder sees only item n - 1, at weight 2n: the greedy
    # start shifts every bidder up, and the last bidder's augmenting path
    # shifts all of them back down the whole chain
    edges = [e for i in range(n - 1) for e in ((i, i + 1, n + 1), (i, i, n))]
    return BipartiteInstance.build(n, n, edges + [(n - 1, n - 1, 2 * n)])


@pytest.mark.parametrize("make, value", [
    (_chain, 1024), (_shifted_chain, 1023 * 1024 + 2 * 1024)])
def test_mwm_handles_chain_at_size_limit(make, value):
    inst = make(1024)
    assert inst.n_l * inst.n_r <= ORACLE_SIZE_LIMIT
    got = exact_mwm(inst)
    assert got.value == value
    assert got.pairs == tuple((i, i) for i in range(1024))


def _random_instance(rng):
    n_l, n_r = rng.randint(1, 30), rng.randint(1, 30)
    density = rng.choice((0.05, 0.1, 0.3, 0.6, 1.0))
    w_hi = rng.choice((1, 2, 9, 100, 10 ** 6))
    edges = [(i, j, rng.randint(1, w_hi)) for i in range(n_l) for j in range(n_r)
             if rng.random() < density]
    return BipartiteInstance.build(
        n_l, n_r, edges,
        b_l=[rng.randint(1, min(4, n_r)) for _ in range(n_l)],
        b_r=[rng.randint(1, min(4, n_l)) for _ in range(n_r)])


@pytest.mark.parametrize("block", range(10))
def test_oracles_match_scipy(block):
    # 100 seeded instances per block: exact_mwm against a dense
    # linear_sum_assignment (non-edges weigh 0) and exact_mcbm against
    # scipy's integral max-flow, with every witness checked
    np = pytest.importorskip("numpy")
    pytest.importorskip("scipy")
    from scipy.optimize import linear_sum_assignment
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    rng = random.Random(block)
    for _ in range(100):
        inst = _random_instance(rng)
        n_l, n_r = inst.n_l, inst.n_r
        weight = {(i, j): w for i, j, w in inst.edges}

        got = exact_mwm(inst)
        dense = np.zeros((n_l, n_r), dtype=np.int64)
        for i, j, w in inst.edges:
            dense[i, j] = w
        rows, cols = linear_sum_assignment(dense, maximize=True)
        assert got.value == int(dense[rows, cols].sum())
        assert check_matching(got.pairs, (1,) * n_l, (1,) * n_r, inst.edges)
        assert sum(weight[p] for p in got.pairs) == got.value

        got = exact_mcbm(inst)
        source, sink = n_l + n_r, n_l + n_r + 1
        tails = [source] * n_l + [i for i, _, _ in inst.edges] + [n_l + j for j in range(n_r)]
        heads = list(range(n_l)) + [n_l + j for _, j, _ in inst.edges] + [sink] * n_r
        caps = list(inst.b_l) + [1] * inst.m + list(inst.b_r)
        network = csr_matrix((np.array(caps, dtype=np.int32), (tails, heads)),
                             shape=(sink + 1, sink + 1))
        assert got.value == maximum_flow(network, source, sink).flow_value
        assert check_matching(got.pairs, inst.b_l, inst.b_r, inst.edges)
        assert len(got.pairs) == got.value


def test_oracles_import_neither_numpy_nor_scipy():
    # a child interpreter, so that no other test's imports count
    src = Path(auctionmatch.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from auctionmatch.graph import generate_random\n"
        "from auctionmatch.oracles import exact_mcbm, exact_mwm\n"
        "inst = generate_random(6, 5, 0.5, w_range=(1, 9), b_l_range=(1, 3),"
        " b_r_range=(1, 3), seed=1)\n"
        "exact_mwm(inst)\n"
        "exact_mcbm(inst)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _recursive_mcm_pairs(inst):
    # a maximum matching by one recursive depth-first augmenting search per
    # bidder, an independent reference for exact_mcm
    adj = [[] for _ in range(inst.n_l)]
    for i, j, _ in inst.edges:
        adj[i].append(j)
    match_item = [-1] * inst.n_r

    def try_augment(i, visited):
        for j in adj[i]:
            if visited[j]:
                continue
            visited[j] = True
            if match_item[j] == -1 or try_augment(match_item[j], visited):
                match_item[j] = i
                return True
        return False

    for i in range(inst.n_l):
        try_augment(i, [False] * inst.n_r)
    return tuple(sorted((i, j) for j, i in enumerate(match_item) if i != -1))


def _unit_instance(rng):
    # either side may be the larger, and some bidders get no edge at all
    n_l, n_r = rng.randint(1, 40), rng.randint(1, 40)
    density = rng.choice((0.05, 0.1, 0.2, 0.4, 0.6, 0.9))
    idle = {i for i in range(n_l) if rng.random() < 0.15}
    edges = [(i, j, 1) for i in range(n_l) if i not in idle for j in range(n_r)
             if rng.random() < density]
    rng.shuffle(edges)
    return BipartiteInstance.build(n_l, n_r, edges)


@pytest.mark.parametrize("seed", range(20))
def test_mcm_pairs_match_recursive_search(seed):
    # exact_mcm is maximum: its pairs are a matching of the instance's
    # edges, as many as the recursive augmenting search finds and as the
    # max-flow of exact_mcbm; which maximum matching it returns is free
    rng = random.Random(seed)
    shapes = set()
    for _ in range(12):
        inst = _unit_instance(rng)
        got = exact_mcm(inst)
        assert got.value == len(_recursive_mcm_pairs(inst)) == exact_mcbm(inst).value
        assert len(got.pairs) == got.value
        assert check_matching(got.pairs, inst.b_l, inst.b_r, inst.edges)
        shapes.add((inst.n_l > inst.n_r) - (inst.n_l < inst.n_r))
    assert len(shapes) > 1


def test_mcm_augments_through_reversed_chain_at_size_limit():
    # bidder i < n - 1 lists items i + 1 then i, the last bidder only item
    # n - 1: the greedy start shifts every bidder up, which leaves one
    # augmenting path back down the whole chain
    n = 1024
    edges = [e for i in range(n - 1) for e in ((i, i + 1, 1), (i, i, 1))]
    inst = BipartiteInstance.build(n, n, edges + [(n - 1, n - 1, 1)])
    assert inst.n_l * inst.n_r <= ORACLE_SIZE_LIMIT
    got = exact_mcm(inst)
    assert got.value == n
    assert got.pairs == tuple((i, i) for i in range(n))
