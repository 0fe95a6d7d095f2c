"""Golden fingerprints: seeded outputs hash to values recorded before a refactor.

A change meant to keep behaviour must leave every digest here unchanged. A
change of behaviour on purpose re-records them (run this file as a script to
print the current digests) and says so in CHANGES.md.
"""
import functools
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from jobshopls import builtin_instance, generate_instance
from jobshopls.bench import BenchmarkConfig, classify_method, run_benchmark
from jobshopls.dispatch import DispatchRule, dispatch, stochastic_dispatch
from jobshopls.env import ActionSpace, rollout
from jobshopls.metaheuristics import ControllerKind, run
from jobshopls.nn import GNNConfig, QNetwork, save_checkpoint
from jobshopls.training import evaluate

DISPATCH_INSTANCES = {
    "ta01": lambda: builtin_instance("ta01"),
    "ta11": lambda: builtin_instance("ta11"),
    "ta51": lambda: builtin_instance("ta51"),
    "gen1x4": lambda: generate_instance(1, 4, seed=3),
    "gen4x1": lambda: generate_instance(4, 1, seed=3),
    "gen6x6": lambda: generate_instance(6, 6, seed=3),
}
SEEDS = (0, 1, 2)
# an ANP action cycle that mixes accepts, rejects, every operator and the
# perturbation (4 and 9)
ANP_CYCLE = (5, 6, 7, 8, 0, 5, 9, 1, 6, 4)
# runs of the same reject action with the same operator, so a step can meet
# the graph and operator of the step before it
ROLLOUT_ACTIONS = {
    ActionSpace.A: (0, 0, 0, 1) * 25,
    ActionSpace.AN: (1, 1, 5, 2, 2, 6, 3, 3, 7, 0) * 10,
}
ROLLOUT_INSTANCES = {
    "ta01": lambda: builtin_instance("ta01"),
    "gen6x6": lambda: generate_instance(6, 6, seed=3),
}
# the acceptance check's controller grid
GRID_KINDS = ("sa", "ils", "vns")
GRID_INSTANCES = tuple(f"ta{i:02d}" for i in range(1, 11))
# the bench policy path: ta01 and two random 6x6, short runs
BENCH_METHODS = ("nls_a", "nls_anp")
BENCH_INSTANCES = ("ta01", "gen:6x6x2x3")
BENCH_ITERATIONS = 20

DIGESTS = {
    "dispatch/ta01":
        "bdc2314e892634d568221506a38b2e8458e46f3acbbc941152e252ac8f52b0a4",
    "dispatch/ta11":
        "366111c083234119c9e633aa45c1e765643bdfc842927ad6b39d2b08380d6ddb",
    "dispatch/ta51":
        "170394b68bca1af5b3a1ee3562df611a00ea738a09c73764ffd626653c2fe8aa",
    "dispatch/gen1x4":
        "141c8d371e0b2cd929076afae6e14aa6d8bcde121d6ca072061d1024f85f2cba",
    "dispatch/gen4x1":
        "29b9cf4cf4fc6097044369bce86a6749f3830c67e84bbc44fb649a3cfc6a6a6b",
    "dispatch/gen6x6":
        "fe5698c14910a7674500d2de982965074438cc14e242900e4a5a54fc52522989",
    "controller/sa":
        "38df8352b3cf935d81e7c95cae7417f41fd12fe16aa99f3d092c1dde35fa8da8",
    "controller/sa_restart":
        "2ab2364b34be00dca80b981d7c1dbfd3e19449a6d055343d5768cd6f42e757c4",
    "controller/ils":
        "f3f93ae483da30f0256559a06e50f9349e4bfbd60dde766ee468bc74239f9660",
    "controller/ils_sa":
        "dd19f50411b327b71a36195aa03d5b9de8bfcdfc7eebfc21f64fbe515f70fa40",
    "controller/vns":
        "f84d6227b630cc17ed41aa59030100ab37aa64da2e4a5c11e280532454504705",
    "grid/sa":
        "8e3475e4f7fa1e6c94c9d179c783bfbc24c739a2cf0a09657ade7b956ea6dc02",
    "grid/ils":
        "b365409c8e0c2e43050181f7e07379626a8e8bfad3bc310b2d0d53984ad6ac97",
    "grid/vns":
        "d9e9c11914baec9f1795715266d10d3d492bac7a4f566ae4d0172ed949c420e1",
    "rollout/anp/ta01":
        "589939fdba7ff9682696fa684106b692f1455fd5ae8a2b8fcab99d58ada5e34f",
    "rollout/a/ta01":
        "32c3d931f15a45917d26e86f025cb4fbcaac0207d9127c0a01fa40bdf13bd334",
    "rollout/a/gen6x6":
        "17076b4dfe9bce34d119b7a989968a44c7a0c7bd7f99cc7d6198d012a9f9e625",
    "rollout/an/ta01":
        "b6da16155b002f96a5d254cfe516cfe5d1d9e945f01d3e0f2846a925aa571974",
    "rollout/an/gen6x6":
        "241b52e60c0deb755320734c0ff5bc73e11ffae309cf7e1218057eb7b5cae70f",
    "evaluate/a":
        "8b7e41c1bc9c50d261c226cb199f748618da01ea957e2e3f75d0859b5d768893",
    "evaluate/anp":
        "84b8a4fda1224486d874d9dd263c5f51d1684da695647410316b128686e728a0",
    "bench/nls_a":
        "b2ddf7e01fb11c711293e9bbbdc0fe522d7b68fbba7682cd16f52375fe996fb9",
    "bench/nls_anp":
        "2d3f04d507ca2c890abc8f21a87567e5f9e8ff5be82aa56d26617b564137b9f9",
}


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dispatch_fingerprint(name: str) -> str:
    """Every rule at noise 0, then at noise 0.5 and 1.0 with seeds 0-2."""
    inst = DISPATCH_INSTANCES[name]()
    out = []
    for rule in DispatchRule:
        out.append([rule.value, 0.0, 0, dispatch(inst, rule, seed=0).machine_seq])
        for noise in (0.5, 1.0):
            for s in SEEDS:
                sol = stochastic_dispatch(inst, rule, noise=noise, seed=s)
                out.append([rule.value, noise, s, sol.machine_seq])
    return _digest(out)


@functools.lru_cache(maxsize=None)
def _solve(kind: str, name: str, seed: int) -> list:
    res = run(ControllerKind(kind), builtin_instance(name), seed=seed)
    return [name, seed, res.best_cost, res.trace]


def controller_fingerprint(kind: str) -> str:
    """Best cost and trace on ta01-ta03 with seeds 0-2."""
    return _digest([_solve(kind, name, s)
                    for name in ("ta01", "ta02", "ta03") for s in SEEDS])


def grid_fingerprint(kind: str) -> str:
    """Best cost and trace on ta01-ta10 with seeds 0-2."""
    return _digest([_solve(kind, name, s)
                    for name in GRID_INSTANCES for s in SEEDS])


def rollout_fingerprint() -> str:
    """One 100-step ANP rollout on ta01: actions, costs, bests and rewards."""
    actions = [ANP_CYCLE[t % len(ANP_CYCLE)] for t in range(100)]
    rows = rollout(builtin_instance("ta01"), actions, ActionSpace.ANP, seed=0)
    return _digest(rows)


def space_rollout_fingerprint(space: ActionSpace, name: str) -> str:
    """One 100-step rollout of the space's fixed action list."""
    rows = rollout(ROLLOUT_INSTANCES[name](), ROLLOUT_ACTIONS[space], space,
                   seed=0)
    return _digest(rows)


def evaluate_fingerprint(space: ActionSpace) -> str:
    """Greedy costs of an untrained desk-scale net on four random 6x6."""
    net = QNetwork(space.n_actions, GNNConfig.desk_scale(), seed=2)
    instances = [generate_instance(6, 6, seed=k) for k in range(4)]
    return _digest(evaluate(net, instances, space, t_max=10).tolist())


def bench_rows(method: str, seed: int) -> list:
    """``run_benchmark`` rows of an untrained desk-scale net; with net seed 4
    the ANP policy perturbs, so its rows depend on the run seed."""
    space = classify_method(method)[1]
    with tempfile.TemporaryDirectory() as tmp:
        ck = Path(tmp) / "net.npz"
        save_checkpoint(QNetwork(space.n_actions, GNNConfig.desk_scale(), seed=4), ck)
        return run_benchmark(BenchmarkConfig(
            method=method, instances=BENCH_INSTANCES,
            iterations=BENCH_ITERATIONS, seed=seed, checkpoint=str(ck))).rows


def bench_fingerprint(method: str) -> str:
    """Cost and machine orders of every bench row, with seeds 0 and 1."""
    return _digest([[seed, row.instance, row.cost, row.solution.machine_seq]
                    for seed in (0, 1) for row in bench_rows(method, seed)])


def current_digests() -> dict:
    out = {f"dispatch/{name}": dispatch_fingerprint(name)
           for name in DISPATCH_INSTANCES}
    out.update({f"controller/{kind.value}": controller_fingerprint(kind.value)
                for kind in ControllerKind})
    out.update({f"grid/{kind}": grid_fingerprint(kind) for kind in GRID_KINDS})
    out["rollout/anp/ta01"] = rollout_fingerprint()
    out.update({f"rollout/{space.value}/{name}":
                space_rollout_fingerprint(space, name)
                for space in ROLLOUT_ACTIONS for name in ROLLOUT_INSTANCES})
    out.update({f"evaluate/{space.value}": evaluate_fingerprint(space)
                for space in (ActionSpace.A, ActionSpace.ANP)})
    out.update({f"bench/{method}": bench_fingerprint(method)
                for method in BENCH_METHODS})
    return out


@pytest.mark.parametrize("name", list(DISPATCH_INSTANCES))
def test_dispatch_fingerprint(name):
    assert dispatch_fingerprint(name) == DIGESTS[f"dispatch/{name}"]


@pytest.mark.parametrize("kind", [k.value for k in ControllerKind])
def test_controller_fingerprint(kind):
    assert controller_fingerprint(kind) == DIGESTS[f"controller/{kind}"]


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_grid_fingerprint(kind):
    assert grid_fingerprint(kind) == DIGESTS[f"grid/{kind}"]


def test_anp_rollout_fingerprint():
    assert rollout_fingerprint() == DIGESTS["rollout/anp/ta01"]


@pytest.mark.parametrize("name", list(ROLLOUT_INSTANCES))
@pytest.mark.parametrize("space", list(ROLLOUT_ACTIONS), ids=lambda s: s.value)
def test_space_rollout_fingerprint(space, name):
    assert (space_rollout_fingerprint(space, name)
            == DIGESTS[f"rollout/{space.value}/{name}"])


@pytest.mark.parametrize("space", [ActionSpace.A, ActionSpace.ANP],
                         ids=lambda s: s.value)
def test_evaluate_fingerprint(space):
    assert evaluate_fingerprint(space) == DIGESTS[f"evaluate/{space.value}"]


@pytest.mark.parametrize("method", BENCH_METHODS)
def test_bench_policy_fingerprint(method):
    assert bench_fingerprint(method) == DIGESTS[f"bench/{method}"]


if __name__ == "__main__":
    for key, value in current_digests().items():
        print(f'    "{key}": "{value}",')
