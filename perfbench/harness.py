"""Workloads, passes, output checks and metrics of the benchmark.

Every workload drives the package through its public entry points only:
``bench.run_benchmark`` for search and policy rollouts, ``training.train``
for training. Load is a closed loop with one client: one call at a time from
one process, ``jobs = 1``, BLAS at its own default thread count.

Times are paired with a yardstick. ``frozen/frozen_jobshopls`` is a copy
of the package as it was when this benchmark was defined, less ``cli.py``,
with the data files these workloads read (its hash is ``FROZEN_SHA256``).
Its one edit is that it reads those files from itself, so nothing in it
depends on the package under test.

Every timed call into the package is paired with the same call, same seed,
into the copy, right before or after it, in alternating order. The machine
this runs on is a few cores of a shared host whose speed drifts by 25-40%
over minutes and more, so wall seconds from two runs cannot be compared; the
ratio of a pair can, because both halves meet the same host. A time is
reported as ``median ratio x nominal``, where ``nominal.json`` holds the
copy's own time for that call, measured once when the benchmark was
defined. So on that code the times read as the nominal ones, and a package
that gets faster reports proportionally less time. The wall-clock figures
are printed beside them.

A run has four parts:

1. set-up, timed in fresh child processes (imports, instance loading,
   checkpoint creation), each paired with a set-up of the copy, and then
   done once in this process;
2. the fingerprint pass: the workload's requests at ``BENCH_SEED``,
   compared with the recorded ``fingerprints.json``. ``mean_gap_pct`` is
   taken from this pass, so that it compares commits on the same answers
   whatever the run's seed. It also warms caches and lazy imports before
   anything is timed, and ``peak_rss_mb`` is read after it, before the copy
   is loaded;
3. set-up of the copy in this process and an untimed pass over it;
4. timed passes over the workload's requests, seeded with the run's seed,
   each request paired with the copy, repeated while the next pass still
   fits into ``--seconds`` (at least one).

A request's time is its median over the passes. The median and the tail of
the run are then taken over requests.

Every request is checked independently of the package: the solution that
``bench`` hands to ``validate`` is captured, its problems are recorded and
its makespan is recomputed from the schedule; training results are
re-evaluated. Repeated passes must reproduce the first pass exactly. Any
miss counts as a failed operation.

With tracing on, each timed pass runs once plain and once under a
``Tracer``; the per-layer numbers come from the median traced pass, the
overhead is its wall time minus the median plain pass, and every traced
pass must give the same answers and counts as the plain ones.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Optional

import numpy as np

from tracing import TIMED_SUFFIXES, Tracer

BENCH_SEED = 0          # seed of the recorded fingerprints
SETUP_REPEATS = 5       # paired child set-ups per run; setup_s is their median
HERE = Path(__file__).resolve().parent
PACKAGE = "jobshopls"                   # the package under test
FROZEN = "frozen_jobshopls"             # its copy, the yardstick
FROZEN_DIR = HERE / "frozen"
FROZEN_SHA256 = "20f9577168e152b955acea5ebaf5579e1756b463a343dca0a641a012cbb8ffca"
if str(FROZEN_DIR) not in sys.path:
    sys.path.append(str(FROZEN_DIR))
CONTROLLERS = ("sa", "sa_restart", "ils", "ils_sa", "vns")


@dataclass(frozen=True)
class Request:
    """One call into the package: a method on one instance."""

    method: str           # controller, policy method, or "train"
    instance: str         # bundled name; "gen6x6" for training
    iterations: int       # controller iterations, rollout steps or
                          # transitions collected in training

    @property
    def key(self) -> str:
        return f"{self.method}/{self.instance}/{self.iterations}"


@dataclass(frozen=True)
class Workload:
    """Each instance once, the methods taken in turn."""

    name: str
    methods: tuple[str, ...]
    instances: tuple[str, ...]
    iterations: int
    net: Optional[str] = None           # "full" or "desk" policy checkpoint
    train_overrides: tuple = ()         # TrainConfig.desk_scale() changes

    def requests(self) -> tuple[Request, ...]:
        k = len(self.methods)
        return tuple(Request(self.methods[i % k], name, self.iterations)
                     for i, name in enumerate(self.instances))


WORKLOADS = {w.name: w for w in (
    # each controller on two of the ten instances rather than all 50 pairs:
    # one pass then takes about 5 s with the copy and repeats within a run
    Workload("search-small", CONTROLLERS,
             tuple(f"ta{i:02d}" for i in range(1, 11)), 100),
    Workload("policy-large", ("nls_anp",), ("ta51",), 20, net="full"),
    # fewer transitions than the acceptance run (5 x 2000), same config
    Workload("train-desk", ("train",), ("gen6x6",), 240),
)}


def spec(root: Path) -> dict:
    """The metric names and units this benchmark promises to print."""
    return json.loads((root / "BENCHMARK.json").read_text())


def emit(result: dict, wanted: list[dict]) -> dict:
    """The ``wanted`` metrics of a run, each with its value and unit."""
    return {m["name"]: {"value": float(result["metrics"][m["name"]]),
                        "unit": m["unit"]} for m in wanted}


# ---------------------------------------------------------------- set-up
@dataclass(frozen=True)
class DeskInstances:
    """Instance factory of the desk-scale training runs: random 6x6."""

    generate: object            # taillard.generate_instance of one package

    def __call__(self, rng: np.random.Generator):
        return self.generate(6, 6, seed=int(rng.integers(1 << 30)))


def lower_bound(instance) -> int:
    """Largest job length or machine load: no schedule can be shorter."""
    loads = np.zeros(instance.n_machines, dtype=np.int64)
    np.add.at(loads, instance.machine.reshape(-1), instance.proc.reshape(-1))
    return int(max(instance.proc.sum(axis=1).max(), loads.max()))


@dataclass
class Context:
    """What the requests of one workload need, built by ``setup``."""

    bench: object              # bench module of the package set up
    training: object = None    # its training module
    checkpoint: Optional[str] = None
    train_config: object = None
    evaluate: object = None    # training.evaluate as set up, never a traced one
    instances: object = None   # DeskInstances of the package
    val_instances: list = field(default_factory=list)
    val_bound: float = 0.0


def setup(workload: Workload, workdir: Path, package: str = PACKAGE) -> Context:
    """Imports, instance loading and checkpoint creation for one workload."""
    def module(name):
        return importlib.import_module(f"{package}.{name}")
    taillard = module("taillard")
    ctx = Context(bench=module("bench"))
    taillard.best_known()
    if workload.methods != ("train",):
        for name in workload.instances:
            taillard.resolve_instance(name)
    if workload.net is not None:
        nn = module("nn")
        space = ctx.bench.classify_method(workload.methods[0])[1]
        config = nn.GNNConfig() if workload.net == "full" else nn.GNNConfig.desk_scale()
        ctx.checkpoint = str(workdir / f"checkpoint-{workload.name}-{package}.npz")
        nn.save_checkpoint(nn.QNetwork(space.n_actions, config, seed=0), ctx.checkpoint)
        nn.load_checkpoint(ctx.checkpoint)
    if workload.methods == ("train",):
        ctx.training = module("training")
        ctx.evaluate = ctx.training.evaluate
        ctx.instances = DeskInstances(taillard.generate_instance)
        ctx.train_config = replace(ctx.training.TrainConfig.desk_scale(),
                                   **dict(workload.train_overrides))
        # the same draw train() makes for its validation set
        val_rng = np.random.default_rng(ctx.train_config.validation_seed)
        ctx.val_instances = [ctx.instances(val_rng)
                             for _ in range(ctx.train_config.n_validation)]
        ctx.val_bound = float(np.mean([lower_bound(i) for i in ctx.val_instances]))
    return ctx


def setup_child() -> None:
    """Entry of a set-up timing child: workload, workdir, package on stdin.

    Prints the system-wide monotonic time at which set-up was done.
    """
    setup(*pickle.load(sys.stdin.buffer))
    print(time.clock_gettime(time.CLOCK_MONOTONIC))


def time_setup(workload: Workload, workdir: Path,
               src: Path) -> list[tuple[float, float]]:
    """Wall seconds of full set-ups in fresh interpreters, as pairs.

    Each pair is (package, frozen copy), run back to back, the first of the
    two alternating. The end time comes from the child: waiting for a child
    with a timeout polls in steps of up to 50 ms, which would show up in the
    figure.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(HERE), str(FROZEN_DIR)]))
    code = "import harness; harness.setup_child()"
    pairs = []
    for k in range(SETUP_REPEATS):
        seconds = {}
        for package in (PACKAGE, FROZEN)[::1 if k % 2 == 0 else -1]:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 input=pickle.dumps((workload, workdir, package)),
                                 stdout=subprocess.PIPE, check=True, timeout=120)
            seconds[package] = float(out.stdout.split()[-1]) - t0
        pairs.append((seconds[PACKAGE], seconds[FROZEN]))
    return pairs


# ---------------------------------------------------------------- checks
def schedule_makespan(instance, solution) -> int:
    """Makespan of the semi-active schedule of a solution.

    Written from the problem definition alone: start each operation once it
    is next on its machine and its job predecessor has finished. Raises
    ValueError for an operation on the wrong machine or a deadlock.
    """
    J, M = instance.n_jobs, instance.n_machines
    proc, machine = instance.proc.tolist(), instance.machine.tolist()
    seqs = [[tuple(op) for op in seq] for seq in solution.machine_seq]
    if len(seqs) != M or any(len(s) != J for s in seqs):
        raise ValueError("solution does not hold J ops on each of M machines")
    for k, seq in enumerate(seqs):
        for job, pos in seq:
            if machine[job][pos] != k:
                raise ValueError(f"op ({job}, {pos}) is not routed to machine {k}")
    job_pos, job_free = [0] * J, [0] * J
    mach_idx, mach_free = [0] * M, [0] * M
    left = J * M
    while left:
        moved = False
        for k in range(M):
            while mach_idx[k] < J:
                job, pos = seqs[k][mach_idx[k]]
                if job_pos[job] != pos:
                    break
                end = max(job_free[job], mach_free[k]) + proc[job][pos]
                job_free[job] = mach_free[k] = end
                job_pos[job] += 1
                mach_idx[k] += 1
                left -= 1
                moved = True
        if not moved:
            raise ValueError("machine orders deadlock against the job routes")
    return max(job_free)


class ValidateProbe:
    """Wraps the ``validate`` name that ``bench`` calls and keeps its result.

    ``bench`` drops the list of problems ``validate`` returns; the probe
    records it together with the instance and solution it was given.
    """

    def __init__(self):
        self.calls: list[tuple] = []
        self._original = None

    def __enter__(self) -> "ValidateProbe":
        # looked up here, not imported with this module: a set-up child of
        # the frozen copy must not import the package under test
        self._bench = bench = importlib.import_module(f"{PACKAGE}.bench")
        self._original = original = bench.validate

        def probe(instance, solution):
            problems = original(instance, solution)
            self.calls.append((instance, solution, list(problems)))
            return problems

        bench.validate = probe
        return self

    def __exit__(self, *exc) -> None:
        self._bench.validate = self._original


@dataclass
class Outcome:
    """One request's result: what it printed and whether it checked out."""

    key: str
    value: object              # fingerprinted output (cost or val makespan)
    gap: Optional[float]       # to best known (search) or lower bound (train)
    steps: int
    seconds: float
    problems: list[str]


def _bench_config(req: Request, seed: int, ctx: Context):
    return ctx.bench.BenchmarkConfig(
        method=req.method, instances=(req.instance,), iterations=req.iterations,
        seed=seed, checkpoint=ctx.checkpoint)


def _train_config(req: Request, ctx: Context):
    return replace(ctx.train_config,
                   transitions_per_epoch=req.iterations // ctx.train_config.epochs)


def _solve(req: Request, seed: int, ctx: Context, probe: ValidateProbe) -> Outcome:
    config = _bench_config(req, seed, ctx)
    probe.calls.clear()
    t0 = perf_counter()
    row = ctx.bench.run_benchmark(config).rows[0]
    seconds = perf_counter() - t0
    problems = []
    if len(probe.calls) != 1:
        problems.append(f"validate called {len(probe.calls)} times, expected 1")
    for instance, solution, found in probe.calls:
        problems += [f"validate: {p}" for p in found]
        try:
            cost = schedule_makespan(instance, solution)
        except ValueError as exc:
            problems.append(f"schedule check: {exc}")
        else:
            if cost != row.cost:
                problems.append(f"reported cost {row.cost} but schedule has {cost}")
    gap = None if row.gap is None else float(row.gap)
    if gap is None:
        problems.append(f"no best known value for {req.instance}")
    return Outcome(req.key, int(row.cost), gap, req.iterations, seconds, problems)


def _train(req: Request, seed: int, ctx: Context) -> Outcome:
    cfg = _train_config(req, ctx)
    t0 = perf_counter()
    result = ctx.training.train(cfg, ctx.instances, seed=seed)
    seconds = perf_counter() - t0
    last = result.history[-1]
    val = float(last.val_makespan)
    problems = []
    rerun = float(ctx.evaluate(
        result.net, ctx.val_instances, cfg.action_space, cfg.t_max,
        seed=cfg.validation_seed, k_taus=cfg.k_taus,
        perturbation_strength=cfg.perturbation_strength).mean())
    if rerun != result.best_validation:
        problems.append(f"returned net scores {rerun}, "
                        f"reported {result.best_validation}")
    if min(r.val_makespan for r in result.history) != result.best_validation:
        problems.append("best validation is not the minimum of the history")
    # the loss ties the fingerprint to td_loss, backward and Adam, which
    # need not change the greedy validation policy in a short run
    return Outcome(req.key, [val, float(result.best_validation),
                             float(last.mean_loss)],
                   val / ctx.val_bound - 1.0,
                   cfg.epochs * cfg.transitions_per_epoch, seconds, problems)


def run_request(req: Request, seed: int, ctx: Context,
                probe: ValidateProbe) -> Outcome:
    """Run and check one request; an exception is a failed operation."""
    t0 = perf_counter()
    try:
        if req.method == "train":
            return _train(req, seed, ctx)
        return _solve(req, seed, ctx, probe)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Outcome(req.key, None, None, 0, perf_counter() - t0,
                       [f"raised {type(exc).__name__}: {exc}"])


def time_frozen(req: Request, seed: int, frozen: Context) -> float:
    """Wall seconds of one request on the frozen copy; its answer is unused."""
    t0 = perf_counter()
    if req.method == "train":
        frozen.training.train(_train_config(req, frozen), frozen.instances, seed=seed)
    else:
        frozen.bench.run_benchmark(_bench_config(req, seed, frozen))
    return perf_counter() - t0


def run_pass(requests, seed: int, ctx: Context, probe: ValidateProbe,
             tracer: Optional[Tracer] = None, frozen: Optional[Context] = None,
             order: int = 0) -> tuple[list[Outcome], float, list[float]]:
    """Run the requests in order, each paired with the frozen copy if given.

    Returns the outcomes, the wall seconds of the pass and the copy's
    seconds per request. The copy runs first where ``i + order`` is odd.
    """
    t0 = perf_counter()
    outcomes, frozen_seconds = [], []
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        copy_first = frozen is not None and (i + order) % 2 == 1
        if copy_first:
            frozen_seconds.append(time_frozen(req, seed, frozen))
        outcomes.append(run_request(req, seed, ctx, probe))
        if frozen is not None and not copy_first:
            frozen_seconds.append(time_frozen(req, seed, frozen))
    return outcomes, perf_counter() - t0, frozen_seconds


def compare(outcomes: list[Outcome], expected: dict, what: str) -> None:
    """Add a problem to each outcome whose value differs from ``expected``."""
    for o in outcomes:
        if o.value is not None and expected.get(o.key) != o.value:
            o.problems.append(f"{what}: {o.key} gave {o.value}, "
                              f"expected {expected.get(o.key)}")


def fingerprints(outcomes: list[Outcome]) -> dict:
    return {o.key: o.value for o in outcomes}


# ---------------------------------------------------------------- metrics
def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would not reach the median, so the
    maximum stands in for it.
    """
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], f"max of {n}"
    return s[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}"


def tree_sha256(directory: Path) -> str:
    """Hash of every file under a directory, by path, bytecode caches left out."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(directory).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    """Where the numbers were taken: cores, interpreter, numpy, BLAS, source."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy before 1.26 prints, returns None
        info = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{info.get('name')} {info.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(root),
        "src_sha256": tree_sha256(root / "src" / PACKAGE),
    }


def blas_threads() -> Optional[int]:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ---------------------------------------------------------------- a run
def run(workload: Workload, seed: int, seconds: float, trace: bool,
        root: Path, workdir: Path, expected: Optional[dict],
        nominal: Optional[dict] = None) -> dict:
    """One benchmark run; returns the result object and writes its files.

    ``expected`` holds the recorded fingerprints; None skips that check.
    ``nominal`` holds the frozen copy's nominal seconds per request key and
    for "setup"; None reports the bare package/copy ratios instead.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    setup_pairs = [] if trace else time_setup(workload, workdir, root / "src")
    ctx = setup(workload, workdir)
    attempted = failed = 0
    log: list[str] = []

    def settle(outcomes: list[Outcome]) -> None:
        nonlocal attempted, failed
        attempted += len(outcomes)
        for o in outcomes:
            if o.problems:
                failed += 1
                log.extend(f"FAIL {o.key}: {p}" for p in o.problems)

    requests = workload.requests()
    with ValidateProbe() as probe:
        # fingerprint pass; traced in a traced run, so that the recorded
        # (untraced) fingerprints also prove tracing changes no answer
        with Tracer() if trace else nullcontext() as fp_tracer:
            fp_out, _, _ = run_pass(requests, BENCH_SEED, ctx, probe, fp_tracer)
        if expected is not None:
            compare(fp_out, expected, "fingerprint drift")
        settle(fp_out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        frozen = None
        if not trace:
            frozen = setup(workload, workdir, FROZEN)
            for req in requests:
                time_frozen(req, BENCH_SEED, frozen)      # warm-up, untimed

        passes: list[list[Outcome]] = []
        frozen_passes: list[list[float]] = []
        plain_walls: list[float] = []
        traced: list[tuple[float, dict]] = []      # (wall, layer metrics)
        t_start = perf_counter()
        while True:
            outcomes, wall, frozen_seconds = run_pass(
                requests, seed, ctx, probe, frozen=frozen, order=len(passes))
            if passes:
                compare(outcomes, fingerprints(passes[0]),
                        "repeat differs from first pass")
            settle(outcomes)
            passes.append(outcomes)
            frozen_passes.append(frozen_seconds)
            plain_walls.append(wall)
            if trace:
                with Tracer() as tracer:
                    t_outcomes, t_wall, _ = run_pass(requests, seed, ctx, probe, tracer)
                compare(t_outcomes, fingerprints(passes[0]), "traced pass differs")
                settle(t_outcomes)
                if not traced:
                    tracer.write(workdir / f"spans-{workload.name}-{seed}.jsonl")
                traced.append((t_wall, tracer.layer_metrics()))
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / len(passes) > seconds:
                break

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    pairs = None
    if trace:
        for key in traced[0][1]:
            values = [m[key] for _, m in traced]
            if not key.endswith(TIMED_SUFFIXES) and len(set(values)) > 1:
                failed += 1
                log.append(f"FAIL counter {key} differs between passes: {values}")
        traced.sort(key=lambda t: t[0])
        traced_wall, metrics = traced[(len(traced) - 1) // 2]
        plain = median(plain_walls)
        metrics["trace.overhead_s"] = traced_wall - plain
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain
        notes["trace.overhead_s"] = (f"median traced pass {traced_wall:.3f} s vs "
                                     f"plain {plain:.3f} s, {len(traced)} of each")
    else:
        # each request's median package/copy ratio over the passes, in
        # nominal seconds of the copy (see the module docstring)
        def unit(key: str) -> float:
            return 1.0 if nominal is None else nominal[key]
        n = len(requests)
        ratios = [median(p[i].seconds / f[i] for p, f in zip(passes, frozen_passes))
                  for i in range(n)]
        per_request = [r * unit(req.key) for r, req in zip(ratios, requests)]
        clock = [median(p[i].seconds for p in passes) for i in range(n)]
        steps = sum(o.steps for o in passes[0])
        setup_ratio = median(t / f for t, f in setup_pairs)
        metrics["setup_s"] = setup_ratio * unit("setup")
        notes["setup_s"] = (
            f"median of {len(setup_pairs)} paired set-ups, package/copy "
            f"{setup_ratio:.4f}; {median(t for t, _ in setup_pairs):.4f} s on the clock")
        metrics["steps_per_s"] = steps / sum(per_request)
        notes["steps_per_s"] = (
            f"median of {len(passes)} paired passes per request, package/copy "
            f"{sum(per_request) / sum(unit(r.key) for r in requests):.4f}; "
            f"{steps / sum(clock):.2f} 1/s on the clock")
        metrics["solve_s_p50"] = median(per_request)
        notes["solve_s_p50"] = f"median of {n} per-request times"
        metrics["solve_s_tail"], notes["solve_s_tail"] = tail(per_request)
        gaps = [o.gap for o in fp_out if o.gap is not None]
        metrics["mean_gap_pct"] = 100.0 * float(np.mean(gaps)) if gaps else 0.0
        metrics["peak_rss_mb"] = peak_rss_mb
        notes["mean_gap_pct"] = f"at seed {BENCH_SEED}, " + (
            "to best known values" if ctx.train_config is None
            else "final validation makespan vs lower bound")
        notes["peak_rss_mb"] = "after the fingerprint pass, before the copy is loaded"
        if ctx.train_config is not None and fp_out[0].value is not None:
            notes["val_makespan"] = (f"{fp_out[0].value[0]} time units "
                                     f"(final validation makespan, seed {BENCH_SEED})")
        pairs = {"setup": setup_pairs,
                 "requests": [[(o.seconds, f) for o, f in zip(p, fs)]
                              for p, fs in zip(passes, frozen_passes)]}
    metrics["ok_frac"] = 1.0 - failed / attempted
    notes["fail_frac"] = (f"{failed / attempted} ratio ({failed} of {attempted} "
                          "operations failed or mis-verified)")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "log": log,
        "fingerprints": fingerprints(fp_out),
        "env": environment(root),
        "passes": len(passes),
        "pairs": pairs,
    }


def measure_nominal(workload: Workload, workdir: Path, src: Path,
                    passes: int = 5) -> dict:
    """The frozen copy's median seconds per request (at ``BENCH_SEED``) and
    per child set-up: the unit in which runs report their times."""
    workdir.mkdir(parents=True, exist_ok=True)
    setups = [f for _, f in time_setup(workload, workdir, src)]
    frozen = setup(workload, workdir, FROZEN)
    requests = workload.requests()
    times = [[time_frozen(req, BENCH_SEED, frozen) for req in requests]
             for _ in range(passes + 1)][1:]          # the first one warms up
    out = {"setup": median(setups)}
    out.update({req.key: median(t[i] for t in times) for i, req in enumerate(requests)})
    return out
