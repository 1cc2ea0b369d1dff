"""faskit benchmark: end-to-end CLI runs per workload, or a traced in-process
run for per-layer numbers.

    python3 bench/run.py --workload sweep-k10 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn
    python3 bench/run.py --selftest                   # small sizes, seconds

Run from the repository root. Each op launches ``python -m faskit.cli`` with
``src/`` on PYTHONPATH, so the working tree is measured, not an installed
copy. Inputs are drawn from ``--seed``; every op of a run is the same
command(s) on the same inputs and is checked against ``reference.py``.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Ops run with the caller's environment, minus FASKIT_THREADS, so faskit uses
# its default thread count in untraced and traced ops alike. In an untraced
# run the harness's own numpy work (inputs, references, checks) gets one BLAS
# thread: OpenBLAS threads spin for a while after each call and would take a
# core from the op or the start-up being timed next. A traced run is the
# program itself, so it keeps the caller's BLAS threads. --trace is read here,
# before numpy is imported, by the same rules as main()'s parser.
os.environ.pop("FASKIT_THREADS", None)
CALLER_ENV = dict(os.environ)
_trace_parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
_trace_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
TRACED = _trace_parser.parse_known_args()[0].trace == 1
if not TRACED:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(BENCH, "launch.py")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

# Fresh interpreters timed per run for setup_s: one after each op, and more
# after the last op up to this many; the median is reported.
SETUP_REPEATS = 9

FULL = {
    "sweep_n": 2000, "sweep_k": 10, "csv_n": 200_000, "csv_k": 3,
    "oracle_k": 10, "grid": 201, "mc_k": 4, "mc_n": 1000, "reps": 100,
}
SMALL = {
    "sweep_n": 500, "sweep_k": 3, "csv_n": 500, "csv_k": 3,
    "oracle_k": 3, "grid": 21, "mc_k": 4, "mc_n": 500, "reps": 5,
}

END_TO_END = {"op_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

PER_LAYER = {
    "data.load_csv_s": "s",
    "data.load_rows_per_s": "rows/s",
    "data.write_csv_s": "s",
    "dgp.simulate_s": "s",
    "linalg.partial_out_s": "s",
    "linalg.ols_calls": "count",
    "linalg.projection_basis_calls": "count",
    "specs.transform_s": "s",
    "specs.enumerate_s": "s",
    "estimators.just_id_iv_s": "s",
    "estimators.tsls_s": "s",
    "estimators.pairwise_s": "s",
    "fas.sweep_s": "s",
    "fas.sweep_cpu_s": "s",
    "fas.specs_per_s": "specs/s",
    "fas.select_s": "s",
    "fas.population_moments_s": "s",
    "fas.frontier_s": "s",
    "fas.identified_set_calls": "count",
    "cli.report_s": "s",
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "fas.specs_failed": "count",
    "fas.selected_share": "ratio",
    "trace.op_s": "s",
    "trace.overhead_s": "s",
}

# Inclusive time of one function, per layer metric.
INCLUSIVE = {
    "data.load_csv_s": "data.load_csv",
    "data.write_csv_s": "data.write_csv",
    "dgp.simulate_s": "dgp.simulate",
    "linalg.partial_out_s": "linalg.partial_out",
    "specs.transform_s": "specs.transform_instrument",
    "specs.enumerate_s": "specs.enumerate_specs",
    "estimators.just_id_iv_s": "estimators.just_id_iv",
    "estimators.tsls_s": "estimators.tsls",
    "estimators.pairwise_s": "estimators.tsls_pairwise_report",
    "fas.sweep_s": "fas.estimate_specs",
    "fas.select_s": "fas.fas_from_estimates",
    "fas.population_moments_s": "fas.population_spec_moments",
    "fas.frontier_s": "fas.frontier",
    "cli.emit_s": "cli._emit",
}


def population_model(model: dict):
    from faskit import PopulationModel

    keys = ("beta", "gamma", "alpha", "pi", "sigma_z", "var_v", "var_u")
    return PopulationModel(**{key: model[key] for key in keys})


# ---------------------------------------------------------------------------
# workloads: inputs, commands, reference expectations and checks


class Workload:
    """One workload at one seed: its input files, its op and its checks."""

    rows = 0  # rows the op loads from CSV, for data.load_rows_per_s

    def __init__(self, seed: int, work: str, size: dict) -> None:
        self.seed = seed
        self.work = work
        self.size = size
        self.rng = np.random.Generator(np.random.PCG64(seed))

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def commands(self) -> list[tuple[list[str], str]]:
        """(faskit arguments, stdout file name) per process of one op."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Failure messages for the outputs of the op just run."""
        raise NotImplementedError

    def load(self, name: str) -> dict:
        with open(self.path(name)) as handle:
            return json.load(handle)


class SweepK10(Workload):
    """estimate, mode all, on k instruments with two controls."""

    def __init__(self, seed, work, size):
        super().__init__(seed, work, size)
        n, k = size["sweep_n"], size["sweep_k"]
        self.k = k
        self.rows = n
        model = inputs.make_model(k, self.rng, n=n)
        sample = inputs.draw_with_controls(model, n, 2, self.rng)
        self.z_names, self.w_names = inputs.write_csv(sample, self.path("sweep.csv"))
        y, x, Z, absorbed = reference.partial(sample["y"], sample["x"], sample["Z"], sample["W"])
        self.table = reference.spec_table(y, x, Z, absorbed)

    def commands(self):
        return [(
            ["estimate", "--data", self.path("sweep.csv"), "--outcome", "y",
             "--treatment", "x", "--instruments", ",".join(self.z_names),
             "--controls", ",".join(self.w_names), "--emit", "json"],
            "estimate.json",
        )]

    def check(self):
        # The 2SLS block ignores --controls (see CHANGES.md), so only its
        # weights are checked here.
        return checks.check_estimate(self.load("estimate.json"), self.table, self.k)


class CsvRoundtrip(Workload):
    """simulate a large draw to CSV, then estimate --pairwise on that file."""

    def __init__(self, seed, work, size):
        super().__init__(seed, work, size)
        from faskit.dgp import SimulationConfig, simulate

        n, k = size["csv_n"], size["csv_k"]
        self.k, self.n = k, n
        self.rows = n
        self.model = inputs.make_model(k, self.rng, n=n)
        inputs.write_model(self.model, self.path("model.txt"))
        draw = simulate(SimulationConfig(model=population_model(self.model), n=n, seed=seed, rho_uv=self.model["rho_uv"]))
        self.expected_csv = np.column_stack([draw.y, draw.x, draw.Z])
        y, x, Z, absorbed = reference.partial(draw.y, draw.x, draw.Z, np.empty((n, 0)))
        self.table = reference.spec_table(y, x, Z, absorbed)
        self.intervals = checks.reference_draw_intervals(self.table, k)
        self.moments = reference.population_moments(self.model)
        yd, xd, Zd = (reference.demean(a) for a in (draw.y, draw.x, draw.Z))
        self.tsls = reference.tsls(yd, xd, Zd)
        self.pairwise = reference.pairwise(yd, xd, Zd)

    def commands(self):
        names = ",".join(f"Z{i}" for i in range(1, self.k + 1))
        return [
            (["simulate", "--model", self.path("model.txt"), "--n", str(self.n),
              "--seed", str(self.seed), "--out", self.path("draw.csv"), "--emit", "json"],
             "simulate.json"),
            (["estimate", "--data", self.path("draw.csv"), "--outcome", "y",
              "--treatment", "x", "--instruments", names, "--pairwise", "--emit", "json"],
             "estimate.json"),
        ]

    def check(self):
        sim = self.load("simulate.json")
        est = self.load("estimate.json")
        errors = checks.check_population_section(sim["population"], self.moments, self.k)
        errors += checks.check_simulate_estimates(sim["estimates"], self.intervals)
        written = inputs.read_csv(self.path("draw.csv"))
        if written.shape != self.expected_csv.shape or not np.array_equal(written, self.expected_csv):
            errors.append("draw.csv does not round-trip the simulated draw exactly")
        if est["n"] != self.n or est["dropped_rows"] != 0:
            errors.append(f"estimate read n={est['n']}, dropped={est['dropped_rows']}")
        errors += checks.check_estimate(est, self.table, self.k, self.tsls, self.pairwise)
        return errors


class OracleK10(Workload):
    """oracle, mode all, with the full frontier report."""

    def __init__(self, seed, work, size):
        super().__init__(seed, work, size)
        self.model = inputs.make_model(size["oracle_k"], self.rng)
        inputs.write_model(self.model, self.path("model.txt"))
        self.moments = reference.population_moments(self.model)

    def commands(self):
        return [(
            ["oracle", "--model", self.path("model.txt"), "--mode", "all",
             "--grid", str(self.size["grid"]), "--emit", "json"],
            "oracle.json",
        )]

    def check(self):
        return checks.check_oracle(self.load("oracle.json"), self.model, self.moments, self.size["grid"])


class MonteCarlo(Workload):
    """simulate --reps: many small draws, each partialled and swept."""

    def __init__(self, seed, work, size):
        super().__init__(seed, work, size)
        from faskit.dgp import SimulationConfig, derive_seed, simulate

        k, n, reps = size["mc_k"], size["mc_n"], size["reps"]
        self.k, self.n, self.reps = k, n, reps
        self.model = inputs.make_model(k, self.rng, n=n)
        inputs.write_model(self.model, self.path("model.txt"))
        self.moments = reference.population_moments(self.model)
        self.draws = []
        for rep in range(reps):
            draw = simulate(SimulationConfig(
                model=population_model(self.model), n=n,
                seed=derive_seed(seed, rep), rho_uv=self.model["rho_uv"],
            ))
            y, x, Z, absorbed = reference.partial(draw.y, draw.x, draw.Z, np.empty((n, 0)))
            table = reference.spec_table(y, x, Z, absorbed)
            self.draws.append(checks.reference_draw_intervals(table, k))

    def commands(self):
        return [(
            ["simulate", "--model", self.path("model.txt"), "--reps", str(self.reps),
             "--n", str(self.n), "--seed", str(self.seed), "--emit", "json"],
            "simulate.json",
        )]

    def check(self):
        report = self.load("simulate.json")
        errors = checks.check_population_section(report["population"], self.moments, self.k)
        return errors + checks.check_summary(report["replication_summary"], self.draws)


# Why each workload is in the set: see README.md and BENCHMARK.json.
WORKLOADS = {
    "sweep-k10": SweepK10,
    "csv-roundtrip": CsvRoundtrip,
    "oracle-k10": OracleK10,
    "montecarlo": MonteCarlo,
}


# ---------------------------------------------------------------------------
# untraced: one process per command


def child_env() -> dict:
    env = dict(CALLER_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv: list[str], stdout_path: str, env: dict) -> tuple[float, float, float, int]:
    """Run one process to its exit through launch.py:
    (wall s, user+sys CPU s, peak RSS MiB, exit code)."""
    proc = subprocess.Popen(
        [sys.executable, "-I", LAUNCHER, stdout_path, *argv],
        stdout=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        report, _ = proc.communicate()
    except BaseException:
        # the launcher and the op share the new session's process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited {proc.returncode} for {argv}")
    r = json.loads(report)
    return r["wall_s"], r["cpu_s"], r["peak_rss_mb"], r["exit_code"]


def time_setup(workload: Workload, env: dict) -> float:
    """Wall time of one fresh interpreter that imports faskit.cli."""
    wall, _, _, code = launch([sys.executable, "-c", "import faskit.cli"], workload.path("setup.out"), env)
    if code != 0:
        with open(workload.path("setup.out.err")) as handle:
            raise RuntimeError(f"import faskit.cli exited {code}: {handle.read().strip()[-300:]}")
    return wall


def checked(workload: Workload) -> list[str]:
    """The workload's checks; a report the checks cannot read fails the op."""
    try:
        return workload.check()
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"report unreadable: {type(exc).__name__}: {exc}"]


def run_untraced(workload: Workload, seconds: float) -> dict:
    env = child_env()
    samples = {"op_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        attempted += 1
        wall = cpu = rss = 0.0
        op_errors = []
        for args, out in workload.commands():
            w, c, r, code = launch([sys.executable, "-m", "faskit.cli", *args], workload.path(out), env)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if code != 0:
                with open(workload.path(out) + ".err") as handle:
                    op_errors.append(f"{args[0]} exited {code}: {handle.read().strip()[-300:]}")
                break
        if not op_errors:
            op_errors = checked(workload)
        if op_errors:
            failed += 1
            errors += op_errors
        samples["setup_s"].append(time_setup(workload, env))
        samples["op_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
    while len(samples["setup_s"]) < SETUP_REPEATS:
        samples["setup_s"].append(time_setup(workload, env))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return {
        "attempted": attempted, "failed": failed, "errors": errors,
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
    }


# ---------------------------------------------------------------------------
# traced: the same commands inside this process


def run_in_process(workload: Workload) -> tuple[float, int, list[str]]:
    """Run the op's commands through faskit.cli.main here: (wall s, stdout bytes, errors)."""
    from faskit import cli

    wall = 0.0
    size = 0
    for args, out in workload.commands():
        with open(workload.path(out), "w") as handle, contextlib.redirect_stdout(handle):
            start = time.perf_counter()
            try:
                cli.main.main(args=args, standalone_mode=False)
            except Exception as exc:  # the op failed; report it, keep the run going
                return wall, size, [f"{args[0]} raised {type(exc).__name__}: {exc}"]
            finally:
                wall += time.perf_counter() - start
        size += os.path.getsize(workload.path(out))
    return wall, size, []


def layer_metrics(tracer, op_spans, op_wall: float, report_bytes: int, rows: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced op from its spans."""
    self_time, inclusive, count = spans.attribute(op_spans)
    errors = []
    # attribute() splits each instant of the root "op" span among the open
    # leaves, so the layers' self times (the root's own share left out) sum
    # to at most its wall time by construction; this guards that split.
    total_self = sum(t for name, t in self_time.items() if name != "op")
    if total_self > op_wall * (1 + 1e-9):
        errors.append(f"layer self times sum to {total_self} s > traced op wall {op_wall} s")
    m = {name: inclusive.get(fn, 0.0) for name, fn in INCLUSIVE.items()}
    m["data.load_rows_per_s"] = rows / m["data.load_csv_s"] if m["data.load_csv_s"] else 0.0
    m["linalg.ols_calls"] = count.get("linalg.ols", 0)
    m["linalg.projection_basis_calls"] = count.get("linalg.projection_basis", 0)
    m["fas.identified_set_calls"] = count.get("fas.identified_set", 0)
    sweeps = [s for s in op_spans if s.name == "fas.estimate_specs"]
    m["fas.sweep_cpu_s"] = sum(s.cpu_end - s.cpu_start for s in sweeps)
    specs = count.get("specs.transform_instrument", 0)
    m["fas.specs_per_s"] = specs / m["fas.sweep_s"] if m["fas.sweep_s"] else 0.0
    m["cli.report_s"] = sum(self_time.get(f"cli.{fn}", 0.0) for fn in ("run", "oracle_report", "simulate_report"))
    m["cli.report_bytes"] = report_bytes
    screens = tracer.screens["sample"] or tracer.screens["population"]
    statuses = list(screens.values())
    m["fas.specs_failed"] = sum(s not in ("selected", "low-F") for s in statuses)
    m["fas.selected_share"] = statuses.count("selected") / len(statuses) if statuses else 0.0
    return m, errors


def run_traced(workload: Workload, seconds: float, trace_path: str) -> dict:
    import faskit.cli  # noqa: F401  (imports are not part of an op)

    tracer = spans.Tracer()
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    attempted = failed = 0
    errors: list[str] = []
    start = time.perf_counter()
    # one round = the op untraced, then traced, both in this process
    while attempted == 0 or time.perf_counter() - start < seconds:
        wall, _, op_errors = run_in_process(workload)
        op_errors = op_errors or checked(workload)

        tracer.op += 1
        tracer.screens = {"sample": {}, "population": {}}
        first = len(tracer.spans)
        tracer.install()
        try:
            root = tracer.open("op")
            try:
                traced_wall, size, traced_errors = run_in_process(workload)
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()
        traced_errors = traced_errors or checked(workload)
        m, harness_errors = layer_metrics(tracer, tracer.spans[first:], root.end - root.start, size, workload.rows)
        m["trace.op_s"] = traced_wall
        m["trace.overhead_s"] = traced_wall - wall
        for name in PER_LAYER:
            samples[name].append(m[name])
        for errs in (op_errors, traced_errors + harness_errors):
            attempted += 1
            if errs:
                failed += 1
                errors += errs
    tracer.dump(trace_path)
    return {
        "attempted": attempted, "failed": failed, "errors": errors,
        "metrics": {name: (statistics.median(samples[name]), unit) for name, unit in PER_LAYER.items()},
    }


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool, size: dict) -> dict:
    out_dir = os.path.join(BENCH, "out")
    work = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work, size)
        if traced:
            trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
            return run_traced(workload, seconds, trace_path)
        return run_untraced(workload, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summary_line(name: str, result: dict) -> str:
    parts = [f"{metric} {value:.6g} {unit}" for metric, (value, unit) in result["metrics"].items()]
    return f"{name}: attempted {result['attempted']} failed {result['failed']} | " + ", ".join(parts)


def result_json(results: dict[str, dict]) -> str:
    single = len(results) == 1
    metrics = {}
    for name, result in results.items():
        for metric, (value, unit) in result["metrics"].items():
            metrics[metric if single else f"{name}.{metric}"] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    })


def declared_mismatches() -> list[str]:
    """Differences between BENCHMARK.json and the workloads and metrics here."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    pairs = (
        ("workloads", [w["name"] for w in declared["workloads"]], list(WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"]) for m in declared["end_to_end"]], list(END_TO_END.items())),
        ("per_layer", [(m["name"], m["unit"]) for m in declared["per_layer"]], list(PER_LAYER.items())),
    )
    return [f"BENCHMARK.json {key}: {got} != {want}" for key, got, want in pairs if got != want]


def selftest() -> int:
    """Every workload at small size, one untraced and one traced round each."""
    mismatches = declared_mismatches()
    for message in mismatches:
        print(f"FAIL {message}")
    status = int(bool(mismatches))
    for name in WORKLOADS:
        for traced in (False, True):
            result = run_workload(name, 7, 0.0, traced, SMALL)
            mode = "traced" if traced else "untraced"
            ok = result["failed"] == 0
            status |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} ({mode}, {result['attempted']} ops)")
            for message in result["errors"][:10]:
                print(f"     {message}")
    print("selftest passed" if status == 0 else "selftest FAILED")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="small sizes, every workload, seconds")
    args = parser.parse_args()
    # on SIGTERM, unwind: kill the running op and delete the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "faskit", "cli.py")):
        print(f"error: no faskit sources under {SRC}; run from a faskit checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, SRC)
    if args.selftest:
        return selftest()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), FULL)
        print(summary_line(name, results[name]))
        for message in results[name]["errors"][:20]:
            print(f"  check failed: {message}")
    print(result_json(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
