"""Desk-scale benchmark of hpmropt: PEARL, NSGA-II and random search on
scenario-3 with the proxy evaluator, each at a fixed evaluation budget.

    python3 perfbench/run.py --workload pearl-desk --seed 1 --seconds 20 \
        --trace 0 --hv-ref 1400 1.47

A timed run (``--trace 0``) first measures set-up in fresh interpreters, then
runs one trial per optimizer seed drawn from ``--seed`` and repeats those
seeds until ``--seconds`` have passed (at least one repeat).  Every trial is
checked: status ``clean``, a mutually non-dominated front, every exported
design re-evaluating to its exported objectives, and a byte-identical
``front.tsv`` from every same-seed repeat.  ``--trace 1`` instead alternates
untraced and traced trials of the first seed and reports per-layer numbers
and the tracing overhead.

The metric names and units come from BENCHMARK.json.  The last line of
standard output is the JSON result; a fuller record (per-trial rows and the
machine block) and the last traced trial's spans go to ``.perfbench/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5


def import_checkout() -> None:
    """Import hpmropt from this checkout's ``src`` and nowhere else."""
    package = SRC / "hpmropt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no hpmropt source at {package}")
    sys.path.insert(0, str(SRC))
    import hpmropt
    if Path(hpmropt.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported hpmropt from {hpmropt.__file__}")


def machine_block(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS),
            "seed": seed}


def measure_setup() -> dict:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return {
        "setup_s": statistics.median(s["import_s"] + s["evaluator_s"] for s in samples),
        "setup.import_s": statistics.median(s["import_s"] for s in samples),
        "setup.evaluator_s": statistics.median(s["evaluator_s"] for s in samples),
        "samples": samples,
    }


class Bench:
    def __init__(self, workload, reference):
        from hpmropt.economics import load_scenario
        from hpmropt.environment import DesignEvaluator
        from workloads import SCENARIO

        self.workload = workload
        self.reference = reference
        # fresh evaluator for the re-evaluation check, never the run's own
        self.checker = DesignEvaluator(load_scenario(SCENARIO))
        self.fronts: dict[int, bytes] = {}

    def trial(self, seed: int, probe) -> dict:
        """One timed optimizer run plus its output checks."""
        from checks import front_problems, hypervolume, objectives, read_front
        from hpmropt.errors import HpmroptError
        from hpmropt.runio import STATUS_CLEAN

        out = OUT / f"run-{self.workload.name}"
        shutil.rmtree(out, ignore_errors=True)
        probe.reset()
        status, problems = None, []
        with probe:
            start = time.perf_counter()
            try:
                status = self.workload.trial(seed, out)
            except Exception as exc:  # noqa: BLE001 - a failed run is data
                problems.append(f"run raised {exc!r}")
            wall = time.perf_counter() - start
        row = {"seed": seed, "wall_s": wall, "status": status,
               "evaluations": probe.count("environment.evaluate"),
               "failed_evaluations": probe.failures("environment.evaluate"),
               "skipped_updates": probe.extra["pearl.ppo_update.skipped"]}
        if status is not None and status != STATUS_CLEAN:
            problems.append(f"run status {status}")
        front = out / "front.tsv"
        if status is not None and not front.is_file():
            problems.append("no front.tsv written")
        elif status is not None:
            data = front.read_bytes()
            expected = self.fronts.setdefault(seed, data)
            if data != expected:
                problems.append("front.tsv differs from the first run of this seed")
            row["front_sha256"] = hashlib.sha256(data).hexdigest()
            try:
                rows = read_front(front)
                problems += front_problems(rows, self.checker)
                row.update(front_feasible=int(objectives(rows)[1].sum()),
                           hv=hypervolume(rows, self.reference))
            except (KeyError, ValueError, HpmroptError) as exc:
                problems.append(f"front.tsv failed its checks: {exc!r}")
        row["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        row["problems"] = problems
        shutil.rmtree(out, ignore_errors=True)
        return row

    def tally(self, trials) -> tuple[int, int]:
        """(evaluations attempted, failed).  A run that fails a check counts
        its whole budget as both."""
        attempted = failed = 0
        for t in trials:
            if t["problems"]:
                spent = max(t["evaluations"], self.workload.budget)
                attempted, failed = attempted + spent, failed + spent
            else:
                attempted += t["evaluations"]
                failed += t["failed_evaluations"] + t["skipped_updates"]
        return attempted, failed


def rate(trials) -> float:
    ok = [t["evaluations"] / t["wall_s"] for t in trials if not t["problems"]]
    return statistics.median(ok) if ok else 0.0


def timed_run(bench, seeds, seconds) -> tuple[dict, list]:
    from probe import Probe

    probe = Probe()
    start = time.perf_counter()
    trials = [bench.trial(s, probe) for s in seeds]
    quality = list(trials)
    typical = statistics.median(t["wall_s"] for t in trials)
    repeats = 0
    while repeats == 0 or time.perf_counter() - start + typical <= seconds:
        trials.append(bench.trial(seeds[repeats % len(seeds)], probe))
        repeats += 1
    values = {
        "evals_per_s": rate(trials),
        "hv": statistics.fmean(t.get("hv", 0.0) for t in quality),
        "front_feasible": statistics.fmean(t.get("front_feasible", 0) for t in quality),
        "evaluations": statistics.fmean(t["evaluations"] for t in quality),
    }
    return values, trials


def traced_run(bench, seeds, seconds, spans_path) -> tuple[dict, list]:
    from probe import TRACED, Probe

    seed = seeds[0]
    plain, tracer = Probe(), Probe(TRACED, spans=True)
    untraced, traced, per_trace = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start + untraced[-1]["wall_s"]
                         + traced[-1]["wall_s"] <= seconds):
        untraced.append(bench.trial(seed, plain))
        traced.append(bench.trial(seed, tracer))
        per_trace.append(layer_metrics(tracer, traced[-1], bench.workload.budget))
    tracer.write_spans(spans_path)   # the last traced trial's spans
    values = {name: statistics.fmean(m[name] for m in per_trace) for name in per_trace[0]}
    plain_rate, traced_rate = rate(untraced), rate(traced)
    values.update({
        "trace.evals_per_s_untraced": plain_rate,
        "trace.evals_per_s_traced": traced_rate,
        "trace.overhead_pct": 100.0 * (plain_rate - traced_rate) / plain_rate
        if plain_rate else 0.0,
    })
    return values, untraced + traced


def layer_metrics(tracer, trial, budget) -> dict:
    times = tracer.layer_times()
    values = {}
    for name, _module, _attr in tracer.layers:
        calls = tracer.count(name)
        inclusive, own = times[name]
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = own
        values[f"{name}.us"] = 1e6 * inclusive / calls if calls else 0.0
    extra = tracer.extra
    inserts = tracer.count("pareto.insert")
    cash_flows = tracer.count("economics.build_cash_flows")
    values.update({
        "pareto.insert.kept_frac": extra["pareto.insert.kept"] / inserts if inserts else 0.0,
        "pareto.nondominated_sort.points": extra["pareto.nondominated_sort.points"],
        "pearl.ppo_update.skipped": extra["pearl.ppo_update.skipped"],
        "environment.evaluate.failed": tracer.failures("environment.evaluate"),
        "economics.build_cash_flows.fuel_batches":
            extra["economics.build_cash_flows.fuel_batches"] / cash_flows
            if cash_flows else 0.0,
        "nsga2.dropped_duplicates": budget - trial["evaluations"],
        "runio.bytes_written": trial["bytes_written"],
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hv-ref", type=float, nargs=2, required=True,
                        metavar=("LCOE", "F_DH"),
                        help="fixed hypervolume reference point")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_checkout()
    from workloads import WORKLOADS, optimizer_seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    seeds = optimizer_seeds(workload, args.seed)
    bench = Bench(workload, reference=args.hv_ref)
    setup = measure_setup()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, trials = traced_run(bench, seeds, args.seconds,
                                    OUT / f"spans-{tag}.tsv")
        values.update({k: setup[k] for k in ("setup.import_s", "setup.evaluator_s")})
        listed = spec["per_layer"]
    else:
        values, trials = timed_run(bench, seeds, args.seconds)
        values["setup_s"] = setup["setup_s"]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        listed = spec["end_to_end"]

    attempted, failed = bench.tally(trials)
    values["success_frac"] = 1.0 - failed / attempted
    problems = sorted({p for t in trials for p in t["problems"]})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    machine = machine_block(args.seed)
    record = {**result, "workload": workload.name, "machine": machine,
              "optimizer_seeds": seeds, "hv_reference": args.hv_ref,
              "all_values": values, "setup_samples": setup["samples"],
              "problems": problems,
              "trials": trials}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 10:
        print(f"CHECK FAILED: ... and {len(problems) - 10} more (see the record)")
    print(f"{workload.name}: {len(trials)} trials, optimizer seeds {seeds}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    if "front_feasible" in values:
        # too seed-dependent to gate (see NOTES.md), so printed, not listed
        print(f"  {'front_feasible (not gated)':44s} {values['front_feasible']:>16.6g} count")
    print("machine " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
