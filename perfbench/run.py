"""Benchmark for revtori: two workloads driven through ``revtori.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload kam-flow --seed 1 --seconds 24 --trace 0

Everything runs in one process with one BLAS/OpenMP thread.  The load is a
closed loop with a single client: each solve starts when the previous one
ends, for ``--seconds`` seconds and at least once.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` makes a separate traced
run and reports the per-layer metrics.  Every solve's outputs are checked
against the acceptance bounds.  The full record (seed, generated overrides,
solve times, quality records, environment) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>/record.json`` and printed on
the second-to-last line of stdout; the last line is the result object.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Before numpy is first imported, here or in a set-up probe.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Half the set-up probes run before the solves and half after, so that the
# median samples the machine at different times.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

# Fresh-interpreter set-up probe: ready once the first solve could begin.
_PROBE = ("import sys; sys.path[:0] = {paths!r}; import workloads; "
          "workloads.setup(workloads.WORKLOADS[{name!r}]); "
          "print('ready', flush=True)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(name):
    """Wall time from launching an interpreter to the end of set-up."""
    code = _PROBE.format(paths=[str(ROOT / "src"), str(BENCH)], name=name)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {name} exited {proc.returncode}")
    return elapsed


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class Loop:
    """Closed loop of solves; keeps every solve's time and check outcome."""

    def __init__(self, cli, workload, inputs, out, tracer=None):
        self.cli = cli
        self.workload = workload
        self.commands = workload.commands(inputs)
        self.out = str(out)
        self.tracer = tracer
        self.quality = []
        self.failures = []
        self.attempted = 0

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main([*argv, "--json-summary", "--out", self.out])
        return code, buf.getvalue()

    def solve(self):
        """One timed solve; returns its wall time."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run = f"solve-{self.attempted}"
        outputs = []
        start = time.perf_counter()
        try:
            for argv in self.commands:
                if self.tracer is None:
                    outputs.append(self.call(argv))
                else:
                    with self.tracer.span("cli.main"):
                        outputs.append(self.call(argv))
        except Exception:
            traceback.print_exc()
            outputs = None
        elapsed = time.perf_counter() - start
        pause = self.tracer.pause() if self.tracer else contextlib.nullcontext()
        with pause:
            self._check(outputs)
        return elapsed

    def _check(self, outputs):
        problems = ["solve raised"] if outputs is None else [
            f"exit code {code}" for code, _ in outputs if code != 0]
        if not problems:
            try:
                quality, problems = self.workload.check(
                    [json.loads(text) for _, text in outputs])
                self.quality.append(quality)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
        if problems:
            self.failures.append({"solve": self.attempted, "problems": problems})
            print(f"perfbench: solve {self.attempted} failed: {problems}",
                  file=sys.stderr)

    def run_for(self, seconds):
        """Solve until ``seconds`` have passed, at least once; return times."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.solve())
        return times

    def worst_quality(self):
        worst = {}
        for record in self.quality:
            for key, value in record.items():
                pick = min if key == "fitted_order" else max
                worst[key] = value if key not in worst else pick(worst[key], value)
        return worst


def tail(times):
    """Highest percentile with ten samples beyond it, when there is one."""
    n = len(times)
    if n <= 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(times)[n - 11]}


def measure(workload, loop, seconds):
    """Untraced run: set-up probes around the solves; end-to-end metrics."""
    setup = [probe_setup(workload.name) for _ in range(SETUP_PROBES // 2)]
    import workloads
    workloads.setup(workload)
    for argv in workload.warmup:
        loop.call(argv)
    times = loop.run_for(seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += [probe_setup(workload.name)
              for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    metrics = {"setup_s": statistics.median(setup),
               "solve_s": statistics.median(times),
               "peak_rss_mb": peak_kib / 1024.0}
    return metrics, {"setup_samples": setup, "solve_times": times,
                     "solve_tail": tail(times)}


def measure_traced(workload, loop, seconds, tracer):
    """Traced run: untraced solves, then traced ones; per-layer metrics."""
    import tracing
    import workloads
    with tracer.span("cli.import"):
        workloads.import_modules(workload)
    tracer.install()
    try:
        workload.one_off()
    finally:
        tracer.uninstall()
    for argv in workload.warmup:
        loop.call(argv)
    untraced = loop.run_for(seconds / 2.0)
    first = loop.attempted + 1
    loop.tracer = tracer
    tracer.install()
    try:
        traced = loop.run_for(seconds / 2.0)
    finally:
        tracer.uninstall()
    runs = [f"solve-{i}" for i in range(first, loop.attempted + 1)]
    metrics = tracing.layer_metrics(tracer, runs, untraced, traced)
    return metrics, {"untraced_times": untraced, "traced_times": traced,
                     "absent": tracer.absent}


def _declared(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    args = _parse_args(argv)
    missing = [p for p in ("src/revtori/__init__.py", "configs", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: {ROOT} lacks {', '.join(missing)}; run it from a "
              "revtori checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(workload, args.seed)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out = BENCH / "out" / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    from revtori import cli
    loop = Loop(cli, workload, inputs, out / "runs")
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        metrics, detail = measure_traced(workload, loop, args.seconds, tracer)
        (out / "spans.json").write_text(json.dumps(tracer.dump()))
        declared = _declared("per_layer")
    else:
        metrics, detail = measure(workload, loop, args.seconds)
        declared = _declared("end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match "
                         f"BENCHMARK.json {sorted(declared)}")

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs": inputs,
              "commands": loop.commands, "metrics": metrics,
              "quality": loop.worst_quality(), "failures": loop.failures,
              "environment": environment(), **detail}
    (out / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": not loop.failures, "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
