"""zmcsurf benchmark runner: one closed-loop caller, one process, one thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {representations,closed_forms,mesh_io}
                             --seed N --seconds S --trace {0,1}
                             [--inject {vertex,report}]

The seed draws every input (``inputs.py``); the program only sees the
generated inputs.  The run times one set-up in several fresh processes
(``setup_s``, median), builds the inputs, runs one warm-up pass, then repeats
passes over the workload's operations until ``--seconds`` have elapsed.  Each
operation's outputs are checked against closed-form oracles after its timed
call returns (``workloads.py``, ``oracles.py``).

Every timed operation and every set-up is followed by a fixed reference kernel
(``reference.py``), and its time is rescaled to the kernel's nominal speed, so
that the shared host's drifting speed cancels out.  ``--trace 0`` reports the
end-to-end metrics: ``scaled_wall_s`` (median rescaled pass time, checks
excluded), ``setup_s`` (median rescaled set-up) and ``peak_rss_mb``; the raw
medians are printed above the result line.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones (``tracing.py``) together with ``trace_overhead_frac``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; ``fail_frac`` and ``invalid_frac``, the seed, the generated
inputs and the environment go to the lines above it and to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.  Exit status: 0 when every
check passed, 1 when any failed, 2 when the program cannot be imported.

``--inject`` is the negative control: it perturbs one vertex of, or corrupts
the ``points_checked`` of, one output before its check, which must make the
run exit 1.
"""

import os

# One thread everywhere, before numpy can start a pool; the tests' ZMC_THREADS
# knob stays unset so identity sweeps run their serial path.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ZMC_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9

# (name, unit, better, bound) of the metrics an untraced run prints.
END_TO_END = [
    ("scaled_wall_s", "s", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]


def import_program():
    """Import zmcsurf from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import zmcsurf
    except ImportError as exc:
        print(f"cannot import zmcsurf from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(zmcsurf.__file__).resolve().is_relative_to(src.resolve()):
        print(f"zmcsurf imported from {zmcsurf.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return zmcsurf


def setup_seconds(workload, seed):
    """One set-up timed in a fresh process: (raw seconds, rescaled seconds)."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_s"] * probe["ref_nominal_s"] / probe["ref_s"]


def corrupt(out, kind):
    """Negative control: damage the first vertex, height or report count in ``out``."""
    from zmcsurf import SurfacePatch, VerificationReport
    items = out if isinstance(out, tuple) else (out,)
    for item in items:
        if kind == "vertex" and isinstance(item, SurfacePatch):
            item.points[int(item.valid.argmax()), 2] += 1e-6
            return True
        if kind == "vertex" and isinstance(item, list):
            item[0] += 1e-6
            return True
        if kind == "report" and isinstance(item, VerificationReport):
            item.points_checked += 1
            return True
    return False


class Checks:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self, inject):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pending_inject = inject

    def run_pass(self, ops, tally):
        """Run every operation once.

        Returns the seconds spent inside program calls, raw and rescaled by
        the reference kernel timed right after each call.
        """
        busy = ref = 0.0
        for op in ops:
            start = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raised error is a failed operation, not a crash
                busy += perf_counter() - start
                ref += reference.seconds()
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                busy += perf_counter() - start
                ref += reference.seconds()
                if self.pending_inject and corrupt(out, self.pending_inject):
                    self.pending_inject = None
                problems = op.check(out, tally)
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{op.name}: {'; '.join(problems)}")
        return busy, busy * reference.NOMINAL_S * len(ops) / ref


def environment():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "machine": platform.machine()}


def measure(args, ops, checks, tally, tracer):
    """Warm up, then alternate passes until ``args.seconds`` have elapsed.

    Returns untraced and traced (raw, rescaled) pass times, per-pass layer
    metrics and (raw, rescaled) set-up samples.  Set-up probes are spread
    over the untraced run so that they see the same machine conditions as the
    passes.
    """
    checks.run_pass(ops, tally)  # warm-up: lazy caches fill; outputs are still checked
    plain, traced, layer_rows, setup = [], [], [], []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or not plain or (tracer and not traced):
        if not tracer and len(setup) < SETUP_PROBES:
            setup.append(setup_seconds(args.workload, args.seed))
        if tracer and len(traced) < len(plain):
            tracer.install(len(traced) + 1)
            try:
                times = checks.run_pass(ops, tally)
            finally:
                tracer.uninstall()
            traced.append(times)
            layer_rows.append(tracing.pass_metrics(tracer, times[0]))
        else:
            plain.append(checks.run_pass(ops, tally))
    return plain, traced, layer_rows, setup


def raw_median(samples):
    return statistics.median(raw for raw, _ in samples)


def scaled_median(samples):
    return statistics.median(scaled for _, scaled in samples)


def traced_metrics(layer_rows, plain, traced, build, tally):
    """Per-layer metrics: medians over traced passes, plus set-up and check figures."""
    m = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
    parse_calls, parse_s, build_s = build
    m["trace_overhead_frac"] = scaled_median(traced) / scaled_median(plain) - 1
    m["expr.parse.calls"] = parse_calls
    m["expr.parse.setup_frac"] = parse_s / build_s
    m["meshio.invalid.points"] = tally.invalid_points
    m["meshio.invalid_frac"] = tally.invalid_frac()
    m["meshio.roundtrip.max_abs_err"] = tally.accuracy.get("meshio.roundtrip", (0.0,))[0]
    for family in tracing.ACCURACY_FAMILIES:
        err, ratio = tally.accuracy.get(family, (0.0, 0.0))
        m[f"{family}.max_abs_err"], m[f"{family}.err_to_tol"] = err, ratio
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=("vertex", "report"))
    args = ap.parse_args(argv)

    zmcsurf = import_program()
    if args.workload not in inputs.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {inputs.WORKLOADS}")

    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = inputs.make_spec(args.workload, args.seed)
        tracer = tracing.Tracer(zmcsurf) if args.trace else None
        start = perf_counter()
        if tracer:
            tracer.install(0)  # run 0 is the in-process set-up
        try:
            objs = inputs.build(args.workload, spec)
        finally:
            if tracer:
                tracer.uninstall()
        build_s = perf_counter() - start
        ops = workloads.OPS[args.workload](spec, objs, str(workdir))
        checks, tally = Checks(args.inject), workloads.Tally()
        plain, traced, layer_rows, setup = measure(args, ops, checks, tally, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if checks.pending_inject:
        print(f"--inject {args.inject}: workload {args.workload} has no such output",
              file=sys.stderr)
        return 2

    if tracer:
        metrics = traced_metrics(layer_rows, plain, traced,
                                 (tracer.calls["expr.parse"], tracer.incl_s["expr.parse"], build_s),
                                 tally)
        table = tracing.PER_LAYER
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {"scaled_wall_s": scaled_median(plain), "setup_s": scaled_median(setup),
                   "peak_rss_mb": peak_rss_mb}
        table = END_TO_END
    units = {name: unit for name, unit, *_ in table}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and table disagree: {set(metrics) ^ set(units)}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    fail_frac = checks.failed / checks.attempted
    env = environment()
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": spec,
              "passes": {"untraced_raw_scaled_s": plain, "traced_raw_scaled_s": traced},
              "setup_samples_raw_scaled_s": setup,
              "fail_frac": fail_frac, "invalid_frac": tally.invalid_frac(),
              "accuracy": {k: {"max_abs_err": v[0], "err_to_tol": v[1]}
                           for k, v in tally.accuracy.items()},
              "raised": {f"{n}:{t}": c for (n, t), c in tracer.raised.items()} if tracer else {},
              "problems": checks.problems, "result": result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")

    print(f"# zmcsurf benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"loadavg={env['loadavg'][0]:.2f}")
    print(f"# passes: {len(plain)} untraced, {len(traced)} traced; "
          f"operations {checks.attempted}, failed {checks.failed}")
    print(f"# raw wall_s = {raw_median(plain):.6g} s")
    if setup:
        print(f"# raw setup_s = {raw_median(setup):.6g} s")
    print(f"# fail_frac = {fail_frac:.6g} frac")
    print(f"# invalid_frac = {tally.invalid_frac():.6g} frac")
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for line in checks.problems:
        print(f"# FAIL {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
