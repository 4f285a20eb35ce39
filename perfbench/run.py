"""cbfctl benchmark: time to a certified result, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload adjoint3d --seed 1 --seconds 38 --trace 0

One process, one caller, no threads: certificates run back to back (closed
loop) for about ``--seconds`` seconds.  A certificate is started only while
the mean certificate time so far still fits in the budget, and at least one
always runs.  Every certificate is checked against its own tolerance; a miss,
or a solver giving up, counts as a failed certificate.

Every timing in the end-to-end metrics is normalized to the host's speed at
the time it was taken, by a fixed reference probe run about every 0.1 s in
between (see reference.py); the run record keeps the wall seconds beside it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
budget untraced and half with every cbfctl entry point wrapped (see
tracer.py), and prints the per-module metrics together with the tracing
overhead.  The last line of standard output is one JSON object; the
certificates' fingerprints and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import TRANSFORMS, Tracer  # no cbfctl import

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_REPEATS = 7
SETUP_REPEATS = 5

TRAJECTORY_ARITH = ("Trajectory.__add__", "Trajectory.__sub__", "Trajectory.__mul__")
STENCIL_BUILDS = ("PairStencil.__init__", "StateStencil.__init__")
APPLIES = ("PairStencil.apply", "PairStencil.apply_transpose", "StateStencil.apply")
OPT_CERTIFICATE = ("make_probe_bank", "vi_residual", "vi_scale", "ioc_ladder")
EXPERIMENT_IO = ("write_csv", "_write_summary", "write_trajectory", "write_line_chart")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_program():
    """Import cbfctl from this checkout's sources, single-threaded."""
    if not (SRC / "cbfctl" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cbfctl sources under {SRC}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import cbfctl

    if Path(cbfctl.__file__).resolve().parent != (SRC / "cbfctl").resolve():
        raise SystemExit(f"perfbench: imported cbfctl from {cbfctl.__file__}, not from {SRC}")
    return cbfctl


def import_seconds() -> float:
    """Normalized seconds a fresh interpreter takes to import cbfctl.

    The child probes the host just before the import and just after it, so
    interpreter start-up and exit are left out, and so is numpy, which the
    probe imports first: they cost the same for any version of cbfctl.
    """
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; from reference import Reference; "
        "reference = Reference(); reference.start(); import cbfctl; print(reference.stop()[0])"
    )
    here = str(Path(__file__).resolve().parent)
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), here], check=True, capture_output=True, text=True, timeout=60
    )
    return float(done.stdout)


def run_certificates(workload, case, tracer, reference, budget: float, first_id: int) -> list[dict]:
    """Certificates back to back while the mean time so far fits in ``budget``.

    ``reference`` probes the host at each certificate's start and end, and
    wherever the tracer's ``on_step`` asks for it in between.
    """
    from workloads import SOLVER_FAILURES, Outcome

    records: list[dict] = []
    start = time.perf_counter()
    tracer.install()
    try:
        while True:
            cert_id = first_id + len(records)
            tracer.begin(cert_id)
            reference.start()
            try:
                outcome = workload.certify(case)
            except SOLVER_FAILURES as exc:
                outcome = Outcome(False, {"error": f"{type(exc).__name__}: {exc}"})
            seconds, wall = reference.stop()
            tally = tracer.tallies[cert_id]
            records.append(
                {
                    "cert": cert_id,
                    "seconds": seconds,
                    "wall_s": wall,
                    "ok": outcome.ok,
                    "traced": tracer.spans_on,
                    "steps": int(tally["steps"]),
                    "sweeps": int(tally["sweeps"]),
                    **outcome.fingerprint,
                }
            )
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(records) > budget:
                return records
    finally:
        tracer.uninstall()


def per_layer_metrics(tracer, traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Per-module metrics of the traced certificates, per certificate unless the
    unit says otherwise, plus the two exact count cross-checks."""
    table, tot = tracer.span_table(), tracer.totals()
    n = len(traced)
    cert_seconds = sum(r["wall_s"] for r in traced)  # spans are wall time

    def calls(names):
        return sum(table[k]["calls"] for k in names)

    def secs(names, key="s"):
        return sum(table[k][key] for k in names)

    def per_call_us(names):
        c = calls(names)
        return secs(names) / c * 1e6 if c else 0.0

    iterations = tot["iterations"]
    trials = tracer.child_count("optimize", "ControlProblem.solve") - table["optimize"]["calls"]
    m = {
        "fields.transform.calls": (calls(TRANSFORMS) / n, "count"),
        "fields.to_physical.us": (per_call_us(TRANSFORMS[:1]), "us"),
        "fields.grad_physical.us": (per_call_us(TRANSFORMS[1:2]), "us"),
        "fields.from_physical.us": (per_call_us(TRANSFORMS[2:]), "us"),
        "fields.transform.s": (secs(TRANSFORMS) / n, "s"),
        "fields.transform.share": (secs(TRANSFORMS) / cert_seconds, "ratio"),
        "fields.fft_points": (tot["fft_points"] / n, "count"),
        "fields.bytes_computed": (tot["bytes_computed"] / n, "B"),
        "fields.norms.calls": (tot["norms.calls"] / n, "count"),
        "fields.inner_product.calls": (tot["inner_product.calls"] / n, "count"),
        "fields.trajectory_arith.calls": (calls(TRAJECTORY_ARITH) / n, "count"),
        "fields.trajectory_arith.s": (secs(TRAJECTORY_ARITH) / n, "s"),
        "operators.stencil.builds": (calls(STENCIL_BUILDS) / n, "count"),
        "operators.stencil_build.self_s": (secs(STENCIL_BUILDS, "self_s") / n, "s"),
        "operators.apply.calls": (calls(APPLIES) / n, "count"),
        "operators.apply.us": (per_call_us(APPLIES), "us"),
        "operators.apply.self_s": (secs(APPLIES, "self_s") / n, "s"),
        "state_solver.picard.calls": (tot["picard_calls"] / n, "count"),
        "state_solver.picard.sweeps": (tot["sweeps"] / n, "count"),
        "state_solver.sweeps_per_step.mean": (tot["sweeps"] / max(tot["picard_calls"], 1), "count"),
        "state_solver.sweeps_per_step.max": (tot["sweeps_max"], "count"),
        "state_solver.picard.self_s": (secs(["picard_solve"], "self_s") / n, "s"),
        "state_solver.step.us": (per_call_us(["picard_solve"]), "us"),
        "state_solver.solve_state.s": (secs(["solve_state"]) / n, "s"),
        "state_solver.solve_difference.s": (secs(["solve_difference"]) / n, "s"),
        "adjoint_solver.solve_adjoint.s": (secs(["solve_adjoint"]) / n, "s"),
        "adjoint_solver.solve_adjoint.self_s": (secs(["solve_adjoint"], "self_s") / n, "s"),
        "adjoint_solver.duality_residual.s": (secs(["duality_residual"]) / n, "s"),
        "optimizer.iterations": (iterations / n, "count"),
        "optimizer.trial_solves": (trials / n, "count"),
        "optimizer.accept_ratio": (iterations / trials if trials else 0.0, "ratio"),
        "optimizer.iter.s": (secs(["optimize"]) / iterations if iterations else 0.0, "s"),
        "optimizer.cost.s": (secs(["cost"]) / n, "s"),
        "optimizer.certificate.s": (secs(OPT_CERTIFICATE) / n, "s"),
        "harness.build_tracking_problem.s": (secs(["build_tracking_problem"]) / n, "s"),
        "experiments.io.s": (secs(EXPERIMENT_IO) / n, "s"),
        "experiments.io.bytes": (sum(r.get("io_bytes", 0) for r in traced) / n, "B"),
        "trace.overhead": (median_seconds(traced) / median_seconds(untraced), "ratio"),
    }
    checks = {
        "picard.calls == sum of nt over solves": (tot["picard_calls"], tot["steps"]),
        "apply.calls == picard.sweeps": (calls(APPLIES), tot["sweeps"]),
    }
    return m, checks


def median_seconds(records: list[dict], key: str = "seconds") -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    args = parse_args(argv)
    cbfctl = import_program()

    from reference import Reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    # Set-up time is process start to a ready case: the median import of
    # cbfctl in a fresh interpreter, plus the median set-up of the workload,
    # each normalized.  Set-up repeats from the same seed, keeping the last
    # case; each repeat starts from a fresh Grid, so its cached arrays are
    # rebuilt.  The previous case is dropped first so that peak memory holds
    # one case.
    reference = Reference()
    import_times = [import_seconds() for _ in range(IMPORT_REPEATS)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        case = None
        seconds, _, case = reference.measure(lambda: workload.setup(args.seed, str(OUT)))
        setup_times.append(seconds)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    checks: dict = {}
    if args.trace:
        counter = Tracer(cbfctl, spans=False, on_step=reference.tick)
        untraced = run_certificates(workload, case, counter, reference, args.seconds / 2, 0)
        # No probes between the ends of a traced certificate: they would land
        # inside its spans.
        tracer = Tracer(cbfctl, spans=True)
        traced = run_certificates(workload, case, tracer, reference, args.seconds / 2, len(untraced))
        metrics, checks = per_layer_metrics(tracer, traced, untraced)
        records = untraced + traced
        tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv")
    else:
        counter = Tracer(cbfctl, spans=False, on_step=reference.tick)
        records = run_certificates(workload, case, counter, reference, args.seconds, 0)
        metrics = {
            "setup_s": (setup_s, "s"),
            "cert_s": (median_seconds(records), "s"),
            "steps_per_s": (sum(r["steps"] for r in records) / sum(r["seconds"] for r in records), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    failed = sum(1 for r in records if not r["ok"])
    checks_ok = all(a == b for a, b in checks.values())
    correct = failed == 0 and checks_ok

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  certificates {len(records)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / len(records):.6g} ratio ({failed} of {len(records)} failed)")
    wall_median = median_seconds(records, "wall_s")
    print(f"  {'certificate wall-time median':40s} {wall_median:.6g} s over {len(records)} certificates")
    for name, (a, b) in checks.items():
        print(f"  check {name}: {a:.0f} vs {b:.0f} {'ok' if a == b else 'MISMATCH'}")
    for r in records:
        print("  cert " + json.dumps(r))

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "import_times": import_times,
        "setup_times": setup_times,
        "cert_wall_median_s": wall_median,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": {k: list(v) for k, v in checks.items()},
        "certificates": records,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, indent=1)

    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": run_record["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
