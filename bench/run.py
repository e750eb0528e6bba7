"""Benchmark for sgw: seeded workloads, end-to-end metrics and traced layers.

    python3 bench/run.py --workload chi_cycles --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32

``--trace 0`` measures the end-to-end metrics: set-up in fresh interpreters,
then rounds over the workload's operations for ``--seconds`` seconds, every answer
checked.  ``--trace 1`` makes one traced run instead and reports per-layer
metrics (see tracer.py).  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a record
with the environment, per-operation rows and spans goes to ``.bench_out/``.
``--workload all`` runs every workload in turn and prints one table.

Everything runs in one single-threaded process; set-up samples run in
child interpreters one after another.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# listed here, not read from workloads.py, because importing that module
# imports sgw, which must happen inside the timed set-up
WORKLOADS = ("chi_cycles", "decompose", "chi_sparse")
SETUP_SAMPLES = 5  # at least this many fresh interpreters timed per run...
SETUP_SECONDS = 3.0  # ...and more until this long has gone by
CHILD_TIMEOUT_S = 170

END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

sys.path.insert(0, str(SRC))


def environment() -> dict:
    sources = sorted((SRC / "sgw").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sgw_commit": _git_commit(),
        "sgw_source_sha256": digest.hexdigest(),
        "SGW_THREADS": os.environ.get("SGW_THREADS"),
    }


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- set-up -------------------------------------------------------------


def timed_setup(workload: str):
    """Import sgw and warm its lazy tables; returns (seconds, workloads module)."""
    start = time.perf_counter()
    import sgw
    import workloads

    workloads.warm_up(workload)
    elapsed = time.perf_counter() - start
    if Path(sgw.__file__).resolve().parent != SRC / "sgw":
        raise SystemExit(f"sgw imported from {sgw.__file__}, not from {SRC}")
    return elapsed, workloads


def child_setup(workload: str) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-child", workload],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.split()[-1])


# -- host gauge -------------------------------------------------------

# The shared host's speed moves by up to 30 % for minutes at a time, and
# every timing moves with it (NOTES.md, Noise).  A fixed pure-Python loop,
# timed before every set-up sample and every operation, measures that
# speed.  The end-to-end times are scaled by GAUGE_NOMINAL_S over the
# loop's median in the run, so they read as seconds on a host where the
# loop takes GAUGE_NOMINAL_S.  The unscaled times are kept in the record.
GAUGE_NOMINAL_S = 0.0065  # the loop's median on a 2-vCPU VM, Python 3.11.7
_GAUGE_TABLE = [0] * 64


def gauge() -> float:
    """Seconds for the fixed loop.

    It calls no sgw code and allocates no container, so neither the library
    nor the garbage collector can change its time.  A thread left running
    by the library could, so the process must have no other thread.
    """
    if threading.active_count() > 1:
        raise SystemExit("a thread outlived an operation; the host gauge needs a single thread")
    table = _GAUGE_TABLE
    start = time.perf_counter()
    for i in range(50_000):
        k = i & 63
        table[k] = (table[k] + i) % 65521
    return time.perf_counter() - start


# -- operations -------------------------------------------------------


def run_op(op, op_id=None, tracer=None) -> dict:
    """Run one operation; time the library calls, then check the answer.

    The row's status is "ok", "wrong" (the answer failed its check, or the
    check could not run) or "error" (the operation raised).  Elapsed time
    is kept in every case.
    """
    error = None
    if tracer is not None:
        tracer.begin(op_id)
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # counted below; the run goes on
        out, error = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        elapsed = tracer.end()
    if error is not None:
        status = "error"
    else:
        try:
            status = "ok" if op.check(out) else "wrong"
        except Exception as exc:  # a check that cannot run is a wrong answer
            status, error = "wrong", exc
    message = None if error is None else f"{type(error).__name__}: {str(error)[:120]}"
    return {"op": op.label, "elapsed_s": elapsed, "status": status, "error": message}


def run_pass(ops, tracer=None) -> list[dict]:
    """Run every operation once, in order."""
    return [run_op(op, i, tracer) for i, op in enumerate(ops)]


def tally(rows) -> tuple[int, int, bool]:
    """(executions, failed executions, correct).

    Every status but "ok" is a failure, and any failure makes the run
    incorrect: no operation of a workload fails today.
    """
    failed = sum(1 for row in rows if row["status"] != "ok")
    return len(rows), failed, failed == 0


def _failed_ops(rows) -> set[str]:
    """Operations that failed in any of ``rows``."""
    return {row["op"] for row in rows if row["status"] != "ok"}


def _quantile(values, q: int) -> float:
    """The q-th percentile (q a multiple of 10) of ``values``, interpolated."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def measure(workload: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Set-up samples, then the workload's operations in turn for ``seconds``.

    The operations run round after round, in order, and stop at the first
    operation boundary after ``seconds``, so the last round may be partial;
    the first round is always whole.  An operation's latency is its median
    over its executions.  run_s, the time of one warm pass, is the sum of
    those medians; the percentiles are taken across operations.  Every
    time metric is scaled by the host gauge's reading over the run.
    """
    setup_s, wl = timed_setup(workload)
    setups = [setup_s]
    gauges = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_SAMPLES or time.perf_counter() < deadline:
        gauges.append(gauge())
        setups.append(child_setup(workload))
    ops = wl.build(workload, seed, smoke)
    rows = []
    start = time.perf_counter()
    while len(rows) < len(ops) or time.perf_counter() - start < seconds:
        i = len(rows) % len(ops)
        gauges.append(gauge())
        rows.append(run_op(ops[i], i))
    executions, failed, correct = tally(rows)
    failed_ops = _failed_ops(rows)
    samples = [rows[i::len(ops)] for i in range(len(ops))]
    latency = [statistics.median(row["elapsed_s"] for row in op_rows) for op_rows in samples]
    unscaled = {
        "setup_s": statistics.median(setups),
        "run_s": sum(latency),
        "op_p50_s": _quantile(latency, 50),
        "op_p90_s": _quantile(latency, 90),
    }
    scale = GAUGE_NOMINAL_S / statistics.median(gauges)
    values = {
        **{name: value * scale for name, value in unscaled.items()},
        "ok_ratio": 1 - len(failed_ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {
        "correct": correct,
        "attempted": executions,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
        "detail": {
            "setup_samples_s": setups,
            "unscaled_s": unscaled,
            "gauge_scale": scale,
            "gauge_s": gauges,
            "rounds": executions / len(ops),
            "fail_ratio": len(failed_ops) / len(ops),
            "ops": [
                {"op": op.label, "latency_s": latency[i], "executions": len(samples[i]),
                 "statuses": sorted({row["status"] for row in samples[i]}),
                 "errors": sorted({row["error"] for row in samples[i] if row["error"]})}
                for i, op in enumerate(ops)
            ],
        },
    }


def measure_traced(workload: str, seed: int, smoke: bool = False) -> dict:
    """Traced set-up, then an untraced, a traced and another untraced pass.

    trace_overhead compares the traced pass with the mean of the untraced
    passes on either side of it, so that drift during the run cancels.
    Last, untraced, the known-defect probe runs (workloads.recursion_probe).
    """
    import workloads as wl
    from tracer import FUNCTIONS, SPAN_FIELDS, Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin("setup")
    wl.warm_up(workload)
    tracer.end()
    ops = wl.build(workload, seed, smoke)
    tracer.uninstall()
    before = run_pass(ops)
    tracer.install()
    try:
        traced = run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    after = run_pass(ops)
    probe = wl.recursion_probe()
    attempted, failed, correct = tally(before + traced + after)
    correct = correct and probe is not None
    failed_ops = _failed_ops(before + traced + after)
    plain_s = (sum(r["elapsed_s"] for r in before) + sum(r["elapsed_s"] for r in after)) / 2
    traced_s = sum(r["elapsed_s"] for r in traced)
    calls, self_s = tracer.totals()
    setup_calls, _ = tracer.totals(lambda op: op == "setup")
    _, pass_self_s = tracer.totals(lambda op: op != "setup")
    values = {}
    for name in FUNCTIONS:
        values[f"{name}.calls"] = (calls[name], "count")
        values[f"{name}.self_s"] = (self_s[name], "s")
    values["homomorphism.chromatic_number.raised"] = (tracer.raised["homomorphism.chromatic_number"], "count")
    values["homomorphism.find_homomorphism.raised"] = (tracer.raised["homomorphism.find_homomorphism"], "count")
    values["homomorphism.orders_refuted"] = (tracer.orders_refuted, "count")
    values["homomorphism.targets_refuted"] = (tracer.targets_refuted, "count")
    values["known_defect.grid32_recursion_error"] = (int(bool(probe)), "count")
    values["setup.switching.canonical_form.calls"] = (setup_calls["switching.canonical_form"], "count")
    values["trace_overhead"] = (traced_s / plain_s, "ratio")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        "detail": {
            "rounds": 3,
            "fail_ratio": len(failed_ops) / len(ops),
            "untraced_run_s": plain_s,
            "traced_run_s": traced_s,
            # the traced pass alone; the ROOT entry is the operations' own time
            "pass_self_s": pass_self_s,
            "ops": [{"op": b["op"], "untraced_s": (a["elapsed_s"] + c["elapsed_s"]) / 2,
                     "traced_s": b["elapsed_s"], "status": b["status"], "error": b["error"]}
                    for a, b, c in zip(before, traced, after)],
            "spans": {"fields": SPAN_FIELDS, "rows": tracer.spans},
        },
    }


# -- output -------------------------------------------------------------


def write_record(workload: str, seed: int, trace: int, result: dict, env: dict):
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, "env": env, **result}
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, default=list) + "\n")
    return path


def print_table(result: dict):
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own interpreter, one after another, as one table."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        last = proc.stdout.strip().splitlines()[-1:]
        if not last or not last[0].startswith("{"):  # no result: it crashed
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        rows.append((workload, json.loads(last[0])))
    print(json.dumps(environment()))
    header = ["workload", "setup_s [s]", "run_s [s]", "op_p50_s [s]", "op_p90_s [s]",
              "fail_ratio [ratio]", "peak_rss_mb [MB]", "correct"]
    print(" | ".join(header))
    for workload, result in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        cells = [workload] + [f"{m[k]:.4g}" for k in ("setup_s", "run_s", "op_p50_s", "op_p90_s")]
        cells += [f"{1 - m['ok_ratio']:.4g}", f"{m['peak_rss_mb']:.4g}",
                  str(result["correct"])]
        print(" | ".join(cells))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # measure the library's default one-thread path of verify._run_entries
    os.environ.pop("SGW_THREADS", None)

    if args.setup_child:
        print(timed_setup(args.setup_child)[0])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    env = environment()
    path = write_record(args.workload, args.seed, args.trace, result, env)
    print(json.dumps(env))
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={result['detail']['rounds']:.3g} fail_ratio={result['detail']['fail_ratio']:.4g} "
          f"record={path.relative_to(ROOT)}")
    if "gauge_scale" in result["detail"]:
        print(f"host gauge scale={result['detail']['gauge_scale']:.4g}; the times below are scaled by it")
    print_table(result)
    del result["detail"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
