"""Benchmark for the sinkeq command line, driven in-process.

    python3 perfbench/run.py --workload radio-analyze --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each op calls ``sinkeq.cli.main(argv)`` with stdout captured, in one
single-threaded process (a closed loop with one client).  Every report is
checked against an independent oracle (``oracle.py``) and against the first
report of the same op, byte for byte.  ``--trace 0`` times the ops, each
followed by a host-speed calibration loop (``hostspeed.py``), and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops and
prints per-layer self times and counts from the outside-in tracer
(``tracer.py``).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own process and prints every metric as a table.

Inputs and records are written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with two threads the dense
# stationary solve on random-sink varied twice as much from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import pickle
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracer import TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench")
WORKLOAD_NAMES = ("radio-analyze", "random-sink", "covering-mc")

SETUP_REPEATS = 5  # at least; cheap set-ups repeat until SETUP_MIN_S is spent
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 2.0
WARMUP_OPS = 2
P75_MIN_OPS = 40  # op_s.p75 is printed only with ten samples above it
MAX_MEASURE_S = 120.0  # a traced run may overrun --seconds to cover the pool


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_seconds() -> float:
    """Time ``import sinkeq`` in a fresh interpreter, as a CLI user pays it."""
    code = "import time; t = time.perf_counter(); import sinkeq; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": "src"}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.strip())


def _run_op(cli, commands: list[list[str]]) -> tuple[float, list[str], str | None]:
    """Run one op's CLI commands; return its wall time, stdouts and any error."""
    outputs = []
    error = None
    err = io.StringIO()
    start = time.perf_counter()
    try:
        for argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs.append(buf.getvalue())
            if code != 0:
                error = f"{argv[0]} exited {code}: {err.getvalue().strip()}"
                break
    except Exception as exc:  # a crash is a failed op, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outputs, error


class Checker:
    """Oracle check on the first report of each op key, byte identity after."""

    def __init__(self, oracle_check):
        self.oracle_check = oracle_check
        self.first: dict[int, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, op: int, key: int, outputs: list[str], error: str | None) -> bool:
        self.attempted += 1
        if error is None and key in self.first:
            problems = [] if outputs == self.first[key] else ["report differs from the first run of this op"]
        elif error is None:
            problems = self.oracle_check(key, outputs)
            if not problems:
                self.first[key] = outputs
        else:
            problems = [error]
        if problems:
            self.failed += 1
            self.problems += [f"op {op} (pool entry {key}): {p}" for p in problems[:3]]
        return not problems

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first):
            for out in self.first[key]:
                h.update(f"{key}:{len(out)}:".encode())
                h.update(out.encode())
        return h.hexdigest()


def _environment() -> dict:
    version = importlib.metadata.version
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "networkx": version("networkx"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def _setup(workload, seed: int, workdir: Path) -> tuple[float, dict, list]:
    """Import sinkeq and generate and write the inputs several times.

    Returns the median set-up time, each repetition scaled to the reference
    host speed by the interpreter loop timed right after it (set-up is
    interpreter work on every workload), a record of each repetition, and
    the inputs.
    """
    scaled, digests = [], set()
    imports, generates, cals = [], [], []
    reference = hostspeed.REFERENCE_S["interpreter"]
    while len(scaled) < SETUP_REPEATS or (
        sum(imports) + sum(generates) < SETUP_MIN_S and len(scaled) < SETUP_MAX_REPEATS
    ):
        imports.append(_import_seconds())
        start = time.perf_counter()
        inputs = workload.generate(seed, workdir)
        generates.append(time.perf_counter() - start)
        cals.append(hostspeed.interpreter())
        scaled.append((imports[-1] + generates[-1]) * reference / cals[-1])
        h = hashlib.sha256()
        for item in inputs:  # game files, or seeds
            h.update(item.read_bytes() if isinstance(item, Path) else item.encode())
        digests.add(h.hexdigest())
    if len(digests) != 1:
        raise RuntimeError("the same seed generated different inputs")
    record = {
        "import_s": imports,
        "generate_s": generates,
        "calibration_s": cals,
        "inputs_sha256": digests.pop(),
    }
    return _median(scaled), record, inputs


class _Oracle:
    """A child interpreter that builds the workload's oracle and checks
    reports against it; nothing of the oracle enters this process.  It is a
    plain subprocess, not a multiprocessing pool, so that it leaves no
    helper process behind."""

    TIMEOUT_S = 150

    def __init__(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "import workloads; workloads.serve()"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        )

    def call(self, name: str, *args):
        """Run ``workloads.serve``'s function ``name`` in the child."""
        pickle.dump((name, args), self.proc.stdin)
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], self.TIMEOUT_S)[0]:
            raise TimeoutError(f"oracle gave no answer to {name} in {self.TIMEOUT_S} s")
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError(f"oracle process exited during {name}") from None

    def close(self) -> None:
        """End the child and wait for it, whatever state it is in."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@contextlib.contextmanager
def _oracle(workload):
    child = _Oracle()
    try:
        child.call("load_reference", workload)  # returns once the oracle is built
        yield child
    finally:
        child.close()


def _warm_up(cli, workload, check) -> int:
    """Run the untimed warm-up ops; return the index of the next op."""
    for op in range(WARMUP_OPS):
        _, outputs, error = _run_op(cli, workload.commands(op % workload.pool))
        check(op, op % workload.pool, outputs, error)
    return WARMUP_OPS


def _measure(cli, workload, check, seconds: float, calibrate) -> tuple[list[float], list[float]]:
    """Time ops for ``seconds``; each op's wall time and the time of the
    ``calibrate`` loop right after it."""
    times, cals = [], []
    op = _warm_up(cli, workload, check)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        key = op % workload.pool
        elapsed, outputs, error = _run_op(cli, workload.commands(key))
        cal = calibrate()
        if check(op, key, outputs, error):
            times.append(elapsed)
            cals.append(cal)
        op += 1
    return times, cals


def _measure_traced(cli, workload, check, seconds: float, tracer) -> dict:
    """Alternate an untraced and a traced run of each op; per-layer stats."""
    plain, traced, per_op = [], [], []
    op = _warm_up(cli, workload, check)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < workload.pool:
        if time.perf_counter() - start > MAX_MEASURE_S:
            break
        key = op % workload.pool
        elapsed, outputs, error = _run_op(cli, workload.commands(key))
        ok = check(op, key, outputs, error)
        first = len(tracer.spans)
        with tracer.active(op):
            elapsed_traced, outputs, error = _run_op(cli, workload.commands(key))
        if check(op, key, outputs, error) and ok:
            plain.append(elapsed)
            traced.append(elapsed_traced)
            per_op.append({"key": key, **_op_layers(tracer, tracer.spans[first:], outputs)})
        tracer.release_io(first)
        op += 1
    return {"plain": plain, "traced": traced, "per_op": per_op}


def _op_layers(tracer, spans, outputs) -> dict:
    """Self time and calls per traced function in one op, plus counters."""
    import oracle  # its scipy loads only in traced runs, which report no RSS

    self_s, calls = {}, {}
    matrices = {}

    def matrix(bound):
        game = bound.arguments["game"]
        key = (id(game), bound.arguments["mode"], bound.arguments["tie_tol"])
        if key not in matrices:
            matrices[key] = oracle.response_matrix(
                game.action_counts, game.utilities, key[1], key[2]
            )
        return matrices[key]

    edges = states = 0
    residual = 0.0
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + tracer.self_time(span)
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.args is None:
            continue
        if span.name == "dynamics.build_kernel":
            edges += matrix(span.args).nnz
        elif span.name == "sinks.stationary_distribution":
            states += len(span.args.arguments["support"])
        elif span.name == "sinks.sink_equilibria":
            P = matrix(span.args)
            for eq in span.result:
                residual = max(residual, oracle.residual(P, eq.support, eq.probabilities))
    return {
        "self_s": self_s,
        "calls": calls,
        "edges": edges,
        "states": states,
        "residual": residual,
        "stdout_bytes": sum(len(out.encode()) for out in outputs),
    }


def _layer_metrics(result: dict) -> tuple[dict, list[str]]:
    """Times are medians over traced ops.  Counts are means over the pool
    entries, one op each, so they repeat exactly for a seed."""
    per_op = result["per_op"]
    per_key = list({op["key"]: op for op in reversed(per_op)}.values())

    def count(field):
        return statistics.fmean(field(op) for op in per_key)

    table = []
    layer = {}
    op_p50 = _median(result["traced"])
    for name in TRACED:
        selfs = [op["self_s"].get(name, 0.0) for op in per_op]
        calls = count(lambda op: op["calls"].get(name, 0))
        layer[name] = (_median(selfs), calls)
        if calls:
            table.append(
                f"layer {name:40s} self_s {_median(selfs):.6f}  calls/op {calls:g}  "
                f"share {_median(selfs) / op_p50:.3f}"
            )
    metrics = {}
    for name in TRACED:  # 0 for a function this workload does not call
        metrics[f"{name}.self_s"] = {"value": layer[name][0], "unit": "s"}
        metrics[f"{name}.calls"] = {"value": layer[name][1], "unit": "count"}
    kernel_self = [op["self_s"].get("dynamics.build_kernel", 0.0) for op in per_op]
    ns_per_edge = [1e9 * t / op["edges"] for t, op in zip(kernel_self, per_op) if op["edges"]]
    metrics["dynamics.build_kernel.ns_per_edge"] = {"value": _median(ns_per_edge), "unit": "ns"}
    metrics["sinks.stationary_distribution.states"] = {
        "value": count(lambda op: op["states"]), "unit": "count"
    }
    metrics["sinks.stationary_distribution.residual_max"] = {
        "value": max(op["residual"] for op in per_op), "unit": "1"
    }
    metrics["cli.stdout_bytes"] = {"value": count(lambda op: op["stdout_bytes"]), "unit": "bytes"}
    metrics["trace.overhead_ratio"] = {
        "value": op_p50 / _median(result["plain"]), "unit": "ratio"
    }
    return metrics, table


def run_one(args) -> int:
    spec = importlib.util.find_spec("sinkeq")
    if spec is None or Path(spec.origin).resolve().parent != (ROOT / "src" / "sinkeq").resolve():
        print(f"error: sinkeq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import sinkeq.cli as cli
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workdir = WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    setup_s, setup_record, inputs = _setup(workload, args.seed, workdir)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "setup": setup_record,
    }
    lines = []
    extra = {}  # printed and recorded, but not in the JSON result
    with _oracle(workload) as oracle:
        check = Checker(
            lambda key, outputs: oracle.call("check_report", key, outputs)
        )
        if args.trace:
            tracer = Tracer(
                keep_io=("dynamics.build_kernel", "sinks.stationary_distribution", "sinks.sink_equilibria")
            )
            record["traced_functions"] = tracer.install()
            tracer.uninstall()
            result = _measure_traced(cli, workload, check, args.seconds, tracer)
            if not result["traced"]:
                metrics, table = {}, []
            else:
                metrics, table = _layer_metrics(result)
            lines += table
            lines.append(
                f"traced ops: {len(result['traced'])}, each also run untraced; op_s.p50 "
                f"{_median(result['plain']):.4f} s untraced, {_median(result['traced']):.4f} s traced"
            )
            spans_path = workdir / "spans.json"
            spans_path.write_text(json.dumps(tracer.dump()))
            record["spans_file"] = str(spans_path)
            record["op_s"] = {"untraced": result["plain"], "traced": result["traced"]}
        else:
            if workload.calibration == "blas":  # its 32 MB matrix stays out of peak_rss_mb
                calibrate = lambda: oracle.call("blas")  # noqa: E731
            else:
                calibrate = hostspeed.interpreter
            times, cals = _measure(cli, workload, check, args.seconds, calibrate)
            reference = hostspeed.REFERENCE_S[workload.calibration]
            scaled = [t * reference / c for t, c in zip(times, cals)]
            record["op_s"] = times
            record["calibration_s"] = cals
            metrics = {}
            if times:
                metrics = {
                    "op_ref_s.p50": {"value": statistics.median(scaled), "unit": "s"},
                    "peak_rss_mb": {
                        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB",
                    },
                    "setup_s": {"value": setup_s, "unit": "s"},
                }
                extra["op_s.p50"] = {"value": statistics.median(times), "unit": "s"}
                if len(times) >= P75_MIN_OPS:
                    for name, values in (("op_s.p75", times), ("op_ref_s.p75", scaled)):
                        p75 = statistics.quantiles(values, n=4, method="inclusive")[2]
                        extra[name] = {"value": p75, "unit": "s"}
                if args.workload == "covering-mc":
                    extra["trials_per_s"] = {"value": workload.trials * len(times) / sum(times), "unit": "1/s"}
                extra["calibration_s.p50"] = {"value": statistics.median(cals), "unit": "s"}
            lines.append(f"timed ops: {len(times)} (after {WARMUP_OPS} warm-up ops)")
        record["inputs"], notes = oracle.call("reference_facts")

    extra["fail_ratio"] = {"value": check.failed / max(check.attempted, 1), "unit": "1"}
    for item in inputs:  # the game files are regenerated by every run
        if isinstance(item, Path):
            item.unlink()
    record["metrics"] = metrics
    record["extra_metrics"] = extra
    record["attempted"] = check.attempted
    record["failed"] = check.failed
    record["problems"] = check.problems
    record["report_sha256"] = check.digest()
    (workdir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    env = record["environment"]
    print(
        f"workload {args.workload} seed {args.seed}: python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, nproc {env['nproc']}, BLAS threads {env['blas_threads']}"
    )
    totals = {
        k: sum(p[k] for p in record["inputs"]) for k in ("states", "edges", "sccs", "sinks", "bytes")
    }
    totals["largest_sink"] = max(p["largest_sink"] for p in record["inputs"])
    print(f"inputs ({len(record['inputs'])} records): {json.dumps(totals, sort_keys=True)}")
    for line in lines + notes:
        print(line)
    for problem in check.problems[:20]:
        print(f"FAILED {problem}")
    print(f"attempted {check.attempted}, failed {check.failed}, report_sha256 {record['report_sha256']}")
    for name, m in {**metrics, **extra}.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": check.failed == 0 and bool(metrics),
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    """Run each workload in its own process and tabulate its metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        record = json.loads((WORK / f"{name}-{args.seed}" / f"record-trace{args.trace}.json").read_text())
        metrics = {**record["metrics"], **record["extra_metrics"]}
        rows += [(name, k, m["value"], m["unit"]) for k, m in metrics.items()]
    print()
    print(f"{'workload':14s} {'metric':44s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:14s} {metric:44s} {value:14.6g} {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that every child process is ended and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
