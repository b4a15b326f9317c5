"""Benchmark of the `fockcrystal` CLI, run from a checkout of the repository.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     # every workload in turn
    python3 bench/run.py --defects              # replay the known level-3 defects

One closed-loop client runs `python -m fockcrystal` against the
checkout's own `src/`: each operation is a fresh CLI process, started
when the previous one has exited, so every operation starts with cold
in-process caches exactly as a command-line user does.  Operations come
from workloads.py (seeded); every output is checked by checks.py after
the timed loop.

With --trace 0 the loop runs for --seconds and reports the end-to-end
metrics.  The host this runs on changes speed by tens of percent from
one minute to the next, so every few operations the loop also times
calibrate.py, fixed work that does not use fockcrystal, and reports
times in reference seconds: measured seconds times REFERENCE_CAL_S over
the run's mean calibration time.  Raw seconds are printed alongside.

With --trace 1 the first cycle of the workload runs twice per
operation, once under tracer.py and once plain, and the per-layer
metrics are reported for that cycle in raw seconds, plus the
traced/untraced wall ratio.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checks import CheckError, check_matrix_pairs, check_output
from tracer import FOCK_OPS, LAYERS
from workloads import CYCLES, TAIL_PERCENTILE, Op, cycle_length, defect_ops, first_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OP_TIMEOUT_S = 60
CALIBRATE_EVERY = 2  # operations between calibration runs
SETUP_EVERY = 4  # operations between set-up time samples
REFERENCE_CAL_S = 0.1  # calibrate.py wall time on the reference host
SETUP_OP = Op("params", {"level": 1, "kappa": {"num": -1, "den": 2}, "s": [0]}, ("params", "--n", "1"))


class Result:
    __slots__ = ("op", "code", "wall", "cpu", "maxrss_kb", "out", "err", "error")

    def __init__(self, op, code, wall, cpu, maxrss_kb, out, err):
        self.op, self.code, self.wall, self.cpu = op, code, wall, cpu
        self.maxrss_kb, self.out, self.err = maxrss_kb, out, err
        last = err.strip().splitlines()[-1:]
        self.error = None if code == 0 else f"exit {code}: {last[0] if last else 'no message'}"


class Runner:
    """Starts CLI processes one at a time inside a private work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.param_files: dict[str, Path] = {}

    def params_file(self, params: dict) -> Path:
        key = json.dumps(params, sort_keys=True)
        if key not in self.param_files:
            path = self.work / f"params{len(self.param_files)}.json"
            path.write_text(key + "\n", encoding="utf-8")
            self.param_files[key] = path
        return self.param_files[key]

    def command(self, op: Op, trace_out: Path | None = None) -> list[str]:
        head = [sys.executable, "-m", "fockcrystal"]
        if trace_out is not None:
            head = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_out)]
        return head + list(op.args) + ["--params", str(self.params_file(op.params))]

    def run(self, op: Op, trace_out: Path | None = None) -> Result:
        return self.spawn(op, self.command(op, trace_out))

    def calibrate(self) -> float:
        res = self.spawn(None, [sys.executable, str(BENCH_DIR / "calibrate.py")])
        if res.code != 0:
            raise RuntimeError(f"calibrate.py failed: {res.error}")
        return res.wall

    def spawn(self, op: Op | None, cmd: list[str]) -> Result:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=self.env)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        return Result(
            op, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            out_path.read_bytes(), err_path.read_text(encoding="utf-8", errors="replace"),
        )


def check_results(results: list[Result]) -> list[Result]:
    """Fill in each result's error from the output checks; return the failures."""
    for res in results:
        if res.error is None:
            try:
                check_output(res.op, res.out)
            except CheckError as exc:
                res.error = f"output check: {exc}"
    for i in check_matrix_pairs([r.op for r in results], [r.out for r in results]):
        if results[i].error is None:
            results[i].error = "output check: ribbon and wedge matrices differ"
    return [r for r in results if r.error is not None]


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank `pct` percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(-(-pct * len(ordered) // 100), 1)
    return ordered[rank - 1], len(ordered) - rank


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_walls(runner: Runner, count: int) -> list[float]:
    """Wall times of CLI calls that do no work."""
    return [runner.run(SETUP_OP).wall for _ in range(count)]


def timed_run(runner: Runner, workload: str, seed: int, seconds: float, lines: list[str]):
    # every op pays interpreter start-up, so no cycle takes under a second
    upcoming = first_ops(workload, seed, cycle_length(workload) * max(10, int(seconds)))
    for op in upcoming:
        runner.params_file(op.params)
    calibration, setup = [runner.calibrate()], setup_walls(runner, 2)
    results = []
    start = time.perf_counter()
    pct = TAIL_PERCENTILE[workload]
    min_ops = -(-1000 // (100 - pct))  # leaves at least 10 ops beyond the tail
    for i, op in enumerate(upcoming, start=1):
        if time.perf_counter() - start >= seconds and len(results) >= min_ops:
            break
        results.append(runner.run(op))
        if i % CALIBRATE_EVERY == 0:
            calibration.append(runner.calibrate())
        if i % SETUP_EVERY == 0:
            setup += setup_walls(runner, 1)
    calibration.append(runner.calibrate())
    failures = check_results(results)

    walls = [r.wall for r in results]
    tail_value, beyond = tail(walls, pct)
    raw = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(results) / sum(walls), "1/s"),
        "op_s.p50": (statistics.median(walls), "s"),
        "op_s.tail": (tail_value, "s"),
        "cpu_s": (sum(r.cpu for r in results) / len(results), "s/op"),
    }
    # the host switches between fast and slow spells within seconds, so the
    # mean over the run, not the median, gives its average speed
    slowdown = statistics.mean(calibration) / REFERENCE_CAL_S
    metrics = {
        name: metric(value * slowdown if name == "ops_per_s" else value / slowdown, unit)
        for name, (value, unit) in raw.items()
    }
    metrics["peak_rss_mb"] = metric(max(r.maxrss_kb for r in results) / 1024, "MB")

    cycles = len(results) / cycle_length(workload)
    lines.append(
        f"{workload}: {len(results)} ops ({cycles:.2f} cycles) in {sum(walls):.2f} s; "
        f"host slowdown {slowdown:.3f} (mean of {len(calibration)} calibrations)"
    )
    for name, m in metrics.items():
        note = f"  raw {raw[name][0]:.6g}" if name in raw else ""
        if name == "op_s.tail":
            note += f"  (p{pct}, {beyond} of {len(results)} ops beyond)"
        lines.append(f"  {name:<12} {m['value']:.6g} {m['unit']}{note}")
    lines.append(f"  {'fail_ratio':<12} {len(failures) / len(results):.6g}  ({len(failures)} of {len(results)} ops)")
    return results, failures, metrics


def per_layer_metrics(reports: list[dict], traced_wall: float, plain_wall: float, lines: list[str]):
    calls, incl, self_s, counters = {}, {}, {}, {}
    hits = misses = 0
    for rep in reports:
        for key, (c, i, s) in rep["functions"].items():
            calls[key] = calls.get(key, 0) + c
            incl[key] = incl.get(key, 0.0) + i
            self_s[key] = self_s.get(key, 0.0) + s
        for key, value in rep["counters"].items():
            counters[key] = counters.get(key, 0) + value
        hits += rep["km_depth_cache"][0]
        misses += rep["km_depth_cache"][1]

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def total(mapping, *keys):
        return sum(mapping.get(k, 0) for k in keys)

    fock_ops = [f"fock.{name}" for name in FOCK_OPS]
    inserts = calls.get("linalg.RowSpan.insert", 0)
    km_lookups = hits + misses
    count, sec, ratio = "count", "s", "ratio"
    metrics = {
        "params.self_s": metric(layer_self("params"), sec),
        "params.residue.calls": metric(calls.get("params.CherednikParams.residue", 0), count),
        "params.residue.self_s": metric(self_s.get("params.CherednikParams.residue", 0.0), sec),
        "supports.self_s": metric(layer_self("supports"), sec),
        "supports.level2_transport.calls": metric(calls.get("supports.level2_transport", 0), count),
        "supports.level2_transport.s": metric(incl.get("supports.level2_transport", 0.0), sec),
        "crystal.self_s": metric(layer_self("crystal"), sec),
        "crystal.e_tilde.calls": metric(calls.get("crystal.e_tilde", 0), count),
        "crystal.f_tilde.calls": metric(calls.get("crystal.f_tilde", 0), count),
        "crystal.km_depth.calls": metric(calls.get("crystal.km_depth", 0), count),
        "crystal.km_depth.hit_ratio": metric(hits / km_lookups if km_lookups else 0.0, ratio),
        "linalg.self_s": metric(layer_self("linalg"), sec),
        "linalg.rref.calls": metric(calls.get("linalg.rref", 0), count),
        "linalg.rref.cells": metric(counters.get("linalg.rref.cells", 0), count),
        "linalg.rowspan_insert.calls": metric(inserts, count),
        "linalg.rowspan_insert.accept_ratio": metric(
            counters.get("linalg.RowSpan.insert.accepted", 0) / inserts if inserts else 0.0, ratio
        ),
        "fock.self_s": metric(layer_self("fock"), sec),
        "fock.op_calls": metric(total(calls, *fock_ops), count),
        "fock.op_terms": metric(total(counters, *(k + ".terms" for k in fock_ops)), count),
        "partitions.self_s": metric(layer_self("partitions"), sec),
        "partitions.ribbon.calls": metric(
            total(calls, "partitions.ribbon_additions", "partitions.ribbon_removals"), count
        ),
        "partitions.enumerate.calls": metric(
            total(calls, "partitions.enumerate_partitions", "partitions.enumerate_multipartitions"), count
        ),
        "jsonio.self_s": metric(layer_self("jsonio"), sec),
        "jsonio.bytes_out": metric(
            total(counters, "jsonio.canonical_dumps.bytes_out", "jsonio.crystal_graph_to_dot.bytes_out"), "B"
        ),
        "cli.self_s": metric(layer_self("cli"), sec),
        "import_s": metric(statistics.mean(rep["import_s"] for rep in reports), sec),
        "trace.overhead_ratio": metric(traced_wall / plain_wall, ratio),
    }
    traced_self = sum(self_s.values())
    lines.append(f"  self time by layer over one cycle ({traced_self:.3f} s traced):")
    for layer in LAYERS:
        share = layer_self(layer) / traced_self if traced_self else 0.0
        lines.append(f"    {layer:<11} {layer_self(layer):9.4f} s  {100 * share:5.1f}%")
    for name, m in metrics.items():
        lines.append(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    return metrics


def traced_run(runner: Runner, workload: str, seed: int, lines: list[str]):
    """One cycle, each op traced and plain in alternating order."""
    ops = first_ops(workload, seed, cycle_length(workload))
    trace_out = runner.work / "trace.json"
    traced, plain, reports = [], [], []
    for i, op in enumerate(ops):
        for with_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if with_trace:
                traced.append(runner.run(op, trace_out))
                if traced[-1].code == 0:
                    reports.append(json.loads(trace_out.read_text(encoding="utf-8")))
            else:
                plain.append(runner.run(op))
    results = traced + plain
    failures = check_results(results)
    traced_wall, plain_wall = sum(r.wall for r in traced), sum(r.wall for r in plain)
    lines.append(f"{workload}: traced {len(ops)} ops in {traced_wall:.2f} s, plain in {plain_wall:.2f} s")
    return results, failures, per_layer_metrics(reports, traced_wall, plain_wall, lines)


def source_lines() -> int:
    return sum(
        1
        for path in sorted((ROOT / "src" / "fockcrystal").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def report_failures(failures: list[Result], lines: list[str]) -> None:
    for res in failures:
        lines.append(f"  FAILED {res.op.label()}: {res.error}")


def run_defects(runner: Runner) -> int:
    """Run every known level-3 defect point and say which still fail."""
    results = [runner.run(op) for op in defect_ops()]
    failures = check_results(results)
    for res in results:
        state = "still fails" if res.error else "passes now"
        print(f"{state}: {res.op.label()}" + (f"  ({res.error})" if res.error else ""))
    print(f"{len(failures)} of {len(results)} known level-3 defect points still fail")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(CYCLES) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true", help="replay the known level-3 defects")
    args = parser.parse_args(argv)
    if not args.defects and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "fockcrystal").is_dir():
        print(f"error: no fockcrystal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    (ROOT / ".bench_run").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_run"))
    try:
        runner = Runner(work)
        warmup = runner.run(SETUP_OP)  # compiles bytecode, untimed
        if warmup.code != 0:
            print(f"error: the CLI does not run: {warmup.error}", file=sys.stderr)
            return 2
        if args.defects:
            return run_defects(runner)

        workloads = sorted(CYCLES) if args.workload == "all" else [args.workload]
        meta = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "src_lines": source_lines(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        print("meta " + json.dumps(meta, sort_keys=True))
        attempted, failed, all_metrics = 0, 0, {}
        for workload in workloads:
            lines: list[str] = []
            if args.trace:
                results, failures, metrics = traced_run(runner, workload, args.seed, lines)
            else:
                results, failures, metrics = timed_run(runner, workload, args.seed, args.seconds, lines)
            report_failures(failures, lines)
            print("\n".join(lines), flush=True)
            attempted += len(results)
            failed += len(failures)
            prefix = f"{workload}." if len(workloads) > 1 else ""
            all_metrics.update({prefix + k: v for k, v in metrics.items()})
        summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all_metrics}
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_run").rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
