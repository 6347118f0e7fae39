"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload corpus-fp --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; tensorgp is imported from ``src/`` there
and nowhere else, and the test suite's constructors from ``tests/``.  The
inputs are made from ``--seed``.  The workload runs
in whole passes over its inputs, as many as fit in ``--seconds`` by the
workload's expected pass time (at least one).  Every operation is timed in CPU
seconds and normalised by the reference slices that run in and around it
(see ``refkernel.py``).  Every result is checked; an operation that raises
or disagrees with a check counts as failed.

With ``--trace 0`` the end-to-end metrics are reported: items_per_s,
call_p50_ms, setup_s (the median of three set-ups, two of them in fresh
child processes) and peak_rss_mb.  With ``--trace 1`` untraced and traced
passes alternate and the per-layer metrics of the traced passes are
reported, with the tracing overhead; the spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
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
import traceback
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The program's memo tables and caches are keyed by objects whose hashes
# depend on Python's hash seed; under seeds 1 to 4 the same specialize run
# gave call_p50_ms from 21.5 to 24.1 ms.  Workload processes run with this
# fixed seed, so runs of one commit are comparable.
HASH_SEED = "0"
CPU_BEFORE_EXEC = "PERFBENCH_CPU_BEFORE_EXEC"
WORKLOAD_NAMES = ["corpus-fp", "corpus-q", "hunt-fp", "specialize"]
SETUPS = 3
PROBE_TIMEOUT_S = 120
MAX_REPORTED_ERRORS = 5


def import_program():
    """Put the checkout's src/ first on the path and import tensorgp from
    there; exit non-zero if it is not there.  The test suite's tests/ goes
    on the path too, for the constructors in its helpers module."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if str(ROOT / "tests") not in sys.path:
        sys.path.append(str(ROOT / "tests"))
    try:
        import tensorgp
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import tensorgp from {src}: {exc}")
    if Path(tensorgp.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: tensorgp was imported from {tensorgp.__file__}, not {src}")


def fix_hash_seed(argv):
    """Re-execute this process with the fixed hash seed unless it has it,
    handing over the CPU time spent so far, which set-up time leaves out."""
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env[CPU_BEFORE_EXEC] = repr(time.process_time())
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def start_sampler():
    """Start the reference slices.  Returns the sampler and the CPU time
    the benchmark's own start-up took, which set-up time leaves out."""
    import numpy  # noqa: F401  -- the program imports it too; counted in set-up

    t0 = time.process_time()
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import refkernel

    sampler = refkernel.Sampler()
    sampler.start()
    before_exec = float(os.environ.pop(CPU_BEFORE_EXEC, "0"))
    return sampler, time.process_time() - t0 + before_exec


def set_up(workload: str, seed: int, scale: float, sampler, own_s: float):
    """Import the program, build the workload and its first inputs.
    Returns them with the normalised CPU seconds the process spent on
    that, interpreter start included."""
    import_program()
    import workloads

    factory, pass_s = workloads.WORKLOADS[workload]
    wl = factory(seed, scale)
    ops = wl.make_inputs()
    n = sampler.mark()
    raw = time.process_time() - own_s - sum(sampler.costs[:n])
    return wl, ops, pass_s, raw * sampler.scale(0, n)


def probe_setup(workload: str, seed: int, scale: float) -> float:
    """Set-up time of a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=str(ROOT))
    if done.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class PassResult:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.call_s = []        # normalised seconds per operation
        self.raw_s = 0.0        # raw CPU seconds of the operations
        self.scale = 1.0        # raw to normalised, over the whole pass
        self.digests = []
        self.errors = []

    @property
    def norm_s(self) -> float:
        return sum(self.call_s)


def run_pass(wl, ops, sampler, tracer=None) -> PassResult:
    """One whole pass over the operations, each timed in CPU seconds less
    the reference slices that ran inside it, and normalised by the
    slices in and around it.  An installed tracer is active only inside
    the timed calls."""
    from workloads import Mismatch

    out = PassResult()
    timed = []
    pass_first = sampler.mark()
    for op in ops:
        out.attempted += 1
        if tracer is not None:
            tracer.active = True
        first = sampler.mark()
        t0 = time.thread_time()
        try:
            result = wl.call(op)
        except Exception:  # a failed operation is counted, not fatal
            result = None
            out.failed += 1
            out.errors.append(traceback.format_exc())
        finally:
            t1 = time.thread_time()
            if tracer is not None:
                tracer.active = False
        last = sampler.mark()
        timed.append((t1 - t0 - sampler.spent(first, last, t0, t1), first, last))
        if result is None:
            continue
        try:
            wl.verify(op, result)
        except Exception as exc:
            out.failed += 1
            out.errors.append(str(exc) if isinstance(exc, Mismatch) else traceback.format_exc())
        else:
            out.items += wl.items(op, result)
            out.digests.append(wl.digest(op, result))
    for raw, first, last in timed:
        out.call_s.append(raw * sampler.scale(first, last))
        out.raw_s += raw
    out.scale = sampler.scale(pass_first, sampler.mark())
    return out


def measure(wl, ops, sampler, passes_wanted: int, tracer=None):
    """Run whole passes; with a tracer, passes alternate untraced and
    traced, and there are at least two."""
    if tracer is not None:
        passes_wanted = max(2, passes_wanted)
    passes, traced = [], []
    for i in range(passes_wanted):
        if i:
            ops = wl.make_inputs()
        if tracer is not None and i % 2 == 1:
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(wl, ops, sampler, tracer)
            finally:
                tracer.uninstall()
                tracer.stop_recording()
            traced.append((result, tracer.snapshot()))
        else:
            result = run_pass(wl, ops, sampler)
        passes.append(result)
    return passes, traced


def end_to_end(passes, setups, peak_rss_mb) -> dict:
    # every pass runs the same operations in the same order; an operation's
    # time is its mean over the passes, which damps the noise that the
    # machine's uneven speed puts on a single short call
    call_s = [statistics.fmean(times) for times in zip(*(p.call_s for p in passes))]
    return {
        "items_per_s": (sum(p.items for p in passes) / sum(p.norm_s for p in passes), "1/s"),
        "call_p50_ms": (statistics.median(call_s) * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(wl, passes, traced) -> dict:
    import tracer as tr

    untraced = [p for p in passes if all(p is not t for t, _ in traced)]
    entries = tr.memo_entries(wl.rings)
    rows = [tr.layer_values(snap, result.scale, entries) for result, snap in traced]
    values = {}
    for name, unit, _better in tr.LAYER_METRICS:
        if name == "trace.overhead_pct":
            t_traced = statistics.median(r.norm_s for r, _ in traced)
            t_plain = statistics.median(p.norm_s for p in untraced)
            values[name] = (100.0 * (t_traced / t_plain - 1.0), unit)
        elif name.endswith("_s"):
            values[name] = (statistics.median(row[name] for row in rows), unit)
        else:
            values[name] = (rows[0][name], unit)  # counts of the first traced pass
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor below 1 for smoke runs")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    fix_hash_seed(sys.argv[1:] if argv is None else argv)
    sampler, own_s = start_sampler()
    wl, ops, pass_s, setup_s = set_up(args.workload, args.seed, args.scale, sampler, own_s)
    if args.setup_probe:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer(sampler)
    else:
        setups = [setup_s] + [probe_setup(args.workload, args.seed, args.scale)
                              for _ in range(SETUPS - 1)]
    passes, traced = measure(wl, ops, sampler, max(1, int(args.seconds // pass_s)), tracer)
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # verdicts must repeat exactly from pass to pass; a one-pass run (an
    # untraced corpus-fp run) has nothing to compare, and rests on the
    # checks counted in failed
    correct = all(p.digests == passes[0].digests for p in passes[1:])
    if args.trace:
        metrics = per_layer(wl, passes, traced)
        path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(path)
        print(f"spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(passes, setups, peak_rss_mb)

    raw_items = sum(p.items for p in passes) / sum(p.raw_s for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed, verdicts repeat: {correct}")
    print(f"  raw CPU items/s {raw_items:.4g}; {len(sampler.costs)} reference slices, "
          f"mean {statistics.fmean(sampler.costs) * 1000:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for err in passes[0].errors[:MAX_REPORTED_ERRORS]:
        print(f"failed operation:\n{err}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
