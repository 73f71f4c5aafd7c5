"""One benchmark run in a fresh process: set up, closed loop, gate, report.

Started by ``run.py``; prints one JSON line with the raw samples.  With
``--setup-only`` it sets up, prints the monotonic time at which it was
ready and the host speed measured right after, and exits.  With
``--trace 1`` it runs untraced iterations for the first third of the run
and traced ones for the rest, so the difference of their medians is the
tracing overhead.  With ``--write-reference`` it runs
one iteration at the reference seed and stores its tables under
``perfbench/reference/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")
                if k in deps}
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "blas" in line.lower() and "/" in line})
        blas["loaded"] = libs
    except OSError:
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "GOTO_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
    }


class Run:
    """Closed loop over one workload with the correctness gate."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.samples: list[dict] = []
        self.digest: str | None = None
        self.problems: list[str] = []

    def once(self, seed: int, tracer=None) -> dict[str, bytes] | None:
        """One iteration: host speed, timed call, then the gate.  Returns
        the outputs, or None when the iteration failed."""
        # Start every iteration from a collected heap, as a fresh CLI
        # process does, so a previous iteration's garbage is not timed.
        gc.collect()
        speed_before = hostspeed.speed(self.workload.kernel)
        if tracer is not None:
            tracer.begin_iteration()
        c0 = time.process_time()
        t0 = time.perf_counter()
        error = None
        try:
            result = self.workload.iterate(seed)
        except Exception as exc:  # a crash is a failed iteration, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        layers = layer_self_s = None
        if tracer is not None:
            layers = tracer.end_iteration()
            layer_self_s = dict(tracer.self_s)
        files = None
        if error is None:
            try:
                files = self.workload.outputs(result)
            except workloads.GateError as exc:
                error = str(exc)
        if files is not None and seed == self.seed:
            digest = _digest(files)
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                error = "outputs differ from the run's first iteration"
        if error is not None:
            self.problems.append(f"iteration {len(self.samples)}: {error}")
        self.samples.append({"wall_s": wall, "cpu_s": cpu,
                             "speed_before": speed_before,
                             "ok": error is None,
                             "traced": tracer is not None, "seed": seed,
                             "layers": layers, "layer_self_s": layer_self_s})
        return files if error is None else None

    def close(self) -> None:
        """Give each iteration the mean of the host speeds measured just
        before it and just after it, which is just before the next one."""
        after = [s["speed_before"] for s in self.samples[1:]]
        after.append(hostspeed.speed(self.workload.kernel))
        for sample, speed_after in zip(self.samples, after):
            sample["speed"] = (sample["speed_before"] + speed_after) / 2

    def loop(self, seconds: float, tracer=None) -> dict[str, bytes] | None:
        """Iterate until the next iteration would end past ``seconds``."""
        start = time.perf_counter()
        walls: list[float] = []
        first = None
        while True:
            t0 = time.perf_counter()
            files = self.once(self.seed, tracer)
            if first is None:
                first = files
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > seconds:
                return first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(out_dir)
    ready = time.monotonic()
    # Set-up is import and parsing work: interpreter-bound on every workload.
    setup_speed = hostspeed.speed("python")

    import oscbath

    src = (ROOT / "src").resolve()
    if Path(oscbath.__file__).resolve().parent.parent != src:
        print(f"oscbath imported from {oscbath.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_speed": setup_speed}))
        return 0

    run = Run(workload, args.seed)
    if args.write_reference:
        files = run.once(workloads.REFERENCE_SEED)
        if files is None:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        workloads.write_reference(args.workload, files)
        return 0

    load_start = os.getloadavg()
    env = environment()
    result: dict = {"ready": ready, "setup_speed": setup_speed}
    if args.trace:
        import counts
        from tracer import Tracer

        mismatches = counts.self_check()
        if mismatches:
            print("count self-check failed: " + "; ".join(mismatches),
                  file=sys.stderr)
            return 1
        run.loop(args.seconds / 3.0)
        tracer = Tracer()
        tracer.install()
        try:
            files = run.loop(args.seconds * 2.0 / 3.0, tracer)
        finally:
            tracer.uninstall()
        if workload.seeded and args.seed != workloads.REFERENCE_SEED:
            files = run.once(workloads.REFERENCE_SEED)
        deviations = workloads.table_deviations(args.workload, files or {})
        result["table_deviations"] = deviations
        tracer.write(
            out_dir / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed,
             "iterations": run.samples},
        )
    else:
        run.loop(args.seconds)

    run.close()
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    result.update({
        "samples": run.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "problems": run.problems,
        "environment": env,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
