"""synhash benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 24 --trace 0

Run from the repository root; the program is imported from ./src.  Each
pass runs in a fresh interpreter, one at a time, so in-process caches start
cold.  Passes repeat while the next one is expected to end closer to
--seconds than the last did (at least MIN_PASSES).  With --trace 0 the last
line holds the end-to-end metrics (medians over passes); with --trace 1
untraced and traced passes alternate and it holds the per-layer metrics of
the traced passes and the tracing overhead.
Everything else the run measured, with the environment, goes to
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

# BENCHMARK.json gates suite and rm-sweep; the others run by hand (see README.md)
WORKLOADS = ("suite", "mc-large", "rm-sweep", "exact")
END_TO_END = (("setup_s", "s"), ("cpu_probes", "probe"), ("peak_rss_mib", "MiB"))
MIN_PASSES = 3
SETUP_PROBES = 3  # before the passes; one more precedes each pass
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s


class RunFailed(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "synhash" / "__init__.py").is_file():
        print("perfbench: ./src/synhash not found; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        report = Bench(root, args).run()
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in report.pop("lines"):
        print(line)
    print(json.dumps(report))
    return 0


class Bench:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.out_dir = HERE / "out"
        self.env = dict(os.environ)
        paths = [str(root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        # passes run single-threaded (nothing in synhash asks for threads) and
        # with one string-hash seed, so dict layouts repeat from pass to pass
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, workload: str, trace: int = 0, spans: Path | None = None) -> dict:
        """Run one pass in a fresh interpreter and return its JSON line."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.args.seed), "--trace", str(trace)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed("out of time before the pass started")
        cmd += ["--spawned-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it before raising
            raise RunFailed(f"{workload} pass did not finish within {RUN_LIMIT_S:.0f} s")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RunFailed(f"{workload} pass exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def run(self) -> dict:
        """Make the passes; return the result line's fields plus the lines to print."""
        args = self.args
        self.out_dir.mkdir(exist_ok=True)
        self.spawn("setup")  # unmeasured: writes bytecode, warms the file cache
        # set-up probes are spread over the run so they see the machine as the passes do
        probes = [self.spawn("setup") for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        spans = self.out_dir / f"{args.workload}.spans.json"
        started = time.monotonic()
        while True:
            probes.append(self.spawn("setup"))
            plain.append(self.spawn(args.workload))
            if args.trace:
                traced.append(self.spawn(args.workload, 1, spans))
            elapsed = time.monotonic() - started
            if (len(plain) >= (1 if args.trace else MIN_PASSES)
                    and elapsed + elapsed / len(plain) / 2 >= args.seconds):
                break
        return self.report(probes, plain, traced)

    def report(self, probes: list[dict], plain: list[dict], traced: list[dict]) -> dict:
        args = self.args
        passes = plain + traced
        setups = [p["setup_s"] for p in probes + passes]
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        e2e = {"setup_s": statistics.median(setups),
               "cpu_probes": statistics.median(p["cpu_s"] / p["probe_s"] for p in plain),
               "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain)}
        wall_s = statistics.median(p["wall_s"] for p in plain)
        cpu_s = statistics.median(p["cpu_s"] for p in plain)
        layers = {}
        if args.trace:
            layers = tracing.median_stats([p["layers"] for p in traced])
            layers["rm_lab.underflow_rows"] = statistics.median(
                p["underflow_rows"] for p in traced)
            layers["caps.refused"] = statistics.median(p["refused"] for p in traced)
            layers["trace.overhead_s"] = statistics.median(
                p["wall_s"] for p in traced) - wall_s
        env = {"python": platform.python_version(), "numpy": probes[0]["numpy"],
               "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(self.root),
               "seed": args.seed}
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "environment": env,
                  "setup_probes_s": [p["setup_s"] for p in probes], "passes": passes,
                  "end_to_end": e2e, "wall_s": wall_s, "cpu_s": cpu_s,
                  "per_layer": layers,
                  "attempted": attempted, "failed": failed}
        result_path = self.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        result_path.write_text(json.dumps(record, indent=1) + "\n")

        lines = [f"workload {args.workload}: {len(plain)} untraced and {len(traced)} "
                 f"traced passes, {len(setups)} set-ups; detail in {result_path}",
                 "environment " + json.dumps(env)]
        lines += [f"{name:58s} {e2e[name]:14.6g} {unit}" for name, unit in END_TO_END]
        lines += [f"{name:58s} {value:14.6g} s (not normalised; follows the machine's speed)"
                  for name, value in (("wall_s", wall_s), ("cpu_s", cpu_s))]
        lines.append(f"{'error_rate':58s} {failed / attempted:14.6g} ratio "
                     f"({failed} of {attempted} operations failed their check)")
        if args.trace:
            units, values = tracing.per_layer_metrics(), layers
            lines += [f"{name:58s} {layers[name]:14.6g} {unit}" for name, unit in units]
        else:
            units, values = END_TO_END, e2e
        return {"lines": lines, "correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units}}


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git directly, or 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
