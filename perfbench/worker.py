"""One benchmark pass in a fresh interpreter; prints one JSON line.

Run by run.py, never imported.  `--spawned-ns` is the parent's monotonic
clock just before it started this process, so setup_s covers interpreter
start-up and `import synhash`.  In-process caches start cold, as they do for
a user running `synhash suite`.  An untraced pass runs the speed probe of
probe.py during its timed calls and takes the probes' time out of wall_s
and cpu_s.
"""

import sys
import time

import synhash

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402  (imports after the timed import)
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from synhash import caps, codes, distributions, field, rm_lab, suite, verify  # noqa: E402

import tracing  # noqa: E402
from probe import SpeedSampler, weighted_median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = {"field": field, "codes": codes, "distributions": distributions,
           "verify": verify, "rm_lab": rm_lab, "suite": suite}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "setup"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    out = {"setup_s": (IMPORTED_NS - args.spawned_ns) / 1e9, "numpy": numpy.__version__}
    if args.workload != "setup":
        out.update(run_pass(args))
    print(json.dumps(out))
    return 0


def run_pass(args) -> dict:
    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    tracer = sampler = None
    if not args.trace:
        sampler = SpeedSampler()
        sampler.start()
    else:
        tracer = tracing.Tracer(caps.CapExceeded)
        missing = tracer.install(MODULES)
        if missing:
            print(f"perfbench: not traced, name not found: {', '.join(missing)}",
                  file=sys.stderr)
    started, started_cpu = time.perf_counter(), time.process_time()
    outputs = workload.run(inputs)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - started_cpu
    # before the checks, so their allocations do not count
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {}
    if sampler is not None:
        sampler.stop()
        wall_s -= sampler.probe_wall_s
        out.update(cpu_s=cpu_s - sampler.probe_cpu_s, probe_s=weighted_median(sampler.samples),
                   probes=len(sampler.samples))
    if tracer is not None:
        tracer.uninstall()
    verdicts, counts = workload.check(inputs, outputs)
    out.update(wall_s=wall_s, peak_rss_mib=peak_rss_mib,
               attempted=len(verdicts), failed=verdicts.count(False),
               underflow_rows=counts.get("rm_lab.underflow_rows", 0))
    if tracer is not None:
        out["layers"] = tracing.layer_stats(tracer.spans)
        out["refused"] = tracer.refused
        if args.spans is not None:
            tracer.dump(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
