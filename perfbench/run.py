"""Closed-loop benchmark of the tokenchain commands.

    python3 perfbench/run.py --workload build --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  One client calls the public entry point
`tokenchain.cli.main([...])` for the next command only after the previous
one returned, always with `--jobs 1`, in rounds of the workload's commands
(see jobs.py), until the next round would end more than half a round
past `--seconds` from the start of the run, set-up probes included.  Every
command's outputs are checked against independent references (checks.py);
a failed check counts the command as failed and never stops the run.

The host this benchmark was defined on is a 2 vCPU VM whose CPU speed
flips by up to 1.7x every few seconds to minutes as other tenants come
and go, so wall times of identical work spread by a third between runs.
Each command is therefore paired with the same command run, right before
or after it, by `tokenchain_seed`: a frozen copy of the package as it
was when this benchmark was added.  The command times are reported as
ratios of the package's time to the copy's, which the machine's speed
cancels out of.  The end-to-end metrics:

- `worst_cmd_vs_seed`: per command, the median of its pair ratios; the
  largest of them, so that a command that gets slower shows even when
  another one gets faster;
- `setup_s`: median wall time, over fresh interpreters, from start until
  the first command could run: the package's imports (not the copy's),
  the work directory and, for `remote`, the endpoint;
- `peak_rss_mib`: peak resident memory after a first, unpaired round of
  the package's commands alone, which also warms the process up.

The round's total time against the copy's, with each command weighted by
the copy's median time for it (`round_vs_seed`), and the geometric mean
of the per-command medians (`cmd_geomean_vs_seed`) are printed and
recorded too, but not reported as metrics: a slowdown in one command can
hide behind a speedup in another in either of them.

With `--trace 1` the run makes one untimed warm-up round, then alternates
untraced rounds with rounds in which every public tokenchain function is
wrapped (tracing.py), without the copy; the result carries the per-layer
metrics of the traced rounds and the tracing overhead against the
untraced ones.  The last line of stdout is one JSON object; the lines
before it, and the record written to .perfbench-out/results/, add the
per-command wall-time metrics, the machine, the commit and the sample
counts.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import checks
import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# the package under test, and its frozen copy next to this file
PACKAGES = ("tokenchain", "tokenchain_seed")
SETUP_SAMPLES = 5

# per-command wall-time metrics: name, unit, the jobs they cover, and the
# reduction ("rate": summed work over summed time; "median": median time)
COMMAND_METRICS = [
    ("build_states_per_s", "1/s", ("build_t8k4", "build_t2k9"), "rate"),
    ("analyze_s", "s", ("analyze",), "median"),
    ("sweep_points_per_s", "1/s", ("sweep",), "rate"),
    ("train_toy_s", "s", ("train_toy",), "median"),
    ("estimate_freq_steps_per_s", "1/s", ("estimate_freq",), "rate"),
    ("estimate_ngram_steps_per_s", "1/s", ("estimate_ngram",), "rate"),
    ("bounds_samples_per_s", "1/s", ("bounds",), "rate"),
    ("remote_estimate_queries_per_s", "1/s", ("remote_estimate",), "rate"),
    ("remote_build_states_per_s", "1/s", ("remote_build",), "rate"),
]


class Session:
    """What a run sets up before its first command: the imports of the
    packages, a work directory and, for the remote workload, the endpoint
    process."""

    def __init__(self, workload, seed, packages=PACKAGES):
        sys.path.insert(0, str(SRC))
        self.mains = {p: importlib.import_module(f"{p}.cli").main
                      for p in packages}
        self.workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.endpoint = None
        self.url = None
        if workload == "remote":
            self.endpoint = subprocess.Popen(
                [sys.executable, str(HERE / "endpoint.py"), "--seed",
                 str(seed)], stdout=subprocess.PIPE, text=True)
            self.url = self.endpoint.stdout.readline().strip()
            if not self.url.startswith("http://"):
                self.close()
                raise RuntimeError("the endpoint did not start")

    def endpoint_stats(self):
        if self.url is None:
            return {"requests": 0, "bytes_received": 0, "busy_s": 0.0}
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def close(self):
        if self.endpoint is not None:
            self.endpoint.terminate()
            try:
                self.endpoint.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.endpoint.kill()
                self.endpoint.wait()
            self.endpoint.stdout.close()
            self.endpoint = None
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class Result:
    job: str
    seconds: float
    work: int
    problems: list
    output_bytes: int


def _call(main, job, out: Path, config: Path):
    """One CLI command; returns its exit status (or the error) and time."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    config.write_text(json.dumps(job.config))
    argv = [job.command, "--config", str(config), "--out", str(out),
            "--jobs", "1"]
    sink = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = main(argv)
    except (Exception, SystemExit) as exc:
        status = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    # free what the command left behind (remote sessions hold endpoint
    # connections until collected) before anything else is timed
    gc.collect()
    if status != 0:
        status = f"exit status {status}: {sink.getvalue().strip()[-300:]}"
    return status, elapsed


def run_job(session, job, job_id, tracer=None):
    """The package's command; returns its exit status (or the error) and
    time."""
    if tracer is not None:
        tracer.current_job = job_id
    return _call(session.mains["tokenchain"], job, session.workdir / "out",
                 session.workdir / "config.json")


def check_job(session, job, status, elapsed) -> Result:
    """The package's run of `job`, with its outputs checked."""
    out = session.workdir / "out"
    if status != 0:
        problems = [("failed", status)]
    else:
        try:
            problems = job.check(out, job.config)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [(checks.WRONG, f"unreadable output: {exc!r}")]
    size = sum(p.stat().st_size for p in out.iterdir())
    return Result(job.name, elapsed, job.work, problems, size)


def run_seed_job(session, job) -> float:
    """The frozen copy's run of the same command; returns its time."""
    status, elapsed = _call(session.mains["tokenchain_seed"], job,
                            session.workdir / "seed-out",
                            session.workdir / "seed-config.json")
    if status != 0:
        raise RuntimeError(f"{job.name} failed in tokenchain_seed: {status}")
    return elapsed


class Loop:
    """The one client: runs a workload's rounds and keeps every result."""

    def __init__(self, session, workload, seed):
        self.session = session
        self.workload = workload
        self.seed = seed
        self.results = []
        self.pairs = []   # (job, package s, frozen copy s, round index)

    def round(self, index, tracer=None, paired=False):
        """Round `index`, command after command; with `paired`, each one
        next to the copy's run of it, alternating which goes first.
        Returns the package's summed command time."""
        took = 0.0
        for k, job in enumerate(jobs.round_jobs(self.workload, self.seed,
                                                index, self.session.url)):
            seed_first = paired and (index + k) % 2 == 1
            if seed_first:
                seed_took = run_seed_job(self.session, job)
            status, elapsed = run_job(self.session, job, len(self.results),
                                      tracer)
            if paired and not seed_first:
                seed_took = run_seed_job(self.session, job)
            # checked after both runs, so that the same work lies between
            # them whichever goes first
            result = check_job(self.session, job, status, elapsed)
            self.results.append(result)
            took += result.seconds
            if paired:
                self.pairs.append((job.name, result.seconds, seed_took,
                                   index))
        return took


def measure(loop, seconds, started):
    """One warm-up round of the package alone, which sets the peak RSS,
    then paired rounds until the next would end more than half a round
    past `seconds` after `started`; returns the peak RSS (MiB) and the
    number of paired rounds."""
    loop.round(0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    index = 0
    while True:
        round_started = time.perf_counter()
        loop.round(index, paired=True)
        index += 1
        now = time.perf_counter()
        if now - started + (now - round_started) / 2 > seconds:
            return rss, index


def trace(loop, seconds, spec, record):
    """Untraced and traced rounds in turn, after one untimed warm-up round;
    returns the number of traced rounds and the per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    loop.round(0)
    plain, rounds, results = [], [], []
    served = collections.Counter()
    started = time.perf_counter()
    while True:
        plain.append(loop.round(len(plain)))
        before = loop.session.endpoint_stats()
        first = len(loop.results)
        tracer.install()
        try:
            rounds.append(loop.round(len(rounds), tracer))
        finally:
            tracer.uninstall()
        after = loop.session.endpoint_stats()
        served.update({k: after[k] - before[k] for k in after})
        results.extend(loop.results[first:])
        if time.perf_counter() - started + plain[-1] + rounds[-1] > seconds:
            break
    overhead = 100.0 * (statistics.median(rounds)
                        / statistics.median(plain) - 1.0)
    layers = tracer.layer_metrics(len(rounds),
                                  sum(r.output_bytes for r in results),
                                  served, overhead)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / "traces" / f"{loop.workload}-seed{loop.seed}.jsonl")
    record["untraced_round_s"] = statistics.median(plain)
    record["traced_round_s"] = statistics.median(rounds)
    record["layer_moves"] = {k: v[2] for k, v in tracing.LAYER_METRICS.items()}
    return len(rounds), _metric_block(spec["per_layer"], layers)


def setup_probe(workload, seed):
    """Seconds from starting a fresh interpreter until its set-up, with
    the package alone imported, is done."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not ready.strip():
        raise RuntimeError("set-up probe failed")
    return float(ready) - t0


def cmd_vs_seed(loop):
    """Per command, the median of its pair ratios, with the copy's median
    time for it."""
    ratios, seed_times = {}, {}
    for job, ours, seeds, _ in loop.pairs:
        ratios.setdefault(job, []).append(ours / seeds)
        seed_times.setdefault(job, []).append(seeds)
    return {job: (statistics.median(v), statistics.median(seed_times[job]),
                  len(v)) for job, v in ratios.items()}


def end_to_end(per_cmd, setup_samples, rss):
    """Each end-to-end metric with its sample count."""
    return {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "worst_cmd_vs_seed": max((m, n) for m, _, n in per_cmd.values()),
        "peak_rss_mib": (rss, 1),
    }


def pooled(per_cmd):
    """The round ratio, each command weighted by the copy's time for it,
    and the geometric mean of the per-command ratios."""
    weight = sum(w for _, w, _ in per_cmd.values())
    return {
        "round_vs_seed": sum(m * w for m, w, _ in per_cmd.values()) / weight,
        "cmd_geomean_vs_seed": math.exp(statistics.fmean(
            math.log(m) for m, _, _ in per_cmd.values())),
    }


def command_metrics(results):
    """The per-command wall-time metrics that apply to the workload."""
    out = {}
    for name, unit, names, reduce in COMMAND_METRICS:
        mine = [r for r in results if r.job in names]
        if not mine:
            continue
        if reduce == "rate":
            value = sum(r.work for r in mine) / sum(r.seconds for r in mine)
        else:
            value = statistics.median(r.seconds for r in mine)
        out[name] = {"value": value, "unit": unit, "samples": len(mine)}
    return out


def machine():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": {k: blas.get(k) for k in
                 ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def commit():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def _metric_block(spec, values):
    """The BENCHMARK.json metrics, in its order, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tokenchain" / "cli.py").is_file():
        print(f"perfbench: no tokenchain sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}, expected one "
              f"of {', '.join(jobs.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        session = Session(args.workload, args.seed, PACKAGES[:1])
        print(time.monotonic(), flush=True)
        session.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds}
    # the set-up probes count against --seconds, so that a run's length
    # does not grow with the machine's set-up time
    started = time.perf_counter()
    if not args.trace:
        setup_samples = [setup_probe(args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES)]
    session = Session(args.workload, args.seed)
    loop = Loop(session, args.workload, args.seed)
    try:
        if args.trace:
            rounds, metrics = trace(loop, args.seconds, spec, record)
        else:
            rss, rounds = measure(loop, args.seconds, started)
            per_cmd = cmd_vs_seed(loop)
            e2e = end_to_end(per_cmd, setup_samples, rss)
            metrics = _metric_block(spec["end_to_end"],
                                    {k: v for k, (v, _) in e2e.items()})
            record["samples"] = {k: n for k, (_, n) in e2e.items()}
            record["cmd_vs_seed"] = {job: {"median": m, "pairs": n}
                                     for job, (m, _, n) in per_cmd.items()}
            record["pooled"] = pooled(per_cmd)
            record["setup_probes_s"] = setup_samples
            record["pairs"] = loop.pairs
    finally:
        session.close()

    results = loop.results
    problems = [(r.job, kind, msg) for r in results for kind, msg in r.problems]
    attempted = len(results)
    failed = sum(1 for r in results if r.problems)
    correct = not any(kind == checks.WRONG for _, kind, _ in problems)
    record.update({
        "commit": commit(), "src_lines": src_lines(), "machine": machine(),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "correct": correct,
        "problems": problems[:20], "metrics": metrics,
        "command_metrics": command_metrics(results), "rounds": rounds,
    })
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{rounds} rounds, {attempted} commands, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f})")
    for job, kind, msg in problems[:20]:
        print(f"  {kind}: {job}: {msg}")
    for name, m in {**metrics, **record["command_metrics"]}.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for job, m in record.get("cmd_vs_seed", {}).items():
        print(f"  {job} vs seed = {m['median']:.4f} ({m['pairs']} pairs)")
    for name, value in record.get("pooled", {}).items():
        print(f"  {name} = {value:.4f} (not a metric)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
