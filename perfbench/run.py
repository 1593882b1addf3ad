"""hybc benchmark runner.

    python3 -S perfbench/run.py --workload api-medium --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Inputs are generated from --seed with
hybc.generate_synthetic; nothing is downloaded. With --trace 0 the last
stdout line is a JSON result carrying every end-to-end metric named in
BENCHMARK.json; with --trace 1 it carries every per-layer metric, from a
separate traced run (perfbench/layers.py). Earlier lines print each metric by
name and unit, ops_failed_frac and the environment record. The full record,
and the spans of a traced run, are written under .perfbench/results/.

This process stays lean on purpose: it never imports hybc or holds a corpus,
because Linux carries a parent's high-water RSS into a forked child, and the
peak RSS of each child is read here from os.wait4. It pins itself and its
children to one CPU and brackets every child with the reference kernel of
plan.calibrate; times and rates are reported at the kernel's nominal speed
(perfbench/README.md says why).
"""
from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from pathlib import Path

import plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

CHILD_TIMEOUT_S = 60
TRACE_TIMEOUT_S = 170


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


# scale: the reference kernel time around the child over its nominal time.
Child = namedtuple("Child", "label wall_s scale code peak_mb out err")


class Runner:
    """Runs one child at a time and reads its wall time and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.children: list[Child] = []

    def run(self, label: str, args: list, timeout: float = CHILD_TIMEOUT_S) -> Child:
        ref = plan.calibrate()
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *map(str, args)], stdin=subprocess.DEVNULL,
                stdout=out, stderr=err, env=self.env, cwd=self.work,
            )
            try:
                signal.setitimer(signal.ITIMER_REAL, timeout)
                _, status, usage = os.wait4(proc.pid, 0)
            except ChildTimeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -signal.SIGKILL
                raise RuntimeError(f"{label}: no exit within {timeout} s") from None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        scale = (ref + plan.calibrate()) / 2 / plan.CAL_NOMINAL_S
        child = Child(
            label, wall, scale, proc.returncode, usage.ru_maxrss / 1024,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
        )
        self.children.append(child)
        return child

    def worker(self, label: str, args: list, timeout: float = CHILD_TIMEOUT_S) -> dict:
        child = self.run(label, [WORKER, *args], timeout)
        if child.code != 0:
            raise RuntimeError(f"{label} exited {child.code}:\n{child.err[-2000:]}")
        return json.loads(child.out.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    info = time.get_clock_info("perf_counter")
    return {
        "seed": seed,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "clock": {
            "name": "time.perf_counter",
            "implementation": info.implementation,
            "monotonic": info.monotonic,
            "resolution_s": info.resolution,
        },
    }


class ApiWorker:
    """The api-medium loop in one long-lived child. It sits blocked on its
    stdin between requests, so it uses no CPU while other children run."""

    def __init__(self, runner: Runner, corpus: Path):
        self._err = open(runner.work / "api.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "api", "--corpus", str(corpus)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._err,
            env=runner.env, cwd=runner.work, text=True,
        )

    def reply(self, rounds: int | None = None) -> dict:
        """The warm-up reply when rounds is None, else the reply to a request."""
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            if rounds is not None:
                self.proc.stdin.write(f"{rounds}\n")
                self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not line:
            raise RuntimeError(f"api worker exited; see {self._err.name}")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self._err.close()


def wall(child: Child) -> float:
    return child.wall_s


def scaled(child: Child) -> float:
    """Wall time at the reference kernel's nominal speed."""
    return child.wall_s / child.scale


def mean_over_groups(groups: dict[str, list[Child]], value) -> float:
    """Mean over chains (or hostile kinds) of each group's median, so the mix
    of slow and fast chains cannot shift the result."""
    return statistics.mean(statistics.median(map(value, g)) for g in groups.values())


def end_to_end(workload: str, seconds: int, runner: Runner, ledger: plan.Ledger,
               inputs: Path, work: Path) -> tuple[dict, dict]:
    per_round = plan.ROUNDS[workload]
    rounds = plan.rounds_for(seconds)
    details: dict = {"rounds": rounds, "per_round": per_round._asdict()}
    # setup_s: a fresh process becoming ready.
    setup_args = ["-c", "import hybc"] if workload == "api-medium" else ["-m", "hybc", "--version"]
    large = inputs / "large.txt"
    restored = work / "restored.txt"
    setup: list[Child] = []
    api_rates: dict[str, list[float]] = {"compress_mb_s": [], "decompress_mb_s": [], "reference": []}
    bench: list[Child] = []
    compress, decompress, reject = defaultdict(list), defaultdict(list), defaultdict(list)

    def cli_chain(name: str) -> None:
        container = work / "cli.hybc"
        child = runner.run("compress", ["-m", "hybc", "compress", "-p", name, large, container])
        ledger.check(child.code == 0, f"compress {name} exited {child.code}")
        compress[name].append(child)
        for _ in range(plan.CLI_DECODES_PER_CHAIN):
            restored.unlink(missing_ok=True)
            child = runner.run("decompress", ["-m", "hybc", "decompress", container, restored])
            ok = child.code == 0 and restored.exists() and filecmp.cmp(restored, large, shallow=False)
            ledger.check(ok, f"decompress {name} exited {child.code} or bytes differ")
            decompress[name].append(child)

    def cli_hostile(kind: str) -> None:
        child = runner.run("reject", ["-m", "hybc", "decompress", inputs / f"{kind}.hybc", work / "junk"])
        ok = child.code == 1 and "Traceback" not in child.err
        ledger.check(ok, f"hostile {kind} exited {child.code}")
        reject[kind].append(child)

    api = ApiWorker(runner, inputs / "medium.txt")
    try:
        warmup = api.reply()
        ledger.add(warmup)
        for r in range(rounds):
            for _ in range(per_round.setup_procs):
                child = runner.run("setup", setup_args)
                ledger.check(child.code == 0, f"setup exited {child.code}")
                setup.append(child)
            reply = api.reply(per_round.api_rounds)
            ledger.add(reply)
            for key, values in api_rates.items():
                values.extend(reply[key])
            chains, hostile = per_round.cli_chains, per_round.cli_hostile
            for k in range(r * chains, (r + 1) * chains):
                cli_chain(plan.CLI_PIPELINES[k % len(plan.CLI_PIPELINES)])
            for k in range(r * hostile, (r + 1) * hostile):
                cli_hostile(plan.HOSTILE[k % len(plan.HOSTILE)])
            if r % per_round.bench_every == 0:
                out = work / f"bench-{r}"
                child = runner.run("bench", ["-m", "hybc", "bench", inputs / "small.txt", "--out", out])
                ok = child.code == 0 and plan.read_ranking(out / "ranking_small.csv") is not None
                ledger.check(ok, f"bench exited {child.code} or wrote a malformed ranking")
                bench.append(child)
    finally:
        api.close()

    details["api_rates_per_round"] = api_rates
    details["raw_medians"] = {
        "setup_s": statistics.median(c.wall_s for c in setup),
        "compress_mb_s": statistics.median(api_rates["compress_mb_s"]),
        "decompress_mb_s": statistics.median(api_rates["decompress_mb_s"]),
        "bench_s": statistics.median(c.wall_s for c in bench),
        "cli_compress_s": mean_over_groups(compress, wall),
        "cli_decompress_s": mean_over_groups(decompress, wall),
        "cli_reject_s": mean_over_groups(reject, wall),
    }
    decode = sorted(scaled(c) for group in decompress.values() for c in group)
    tail = plan.tail_index(len(decode))
    if tail is None:
        raise RuntimeError("too few decompress samples for a tail percentile")
    details["cli_decompress_s_tail"] = {
        "percentile": 100 * (tail + 1) / len(decode),
        "samples": len(decode),
        "samples_beyond": len(decode) - 1 - tail,
    }
    cli_children = [c for groups in (compress, decompress, reject) for g in groups.values() for c in g]
    peaks = defaultdict(list)
    for child in cli_children:
        peaks[child.label].append(child.peak_mb)
    metrics = {
        "setup_s": statistics.median(scaled(c) for c in setup),
        "compress_mb_s": statistics.median(
            r * s for r, s in zip(api_rates["compress_mb_s"], api_rates["reference"])
        ),
        "decompress_mb_s": statistics.median(
            r * s for r, s in zip(api_rates["decompress_mb_s"], api_rates["reference"])
        ),
        "bench_s": statistics.median(scaled(c) for c in bench),
        "bench_peak_mb": statistics.median(c.peak_mb for c in bench),
        "cli_compress_s": mean_over_groups(compress, scaled),
        "cli_decompress_s": mean_over_groups(decompress, scaled),
        "cli_decompress_s_tail": decode[tail],
        "cli_compress_peak_mb": statistics.mean(peaks["compress"]),
        "cli_decompress_peak_mb": statistics.mean(peaks["decompress"]),
        "cli_reject_s": mean_over_groups(reject, scaled),
        "cli_reject_peak_mb": max(peaks["reject"]),
    }
    return metrics, details


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hybc" / "__init__.py").is_file():
        print(f"perfbench: no hybc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    started = time.perf_counter()
    env = environment(args.seed)
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    # One CPU for the runner and every child it starts (they inherit the
    # mask), so the reference kernel runs where the timed child runs.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    runner, ledger = Runner(work), plan.Ledger()
    try:
        inputs = work / "inputs"
        if args.trace:
            traced = runner.worker(
                "trace",
                ["trace", "--seed", args.seed, "--out", inputs,
                 "--spans", results_dir / f"spans-{tag}.json"],
                TRACE_TIMEOUT_S,
            )
            ledger.add(traced)
            metrics, details = traced["metrics"], traced["details"]
            env["library_versions"] = traced["library_versions"]
        else:
            gen = runner.worker("gen", ["gen", "--seed", args.seed, "--out", inputs])
            env["library_versions"] = gen["library_versions"]
            env["input_bytes"] = gen["sizes"]
            metrics, details = end_to_end(
                args.workload, args.seconds, runner, ledger, inputs, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    runner_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env["runner_peak_mb"] = runner_peak
    suspect = sorted({c.label for c in runner.children if c.peak_mb <= runner_peak})
    details["children_at_or_below_runner_peak"] = suspect
    details["elapsed_s"] = time.perf_counter() - started
    ops_failed_frac = ledger.failed / ledger.attempted

    print(f"perfbench {tag}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'ops_failed_frac':40s} {ops_failed_frac:14.6g} ({ledger.failed}/{ledger.attempted})")
    for error in ledger.errors[:20]:
        print(f"  failed: {error}")
    if suspect:
        print(f"  warning: peak RSS of {suspect} at or below the runner's {runner_peak:.1f} MB")
    print("environment: " + json.dumps(env))
    record = {
        "workload": args.workload,
        "environment": env,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "ops_failed_frac": ops_failed_frac,
        "errors": ledger.errors,
        "details": details,
        "children": [
            {"label": c.label, "wall_s": c.wall_s, "scale": c.scale, "code": c.code,
             "peak_mb": c.peak_mb}
            for c in runner.children
        ],
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
