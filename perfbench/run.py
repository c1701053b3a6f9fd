"""Benchmark of the sdlap CLI.

Run from the repository root:

    python3 perfbench/run.py --workload balance-mixed --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: every command is a fresh
``python -m sdlap.cli ...`` process with PYTHONPATH=src, started only
after the previous one has ended. A run makes whole passes over the
workload's commands; the number of passes is --seconds divided by the
workload's pass time at the seed commit, so every commit runs the same
commands. Outputs are checked against the references in ``oracle.py``
outside the timed region.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from one pass run in-process under
the wrappers of ``spans.py``, next to one untraced in-process pass.
See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS, InputGraph, input_properties

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170


def host_ref_loop() -> float:
    """Fixed pure-Python plus numpy work; reported so that a slow host
    shows, never used to rescale a metric."""
    a = np.random.default_rng(0).standard_normal((300, 300))
    start = perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    for _ in range(20):
        np.sort(a @ a.T, axis=1)
    return perf_counter() - start


class Client:
    """Runs CLI commands as child processes, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str], stdout_path: Path):
        """Returns (wall seconds, exit code, peak RSS in MB)."""
        with open(stdout_path, "wb") as out, open(self.work / "stderr.txt", "ab") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env,
                                    stdout=out, stderr=err, cwd=ROOT)
            killer = threading.Timer(max(1.0, self.deadline - perf_counter()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def tail(samples, per_command):
    """(value, label): the highest percentile with at least 10 samples
    beyond it. Below 20 samples that percentile would not exceed the
    median, so the tail is then the median latency of the slowest command
    of the pass."""
    ranked = sorted(samples)
    n = len(ranked)
    if n >= 20:
        return ranked[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} samples"
    return max(per_command), f"median of the slowest command ({n} samples)"


def _write_inputs(specs, work: Path):
    graphs = {}
    for spec in specs:
        text = spec.build()
        path = work / f"{spec.name}.txt"
        path.write_text(text, encoding="utf-8")
        graphs[spec.name] = InputGraph(spec, path, text)
    return graphs


def _output_text(command, code: int, stdout: str) -> str | None:
    """What the check reads: the --out file, else stdout; None on failure."""
    if code != 0:
        return None
    return command.out.read_text(encoding="utf-8") if command.out else stdout


def _check(command, text):
    try:
        return command.check(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


class Outcomes:
    """Counts attempted and failed commands, and runs each command's
    negative controls on its first correct output."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.controls = {}

    def record(self, command, code: int, text: str | None):
        self.attempted += 1
        error = f"exit code {code}" if code != 0 else _check(command, text)
        if error is not None:
            self.failures.append(f"{' '.join(command.argv)}: {error}")
            return
        for label, corrupt in command.controls.items():
            key = (tuple(command.argv), label)
            if key not in self.controls:
                self.controls[key] = _check(command, corrupt(text)) is not None

    @property
    def controls_ok(self) -> bool:
        return all(self.controls.values())

    def report(self):
        for failure in self.failures[:10]:
            print(f"FAILED {failure}")
        labels = sorted({label for _, label in self.controls})
        for label in labels:
            results = [caught for (_, lab), caught in self.controls.items() if lab == label]
            print(f"negative control {label!r}: {sum(results)} of {len(results)} "
                  f"counted as error")


def end_to_end(workload, seconds: int, work: Path, client: Client, commands,
               setup_s: float):
    passes = max(1, round(seconds / workload.pass_s))
    latencies = [[] for _ in commands]
    rss = []
    outcomes = Outcomes()
    stdout_path = work / "stdout.txt"
    for _ in range(passes):
        for command, samples in zip(commands, latencies):
            if perf_counter() > client.deadline:
                break
            wall, code, peak = client.run(["-m", "sdlap.cli", *command.argv], stdout_path)
            text = _output_text(command, code, stdout_path.read_text(encoding="utf-8"))
            samples.append(wall)
            rss.append(peak)
            outcomes.record(command, code, text)
    # Each timing metric starts from per-command medians over the passes,
    # which damp a short slow spell of the host.
    per_command = [statistics.median(s) for s in latencies if s]
    flat = [x for s in latencies for x in s]
    value, label = tail(flat, per_command)
    failed = len(outcomes.failures)
    metrics = {
        "cmds_per_s": (len(per_command) / sum(per_command), "1/s"),
        "latency_p50_s": (statistics.median(per_command), "s"),
        "latency_tail_s": (value, "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_frac": (1.0 - failed / outcomes.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    for command, samples in zip(commands, latencies):
        shown = " ".join(command.argv).replace(f"{work}/", "")
        print(f"command median {statistics.median(samples or [0]):.4f} s: sdlap {shown}")
    print(f"passes {passes}, {len(flat)} commands, one client, closed loop")
    for name, (val, unit) in metrics.items():
        print(f"{name} {val:.6g} {unit}")
    print(f"latency_tail_s is the {label}")
    print(f"error_frac {failed / outcomes.attempted:.6g} ({failed} of {outcomes.attempted})")
    outcomes.report()
    return metrics, outcomes


def _in_process(cli_main, argv):
    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return perf_counter() - start, code, buf.getvalue()


def per_layer(work: Path, client: Client, graphs, commands):
    import sdlap.cli

    probe = ("import time; t = time.perf_counter(); import sdlap.cli; "
             "print(time.perf_counter() - t)")
    imports = []
    for _ in range(IMPORT_REPEATS):
        client.run(["-c", probe], work / "import.txt")
        imports.append(float((work / "import.txt").read_text()))

    outcomes = Outcomes()
    plain_s = traced_s = 0.0
    tracer = spans.Tracer()
    for command in commands:
        # An untimed first call, so that neither timed call runs cold.
        _in_process(sdlap.cli.main, command.argv)
        wall, code, stdout = _in_process(sdlap.cli.main, command.argv)
        plain_s += wall
        outcomes.record(command, code, _output_text(command, code, stdout))
        with tracer:
            wall, code, stdout = _in_process(sdlap.cli.main, command.argv)
        traced_s += wall
        outcomes.record(command, code, _output_text(command, code, stdout))
    metrics = tracer.metrics(len(commands))
    metrics["balance.balanced_share"] = input_properties(graphs)["balanced_share"]
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = traced_s - plain_s
    outcomes.report()
    print(f"in-process pass {plain_s:.4f} s untraced, {traced_s:.4f} s traced")
    return metrics, outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + RUN_LIMIT_S
    if not (SRC / "sdlap" / "cli.py").is_file():
        print(f"sdlap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sdlap  # noqa: F401  (imported here so that no set-up time includes it)

    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        client = Client(work, deadline)
        host_s = statistics.median(host_ref_loop() for _ in range(3))
        print(f"host.ref_loop_s {host_s:.6g} s")

        specs, params = workload.plan(random.Random(args.seed))
        setup = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            graphs = _write_inputs(specs, work)
            # Warm-up: one fresh process that imports the whole package,
            # so bytecode caches exist before the first timed command.
            _, code, _ = client.run(["-m", "sdlap.cli", "--help"], work / "help.txt")
            setup.append(perf_counter() - start)
            if code != 0:
                print("warm-up command failed", file=sys.stderr)
                return 1
        commands = workload.commands(graphs, params, work)

        if args.trace:
            values, outcomes = per_layer(work, client, graphs, commands)
            values["host.ref_loop_s"] = host_s
            metrics = {k: {"value": values[k], "unit": unit}
                       for k, (unit, _) in spans.PER_LAYER.items()}
            for name, m in metrics.items():
                print(f"{name} {m['value']:.6g} {m['unit']}")
        else:
            values, outcomes = end_to_end(workload, args.seconds, work, client, commands,
                                          statistics.median(setup))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        print("inputs " + json.dumps(input_properties(graphs)))
        result = {
            "correct": not outcomes.failures and outcomes.controls_ok,
            "attempted": outcomes.attempted,
            "failed": len(outcomes.failures),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()


if __name__ == "__main__":
    sys.exit(main())
