"""Benchmark of the overlapfem CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/overlapfem``). Each
CLI command runs as its own process, ``python3 -m overlapfem.cli VERB CONFIG``
with ``PYTHONPATH=src``, one at a time, with the workload's number of BLAS
threads (``workloads.THREADS``) on that many CPUs. After one untimed import
that warms the file cache and bytecode, a round runs every command of the
workload once and checks every output. Rounds repeat while the next one is
expected to end within S seconds (at least one round).

``--trace 0`` reports the end-to-end metrics: import time of a fresh
interpreter (median of samples taken before each round and after the last),
median round wall time and the largest peak RSS of any CLI process. The two
times are scaled to the reference interpreter speed, measured with
:func:`calibrate` during the run; round time only on the workloads whose
time is in the interpreter (README.md, "Machine speed"). ``--trace 1`` pairs
each untraced round with a traced one (``tracer.py``), requires
byte-identical CSV output from both and reports per-layer self times,
counters and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (an operation is a CLI command or a check) and
``metrics``.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import THREADS, WORKLOADS, CheckError

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
ALL_CPUS = sorted(os.sched_getaffinity(0))
# Import samples taken before each round and after the last one, so that
# setup_s sees the machine over the same stretch of time as wall_s.
SETUP_PER_GAP = 2
# The machine's speed at interpreter-bound code drifts by a third or more over
# minutes; BLAS code drifts much less (README.md, "Machine speed"). This
# process times a fixed pure-Python loop of CALIBRATION_LOOPS iterations
# before each round's import samples, before each command, and before and
# after the last import samples; it takes CALIBRATION_REF_S at the reference
# speed.
CALIBRATION_LOOPS = 1_000_000
CALIBRATION_REF_S = 0.1
# The running process is killed once the run is this old, so a run ends within 180 s.
RUN_DEADLINE_S = 170.0


class Timeout(Exception):
    pass


def _on_alarm(*_):
    raise Timeout("still running at the run deadline")


def use_cpus(threads):
    """Keep this process and the processes it starts on the last ``threads``
    CPUs available at start; return how many that is."""
    cpus = ALL_CPUS[-threads:]
    os.sched_setaffinity(0, cpus)
    return len(cpus)


def child_env(root, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_process(argv, cwd, env, log_path):
    """Run one process to its end; return (exit code, wall seconds, peak RSS in KiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # the run deadline or SIGTERM
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss


def calibrate():
    """Wall seconds of the fixed pure-Python loop in this process."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def measure_setup(root, env, samples, count=SETUP_PER_GAP):
    """Append to ``samples`` the wall seconds of fresh interpreters importing overlapfem."""
    for _ in range(count):
        code, wall, _ = run_process(
            [sys.executable, "-c", "import overlapfem"], root, env,
            root / WORK_DIR / "setup.log",
        )
        if code != 0:
            raise SystemExit("importing overlapfem failed, see %s/setup.log" % WORK_DIR)
        samples.append(wall)


class Run:
    """Runs a workload's commands and checks, counting operations and failures."""

    def __init__(self, workdir, commands, env):
        self.workdir = workdir
        self.commands = commands
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.correct = True  # no check failed on an output that was produced

    def _fail(self, what):
        self.failed += 1
        print("FAILED: %s" % what, file=sys.stderr)

    def round(self, traced=False, calibrations=None):
        """Run every command once, timing :func:`calibrate` before each one into
        ``calibrations`` if given; return (wall seconds, peak KiB, outputs, span docs)."""
        wall, peak, outputs, docs = 0.0, 0, {}, []
        for cmd in self.commands:
            if calibrations is not None:
                calibrations.append(calibrate())
            tag = "%s%s" % (cmd.verb, ".traced" if traced else "")
            spans = self.workdir / (tag + ".spans.json")
            out = self.workdir / cmd.output
            out.unlink(missing_ok=True)
            argv = [sys.executable, "-m", "overlapfem.cli", cmd.verb, cmd.config]
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans)] + argv[3:]
            self.attempted += 1
            code, seconds, rss = run_process(
                argv, self.workdir, self.env, self.workdir / (tag + ".log")
            )
            wall += seconds
            peak = max(peak, rss)
            if code != 0 or not out.is_file():
                self._fail("%s exited with %d, see %s" % (tag, code, self.workdir / (tag + ".log")))
                outputs[cmd.output] = None
                continue
            outputs[cmd.output] = out.read_bytes()
            if traced:
                docs.append(json.loads(spans.read_text()))
        return wall, peak, outputs, docs

    def check(self, outputs):
        for cmd in self.commands:
            data = outputs[cmd.output]
            for check in cmd.checks:
                self.attempted += 1
                if data is None:
                    self._fail("%s: no output to check" % check.name)
                    continue
                try:
                    check.verify(data.decode())
                except CheckError as exc:
                    self._fail("%s: %s" % (check.name, exc))
                    self.correct = False

    def compare(self, untraced, traced):
        """The traced run must write the same bytes as the untraced one."""
        for name, data in untraced.items():
            self.attempted += 1
            if data is None or traced[name] != data:
                self._fail("traced %s differs from the untraced output" % name)
                if data is not None and traced[name] is not None:
                    self.correct = False


def repeat_rounds(seconds, one_round):
    """Call ``one_round`` while the next call is expected to end within ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        one_round()
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def end_to_end(run, root, seconds, scale_wall):
    """Times at the reference interpreter speed: setup_s always, wall_s if
    ``scale_wall`` (an interpreter-bound workload)."""
    setup, walls, peaks, calibrations = [], [], [], []

    def one_round():
        calibrations.append(calibrate())
        measure_setup(root, run.env, setup)
        wall, peak, outputs, _ = run.round(calibrations=calibrations)
        run.check(outputs)
        print("round %d: %.3f s" % (len(walls) + 1, wall), file=sys.stderr)
        walls.append(wall)
        peaks.append(peak)

    repeat_rounds(seconds, one_round)
    calibrations.append(calibrate())
    measure_setup(root, run.env, setup)
    calibrations.append(calibrate())
    speed = CALIBRATION_REF_S / statistics.median(calibrations)
    setup_s, wall_s = statistics.median(setup), statistics.median(walls)
    print("as measured: setup_s %.4f s, wall_s %.3f s; interpreter speed %.3f"
          % (setup_s, wall_s, speed), file=sys.stderr)
    return {
        "setup_s": (setup_s * speed, "s"),
        "wall_s": (wall_s * speed if scale_wall else wall_s, "s"),
        "peak_rss_mb": (max(peaks) * 1024 / 1e6, "MB"),
    }


def per_layer(run, seconds):
    rounds, overheads = [], []

    def one_round():
        wall, _, outputs, _ = run.round()
        run.check(outputs)
        traced_wall, _, traced_outputs, docs = run.round(traced=True)
        run.compare(outputs, traced_outputs)
        print("round %d: %.3f s, traced %.3f s" % (len(rounds) + 1, wall, traced_wall),
              file=sys.stderr)
        rounds.append(tracer.layer_metrics(docs))
        overheads.append(traced_wall - wall)

    repeat_rounds(seconds, one_round)
    metrics = {
        name: (statistics.median(r[name][0] for r in rounds), unit)
        for name, (_, unit) in rounds[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM or at the deadline, unwind so that run_process kills the process it waits for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "overlapfem" / "cli.py").is_file():
        print("run.py: no src/overlapfem here; run it from the root of an overlapfem "
              "checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, RUN_DEADLINE_S)
    workdir = root / WORK_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = WORKLOADS[args.workload](random.Random(args.seed), workdir, tiny=False)
    run = Run(workdir, commands, child_env(root, use_cpus(THREADS[args.workload])))
    try:
        measure_setup(root, run.env, [], count=1)  # warm-up, not reported
        if args.trace:
            metrics = per_layer(run, args.seconds)
        else:
            metrics = end_to_end(run, root, args.seconds, THREADS[args.workload] == 1)
    except Timeout as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
