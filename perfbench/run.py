"""grng benchmark: one closed-loop client driving the grng CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client runs one child process at a time and starts the next only when
the previous one has exited (the reference machine has 2 vCPUs).  Each
CLI command runs as `python3 -c "from grng.cli import main; ..."` with the
checkout's `src` on PYTHONPATH, exactly as the installed `grng` script.

--trace 0 repeats the workload's command sequence for S seconds (at least
once), gates every output and prints the end-to-end metrics.  Outputs of a
repeated command or set-up probe must hash the same as its first run.
--trace 1 runs the sequence in one child process under traced.py and
prints the per-layer metrics.  The last line
of stdout is the result object; the line before it carries provenance,
timing summaries, verdicts and failure messages.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import layers
import selftest
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI_MAIN = "import sys; from grng.cli import main; sys.exit(main())"
DEADLINE_MARGIN_S = 120.0  # children still running this long after --seconds
                           # are killed and fail
STARTUP_PROBES = 3
MAX_MESSAGES = 20


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, failures, attempted=1, failed=None):
        self.attempted += attempted
        self.failed += (1 if failures else 0) if failed is None else failed
        self.messages.extend(failures[:MAX_MESSAGES - len(self.messages)])


class Client:
    """Runs grng children one at a time, recording wall time and max RSS."""

    def __init__(self, work, seconds):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.peak_rss_mb = 0.0
        self.deadline = time.perf_counter() + seconds + DEADLINE_MARGIN_S

    def spawn(self, args, *, program=True):
        """Run `python3 ARGS`; returns (exit code, wall s, stdout, stderr tail).

        `program` marks children whose memory counts toward peak_rss_mb.
        """
        with open(self.work / "child.out", "w+b") as out, \
                open(self.work / "child.err", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *map(str, args)], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            try:
                fd = os.pidfd_open(proc.pid)
                try:
                    timeout = max(0.0, self.deadline - time.perf_counter())
                    if not select.select([fd], [], [], timeout)[0]:
                        proc.kill()
                finally:
                    os.close(fd)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            if program:
                self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
            out.seek(0)
            err.seek(0)
            return (proc.returncode, wall, out.read().decode(),
                    err.read().decode(errors="replace")[-400:].strip())

    def cli(self, cmd):
        return self.spawn(["-c", CLI_MAIN, *cmd.argv])

    def probe(self, ledger, code):
        """Wall time of a child that only runs `code`, e.g. an import."""
        rc, wall, _out, err = self.spawn(["-c", code])
        ledger.add([f"`python -c {code!r}` exited {rc}: {err}"] if rc else [])
        return wall


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it, count."""
    out = {"median": statistics.median(values) if values else None,
           "count": len(values), "percentile": None, "value": None}
    for pct in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            ordered = sorted(values)
            out["percentile"] = pct
            out["value"] = ordered[min(len(values) - 1, int(len(values) * pct / 100))]
            break
    return out


def rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def run_command(client, ledger, cmd, first=None):
    """One CLI command: exit code, then the content gate or the same-seed hash."""
    rc, wall, _out, err = client.cli(cmd)
    verdicts = None
    if rc:
        failures, digest = [f"grng {' '.join(map(str, cmd.argv))} exited {rc}: {err}"], None
    else:
        digest = checks.sha256(cmd.outputs)
        if first is None:
            failures, verdicts = cmd.check()
        else:
            failures = [] if digest == first else [
                f"{cmd.outputs[0]}: output differs from the first run with the same seed"]
    ledger.add(failures)
    return wall, digest, verdicts


def replay(client, ledger, target):
    """Recompute a gen output's first passes through run_graph; (passes, seconds)."""
    rc, _wall, out, err = client.spawn([HERE / "graph.py", *target], program=False)
    if rc:
        ledger.add([f"graph replay of {target[0]} exited {rc}: {err}"])
        return 0, 0.0
    return record_replay(ledger, json.loads(out))


def record_replay(ledger, res):
    ledger.add(res["failures"], attempted=res["passes"], failed=res["failed"])
    return res["passes"], res["seconds"]


def measure(wl, seconds, client, ledger, detail):
    """Repeat the command sequence for about `seconds`.  Set-up probes and
    the run_graph replay of each gen output run between commands, so that
    they sample the whole run."""
    digests = {}

    def probe(i):
        j = i % len(wl.setup)
        wall, digests[j], _ = run_command(client, ledger, wl.setup[j], digests.get(j))
        return wall

    probe(0)                              # unmeasured: fills the bytecode cache
    setup, pending = [], list(range(workloads.SETUP_PROBES))
    iteration_s = 0.0
    passes, graph_s = 0, 0.0
    walls = {"gen": [], "test": []}
    samples = {"gen": 0, "test": 0}
    sequences, first = [], None
    start = time.perf_counter()
    # stop before a pass that would end more than half a pass after `seconds`
    while not sequences or time.perf_counter() - start + iteration_s / 2 < seconds:
        began = time.perf_counter()
        digests_now, total = [], 0.0
        for i, cmd in enumerate(wl.commands):
            wall, digest, verdicts = run_command(client, ledger, cmd,
                                                 first[i] if first else None)
            if verdicts:
                detail["verdicts"][Path(cmd.outputs[0]).name] = verdicts
            digests_now.append(digest)
            walls[cmd.role].append(wall)
            samples[cmd.role] += cmd.samples
            total += wall
            if cmd.replay and digest:
                p, s = replay(client, ledger, [cmd.outputs[0], *cmd.replay])
                passes, graph_s = passes + p, graph_s + s
            # pace the probes over the run
            elapsed = time.perf_counter() - start
            if pending and len(setup) < workloads.SETUP_PROBES * elapsed / seconds:
                setup.append(probe(pending.pop()))
        first = first or digests_now
        sequences.append(total)
        iteration_s = time.perf_counter() - began
    setup.extend(probe(i) for i in pending)
    detail["timings"] = {"sequence_s": summary(sequences), "gen_command_s":
                         summary(walls["gen"]), "test_command_s": summary(walls["test"]),
                         "setup_s": summary(setup)}
    return {
        "e2e_s": (statistics.median(sequences), "s"),
        "gen_msamples_per_s": (rate(samples["gen"], sum(walls["gen"])) / 1e6, "Msamples/s"),
        "test_msamples_per_s": (rate(samples["test"], sum(walls["test"])) / 1e6, "Msamples/s"),
        "graph_passes_per_s": (rate(passes, graph_s), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (client.peak_rss_mb, "MB"),
    }


def measure_traced(wl, seed, client, ledger, detail):
    startup = [client.probe(ledger, "import grng.cli") for _ in range(STARTUP_PROBES)]
    rc, _wall, out, err = client.spawn([HERE / "traced.py", wl.name, seed, client.work])
    if rc:
        ledger.add([f"traced run exited {rc}: {err}"])
        return layers.per_layer([], statistics.median(startup), 0.0)
    data = json.loads(out)
    untraced, traced = data["untraced"], data["traced"]
    for cmd, plain, spanned in zip(wl.commands, untraced, traced):
        codes = (plain["code"], spanned["code"])
        if any(codes):
            ledger.add([f"grng {' '.join(map(str, cmd.argv))} returned {codes}"],
                       attempted=2, failed=sum(c != 0 for c in codes))
            continue
        failures, verdicts = cmd.check()
        if plain["hash"] != spanned["hash"]:
            failures.append(f"{cmd.outputs[0]}: traced and untraced outputs differ")
        ledger.add(failures, attempted=2, failed=2 if failures else 0)
        if verdicts:
            detail["verdicts"][Path(cmd.outputs[0]).name] = verdicts
    for res in data["replay"]:
        record_replay(ledger, res)
    detail["timings"] = {"untraced_s": data["untraced_s"], "traced_s": data["traced_s"],
                         "cli_startup_s": summary(startup)}
    return layers.per_layer(data["spans"], statistics.median(startup),
                            rate(data["traced_s"], data["untraced_s"]))


def git_commit():
    """Commit of the checkout when it is a git work tree of its own, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance():
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.machine()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "commit": git_commit()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit on SIGTERM lets Client.spawn kill and reap its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "grng" / "cli.py").is_file():
        print(f"error: no grng sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        problems = selftest.run(work)
        if problems:
            print("error: output gate self-test failed: " + "; ".join(problems),
                  file=sys.stderr)
            return 3
        wl = workloads.build(args.workload, args.seed, work)
        client, ledger = Client(work, args.seconds), Ledger()
        detail = {"workload": wl.name, "seed": args.seed, "n": wl.n, "trace": args.trace,
                  "provenance": provenance(), "verdicts": {}}
        if args.trace:
            metrics = measure_traced(wl, args.seed, client, ledger, detail)
        else:
            metrics = measure(wl, args.seconds, client, ledger, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["failed_ratio"] = rate(ledger.failed, ledger.attempted)
    detail["failures"] = ledger.messages
    print(json.dumps(detail))
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
