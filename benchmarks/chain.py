"""Running `heavytails` commands: as subprocesses, the way users run them,
or in process through `heavytails.cli.main` for the traced run."""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# What the `heavytails` console script runs (the checkout is not installed),
# plus a report of peak RSS at exit.  The kernel seeds a process's
# ru_maxrss at exec with the RSS of the process that spawned it, so the
# command reports its own high-water mark, VmHWM, and the largest of the
# pool workers it reaped.  The first argument names the file to write.
LAUNCHER = """
import sys
rss_path = sys.argv.pop(1)
sys.argv[0] = "heavytails"
try:
    from heavytails.cli import entry
    entry()
finally:
    import resource
    with open("/proc/self/status", encoding="ascii") as fh:
        hwm = next(int(line.split()[1]) for line in fh
                   if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(rss_path, "w", encoding="ascii") as fh:
        fh.write(f"{max(hwm, kids)}\\n")
"""


@dataclass(frozen=True)
class CommandResult:
    argv: tuple
    returncode: int
    wall_s: float
    maxrss_mb: float   # the process and every pool worker it reaped
    stdout: str
    stderr: str


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def run_command(argv, cwd: Path, env: dict, deadline: float) -> CommandResult:
    """Run one command in a fresh interpreter and wait for it to exit.

    The command is killed, with any workers, at ``deadline`` (a
    ``time.perf_counter`` value).
    """
    out_path, err_path = cwd / ".cmd.stdout", cwd / ".cmd.stderr"
    rss_path = cwd / ".cmd.rss"
    rss_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, str(rss_path), *argv],
            cwd=cwd, env=env, stdout=out, stderr=err, start_new_session=True)
        watchdog = threading.Timer(max(0.0, deadline - start), _kill_group,
                                   (proc.pid,))
        watchdog.start()
        try:
            # wait without reaping, so the group id cannot be reused before
            # any worker a failed command left behind is killed
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
            watchdog.join()
        _kill_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(
            os.waitpid(proc.pid, 0)[1])
    rss_kb = (int(rss_path.read_text(encoding="ascii"))
              if rss_path.exists() else 0)
    return CommandResult(tuple(argv), proc.returncode, wall, rss_kb / 1024.0,
                         out_path.read_text(encoding="utf-8", errors="replace"),
                         err_path.read_text(encoding="utf-8", errors="replace"))


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def run_chain(commands, cwd: Path, env: dict,
              deadline: float) -> tuple[list, float]:
    """Run a chain of commands in order; return results and chain wall time."""
    cwd.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    results = [run_command(argv, cwd, env, deadline) for argv in commands]
    return results, time.perf_counter() - start


def run_inprocess(main, commands, cwd: Path, span=None) -> tuple[list, float]:
    """Run a chain through ``main(argv)`` in this process.

    Returns ``([(returncode, stdout), ...], wall_s)``; ``span(name, layer)``
    wraps each command when tracing.  Output is captured so that it never
    mixes with the benchmark's own.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    codes = []
    here = Path.cwd()
    os.chdir(cwd)
    try:
        start = time.perf_counter()
        for argv in commands:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(io.StringIO()):
                scope = (span(f"cli.{argv[0]}", "cli") if span
                         else contextlib.nullcontext())
                with scope:
                    try:
                        code = main(list(argv))
                    except SystemExit as exc:  # argparse rejects argv
                        code = exc.code
                codes.append((code, sink.getvalue()))
        wall = time.perf_counter() - start
    finally:
        os.chdir(here)
    return codes, wall
