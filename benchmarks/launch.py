"""Start one command and report its exit code and its own peak RSS.

    python3 -I -S benchmarks/launch.py REPORT_FD PROGRAM [ARG ...]

Linux counts the memory of the process a command was forked from into the
command's peak RSS (at exec, the old address space's high-water mark is
kept).  The benchmark's client holds the outputs it checks, so a command it
started itself would report at least the client's own peak.  This launcher
stays small: it writes a line to REPORT_FD just before it forks the command,
reaps the command with ``os.wait4`` and writes ``<exit code> <peak RSS KiB>``.
SIGTERM sent to the launcher is passed on to the command.
"""

import os
import signal
import sys


def main() -> None:
    report = int(sys.argv[1])
    argv = sys.argv[2:]
    os.write(report, b"start\n")
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGTERM))
    # Let the command hold the standard streams alone, so its output ends at its exit.
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(devnull, fd)
    _, status, usage = os.wait4(pid, 0)
    os.write(report, f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n".encode())


if __name__ == "__main__":
    main()
