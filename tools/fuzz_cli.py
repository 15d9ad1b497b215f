"""Run seeded random argv through the CLI and check its exit-code contract.

    python3 tools/fuzz_cli.py SEED COUNT

Each of COUNT argv is drawn with stdlib ``random`` at SEED over the five
commands' flags (``draw``), with edge values: sizes from 0 to 20 digits,
precisions from 7 to 10^7, n at, next to and far from 1, and malformed
numbers.  Each runs through ``cosprod.cli.main`` in this process, with its
output captured, under an alarm of ``ALARM_S`` seconds.  A run fails if it
exits outside {0, 1, 2, 3}, if an exception leaves ``cli.main``, or if it
is still running when the alarm rings: every argv the CLI admits must
finish.  The counts of each exit and every failure are printed; the exit
code is 1 if any run failed, else 0.  Stdlib only, like the package; POSIX
only, for the alarm.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from cosprod import cli  # noqa: E402

ALARM_S = 4
EXITS = {0, 1, 2, 3}
COMMANDS = ("coeffs", "lambda", "product", "verify", "rearrange")
# each command's flags past the common ones, as cli.build_parser declares them
FLAGS = {"coeffs": ("--m-max",), "lambda": ("--m-max", "--num-terms"),
         "product": ("--n", "--num-factors"),
         "verify": ("--n", "--num-factors", "--order"),
         "rearrange": ("--n", "--rows", "--order")}
MALFORMED = ("", " 5", "5 ", "1_0", "٣", "1e3", "2.5", "0x10", "--", "five",
             "5\n", "1/2/3", "3//2", "/2", "3/", "3/0", "-3/0", "3/-2")


class Alarm(Exception):
    """The run outlasted ALARM_S seconds."""


def _size(rng: random.Random) -> str:
    """A --m-max, --num-terms, --num-factors, --order or --rows."""
    kind = rng.randrange(8)
    if kind == 0:
        return str(rng.choice((0, -1, 1, 2, 255, 256, 257, 500, 501)))
    if kind == 1:
        return str(rng.randint(10**19, 10**20))  # 20 digits
    if kind == 2:
        return str(10 ** rng.randint(3, 9))
    if kind == 3:
        return rng.choice(MALFORMED)
    return str(rng.randint(1, rng.choice((10, 100, 1000, 100_000))))


def _precision(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        cap = cli.MAX_PRECISION_BITS
        return str(rng.choice((7, 8, 1024, 4096, 16384, cap, cap + 1, 10**6)))
    if kind == 1:
        return str(rng.randint(8, 10**7))
    if kind == 2:
        return rng.choice(MALFORMED)
    return str(rng.randint(8, rng.choice((64, 256, 2048))))


def _n(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:  # next to 1, from either side
        q = 10 ** rng.randint(1, 20)
        return f"{q + rng.choice((1, -1, 7))}/{q}"
    if kind == 1:  # huge
        return str(10 ** rng.randint(6, 40) + rng.randint(0, 9))
    if kind == 2:
        return rng.choice(MALFORMED + ("0", "-3", "1/2", "+3", "1", "1/1", "2/2"))
    q = rng.randint(1, 1000)
    return f"{q + rng.randint(1, 10 * q)}/{q}" if kind == 3 else str(rng.randint(1, 20))


def draw(rng: random.Random, out_dir: str) -> list[str]:
    """One argv: a command, each of its flags with probability 3/5 (--n 19/20)."""
    command = rng.choice(COMMANDS)
    argv = [command]
    for flag in FLAGS[command] + ("--precision", "--format", "--out"):
        if rng.random() >= (0.95 if flag == "--n" else 0.6 if flag != "--out" else 0.05):
            continue
        if flag == "--n":
            value = _n(rng)
        elif flag == "--precision":
            value = _precision(rng)
        elif flag == "--format":
            value = rng.choice(("table", "csv", "json", "xml"))
        elif flag == "--out":
            value = rng.choice((os.path.join(out_dir, "out.txt"),
                                os.path.join(out_dir, "missing", "out.txt")))
        else:
            value = _size(rng)
        argv += [flag, value]
    return argv


def _ring(signum, frame):
    raise Alarm


def run_one(argv: list[str]) -> tuple[object, float]:
    """The exit code of cli.main(argv), or the exception that left it, and the seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.setitimer(signal.ITIMER_REAL, ALARM_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                outcome: object = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                outcome = exc.code
    except Exception as exc:  # an Alarm, or a fault of the CLI
        outcome = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return outcome, time.perf_counter() - start


def fuzz(seed: int, count: int) -> int:
    """Run `count` argv drawn at `seed`; print the exits and failures; 1 if any failed."""
    rng = random.Random(seed)
    exits: Counter = Counter()
    failures = 0
    slowest = (0.0, [])
    with tempfile.TemporaryDirectory() as out_dir:
        for _ in range(count):
            argv = draw(rng, out_dir)
            outcome, seconds = run_one(argv)
            slowest = max(slowest, (seconds, argv))
            if outcome in EXITS:
                exits[outcome] += 1
                continue
            failures += 1
            why = (f"ran past {ALARM_S} s" if isinstance(outcome, Alarm)
                   else f"raised {outcome!r}" if isinstance(outcome, BaseException)
                   else f"exit {outcome}")
            print(f"FAIL: cosprod {' '.join(argv)}: {why}")
    print("exits: " + ", ".join(f"{code}: {exits[code]}" for code in sorted(EXITS)))
    print(f"slowest: {slowest[0]:.2f} s: cosprod {' '.join(slowest[1])}")
    print(f"{count} argv, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 tools/fuzz_cli.py SEED COUNT")
    sys.exit(fuzz(int(sys.argv[1]), int(sys.argv[2])))
