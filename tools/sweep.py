"""Run one fixed grid of CLI invocations through two source trees and compare.

    python3 tools/sweep.py REV

REV's ``src/`` is extracted with ``git archive`` (local, no network) into a
temporary directory; the other tree is this checkout's ``src/``, as it is on
disk.  Each tree runs the whole grid (``grid()``, over 1,000 runs of all five
commands) in a process of its own, through ``cosprod.cli.main`` in process,
and each run is classed as

    identical  stdout, stderr and exit code byte for byte;
    nested     the same exit code and stderr, and output in which every
               interval lies inside the old one (``classify``), read from
               JSON, a table or CSV alike (``parse``);
    different  anything else.

The counts and every different run are printed; the exit code is 1 if any
run is different, else 0.  Stdlib only, like the package.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# one run: (exit code, stdout, stderr)
Run = tuple[int, str, str]

# a row's interval fields: a value and its bound; a row with a bound may
# also print the two ends of the same ball
PAIRS = (("value", "bound"), ("value", "total_bound"), ("lambda_2m", "lambda_bound"),
         ("direct", "direct_bound"), ("closed_form", "closed_bound"))
ENDS = ("low", "high")

_WORKER = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import sweep; "
           "json.dump(sweep.run_all(json.load(sys.stdin)), sys.stdout)")


def grid() -> list[list[str]]:
    """The fixed list of argument vectors, 1,575 of them, in order.

    verify at 16 n from 1 + 10^-8 to 10^16, 7 precisions from 8 to 1024
    bits and 6 orders from 1 to 100 (672), 600 seeded verify runs, six at
    4096 bits, and twelve at 2048, 8192 and 16,384 bits, where the
    cosine's halvings and terms move most; coeffs at M = 190..210 and at
    M = 250 at seven precisions; lambda at M up to 60, where the high
    levels of its one pass over k die in the first chunk of 256 odd d,
    and at 255, 256, 257 and 100,000 terms, across the chunk edges;
    product and rearrange over their own grids, and rearrange at 50 rows,
    orders 40 and 100 and 1024 and 4096 bits, where the column error's
    denominators are longest; ten commands in table, CSV and JSON; and the
    usage and domain errors of each kind.
    """
    near = ["100000001/100000000", "10001/10000", "1001/1000", "101/100"]
    ns = near + ["11/10", "81/64", "5/4", "3/2", "2", "3", "5", "7", "10",
                 "100", "1000000", "10000000000000000"]
    runs = [["verify", "--n", n, "--num-factors", "100", "--order", str(order),
             "--precision", str(bits)]
            for n in ns for bits in (8, 16, 32, 64, 128, 256, 1024)
            for order in (1, 2, 5, 10, 30, 100)]
    rng = random.Random(2222)
    for _ in range(600):
        q = rng.choice((1, 2, 3, 7, 10, 64, 100, 1000, 10**6))
        p = q + rng.choice((1, rng.randint(1, q), rng.randint(q, 100 * q)))
        runs.append(["verify", "--n", f"{p}/{q}",
                     "--num-factors", str(rng.randint(1, 2000)),
                     "--order", str(rng.randint(1, 100)),
                     "--precision", str(rng.randint(8, 1024))])
    runs += [["verify", "--n", n, "--num-factors", "1000", "--order", "40",
              "--precision", "4096"]
             for n in ("11/10", "3/2", "5", "7", "100", "10000000000000000")]
    runs += [["verify", "--n", n, "--num-factors", "10", "--order", "5",
              "--precision", str(bits)]
             for bits in (2048, 8192, 16384)
             for n in ("11/10", "3/2", "7", "10000000000000000")]
    runs += [["coeffs", "--m-max", str(m)] for m in range(190, 211)]
    runs += [["coeffs", "--m-max", "250", "--precision", str(bits)]
             for bits in (8, 16, 17, 64, 128, 300, 1024)]
    runs += [["lambda", "--m-max", str(m), "--num-terms", str(terms),
              "--precision", str(bits)]
             for m in (1, 5, 10, 20, 40, 60) for terms in (100, 10000)
             for bits in (8, 19, 64, 128, 300)]
    runs += [["lambda", "--m-max", str(m), "--num-terms", str(terms),
              "--precision", "128"]
             for m in (1, 5, 10) for terms in (255, 256, 257, 100000)]
    runs += [["product", "--n", n, "--num-factors", str(factors),
              "--precision", str(bits)]
             for n in ("1", "101/100", "11/10", "3/2", "3", "7", "100",
                       "10000000000000000")
             for factors in (17, 1000) for bits in (8, 64, 128, 1024)]
    runs += [["rearrange", "--n", n, "--rows", str(rows), "--order", "20",
              "--precision", str(bits)]
             for n in ("11/10", "81/64", "5/4", "3/2", "2", "3", "10", "1000000")
             for rows in (50, 1000) for bits in (8, 64, 128, 512)]
    runs += [["rearrange", "--n", n, "--rows", "50", "--order", str(order),
              "--precision", str(bits)]
             for n in ("5/4", "3/2", "10", "1000000", "10000000000000000")
             for order in (40, 100) for bits in (1024, 4096)]
    every_format = [["coeffs"], ["coeffs", "--m-max", "40", "--precision", "300"],
                    ["lambda", "--num-terms", "1000"], ["product", "--n", "3"],
                    ["product", "--n", "1", "--num-factors", "64"],
                    ["verify", "--n", "3"], ["verify", "--n", "11/10", "--order", "60"],
                    ["verify", "--n", "3/2", "--num-factors", "1000", "--order", "40",
                     "--precision", "4096"],
                    ["rearrange", "--n", "3"], ["rearrange", "--n", "5/4", "--rows", "200"]]
    runs += [argv + ["--format", fmt] for argv in every_format
             for fmt in ("table", "csv", "json")]
    runs += [["lambda"], ["verify", "--n", "1"], ["verify", "--n", "3/0"],
             ["verify", "--n", "2.5"], ["coeffs", "--m-max", "0"],
             ["verify", "--n", "4294967297/4294967296", "--num-factors", "10",
              "--order", "5", "--precision", "8"],
             ["rearrange", "--n", "100000001/100000000", "--rows", "1", "--order", "1",
              "--precision", "8"]]
    return runs


def run_all(runs: list[list[str]]) -> list[Run]:
    """Each argv through ``cosprod.cli.main`` in this process, as the console does."""
    from cosprod import cli
    results = []
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def _interval(row: dict[str, str], value: str, bound: str) -> tuple[Fraction, Fraction]:
    v, b = Fraction(row[value]), Fraction(row[bound])
    return v - 3 * b / 2, v + 3 * b / 2


def parse(text: str) -> dict:
    """A record as its JSON prints it, from JSON, a table or CSV.

    A table gives the command from its first line, the parameters from the
    ``# key = value`` lines after it, and the verdict from its last line;
    its header and rows are split at runs of spaces, as no field holds one.
    CSV has the header and rows alone.
    """
    if text.startswith("{"):
        return json.loads(text)
    lines = text.splitlines()
    if not text.startswith("# command: "):
        return {"rows": list(csv.DictReader(lines))}
    record = {"command": lines.pop(0).removeprefix("# command: "), "parameters": {}}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        record["parameters"][key] = value
    if lines and lines[-1].startswith("verdict: "):
        record["verdict"] = lines.pop().removeprefix("verdict: ")
    header, *rows = [line.split() for line in lines] or [[]]
    record["rows"] = [dict(zip(header, row, strict=True)) for row in rows]
    return record


def classify(old: Run, new: Run) -> str:
    """identical, nested or different, as the module docstring defines them.

    Nested asks both outputs to be records (``parse``) whose rows have the
    same fields, equal but for the interval fields, and whose intervals lie
    inside the old ones.  An interval is what a printed value and its
    printed bound certify: the formatters print a value to digits whose
    last place is below the bound, rounded to nearest, so the truth lies
    within 3/2 of the bound of it.  ``low`` and ``high``, printed from the
    same ball, may change along with it.
    """
    if old == new:
        return "identical"
    if old[0] != new[0] or old[2] != new[2]:
        return "different"
    try:
        a, b = parse(old[1]), parse(new[1])
        if ({k: v for k, v in a.items() if k != "rows"}
                != {k: v for k, v in b.items() if k != "rows"}
                or len(a["rows"]) != len(b["rows"])):
            return "different"
        for ra, rb in zip(a["rows"], b["rows"]):
            pairs = [(value, bound) for value, bound in PAIRS
                     if value in ra and bound in ra]
            free = set(ENDS).union(*pairs)
            if ra.keys() != rb.keys() or any(ra[k] != rb[k] for k in ra.keys() - free):
                return "different"
            for pair in pairs:
                (lo, hi), (nlo, nhi) = _interval(ra, *pair), _interval(rb, *pair)
                if not lo <= nlo <= nhi <= hi:
                    return "different"
    except (ValueError, TypeError, KeyError, AttributeError):  # not such a record
        return "different"
    return "nested"


def sweep(old_src: Path, new_src: Path, runs: list[list[str]]) -> int:
    """Run `runs` through both trees, print the counts and each different run."""
    start = time.perf_counter()
    procs = [subprocess.Popen([sys.executable, "-c", _WORKER, str(src),
                               str(Path(__file__).resolve().parent)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for src in (old_src, new_src)]
    outputs = [proc.communicate(json.dumps(runs))[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        print("a tree's worker failed", file=sys.stderr)
        return 1
    old, new = (json.loads(text) for text in outputs)
    counts = {"identical": 0, "nested": 0, "different": 0}
    for argv, a, b in zip(runs, old, new):
        kind = classify(tuple(a), tuple(b))
        counts[kind] += 1
        if kind == "different":
            print("different: cosprod " + " ".join(argv))
    print(", ".join(f"{kind} {count}" for kind, count in counts.items())
          + f" of {len(runs)} runs in {time.perf_counter() - start:.1f} s")
    return 1 if counts["different"] else 0


def extract(rev: str, dest: Path) -> Path:
    """REV's src/ under dest, by git archive; returns the extracted src."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                              "src"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="REV", help="the git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        return sweep(extract(args.rev, Path(tmp)), ROOT / "src", grid())


if __name__ == "__main__":
    sys.exit(main())
