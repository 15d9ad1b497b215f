"""The three workloads: their inputs, one request of each, and its checks.

Inputs are drawn in rounds, one from each of three strata, so every run has
the same mix whatever its seed and length.  Ranges are chosen so that every
request passes:

* n = p/q with 2 <= q <= 64.  At the README defaults `verify` exits 3 at
  n = 101/100 (exp's input bound reaches 1) and its series route certifies
  under 4 bits at 1.015, so desk-session keeps n > 5/4, where the widest
  interval (a 1000-row rearrangement sum, about 11.4 bits) changes slowly
  with n and certified_bits_min stays steady.  high-precision, at order 40,
  goes down to 11/10; its widest interval is the 1000-factor product, worst
  near n = 3/2, in the middle stratum.
* M in 195..205 for cold-tables.  A request's time grows by half from
  M = 180 to M = 220, so a wider range would let the seed's draws move the
  mean latency.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from oracles import Oracles
from program import run_cli
from speed import UNITS, reference_time

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
WARM_UP_N = Fraction(3)  # the README's example n
CHILD_TIMEOUT_S = 150


class RequestFailed(Exception):
    """The program refused or crashed on a request."""


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own brackets."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# reading what cosprod prints
# ----------------------------------------------------------------------

def parse_table(text: str) -> tuple[list[dict[str, str]], Optional[str]]:
    """Rows of a cosprod table (header line, then rows) and its verdict."""
    lines = [line for line in text.splitlines()
             if line and not line.startswith("#")]
    verdict = None
    if lines and lines[-1].startswith("verdict: "):
        verdict = lines.pop()[len("verdict: "):]
    header = lines[0].split()
    return [dict(zip(header, line.split(), strict=True)) for line in lines[1:]], verdict


def printed_interval(value: str, bound: str) -> tuple[Fraction, Fraction]:
    """What a printed value and bound certify: value +- (bound + half a unit
    in the value's last printed digit, which covers its decimal rounding)."""
    mantissa, _, exponent = value.partition("e")
    decimals = len(mantissa.partition(".")[2])
    half_unit = Fraction(10) ** (int(exponent or 0) - decimals) / 2
    v, b = Fraction(value), Fraction(bound)
    return v - b - half_unit, v + b + half_unit


def bound_bits(bound: str) -> float:
    """Certified bits of an interval of reported half-width `bound`."""
    b = Fraction(bound)
    if b == 0:
        return math.inf
    return math.log2(b.denominator) - math.log2(2 * b.numerator)


def contains(outer: tuple[Fraction, Fraction], inner: tuple[Fraction, Fraction]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


# ----------------------------------------------------------------------
# one check per command; each returns the certified bits of its final
# intervals
# ----------------------------------------------------------------------

def check_coeffs(text: str, oracles: Oracles, m_max: int) -> list[float]:
    rows, _ = parse_table(text)
    expect(len(rows) == m_max, f"coeffs printed {len(rows)} rows, not {m_max}")
    bits = []
    for m, row in enumerate(rows, start=1):
        c = oracles.coefficient(m)
        expect(row["m"] == str(m) and Fraction(row["c_m"]) == c
               and Fraction(row["tangent_coeff"]) == 2 * c,
               f"coeffs: c_{m} is not T_{m} / (2 ({2 * m - 1})!)")
        expect(contains(printed_interval(row["lambda_2m"], row["lambda_bound"]),
                        oracles.lambda_bracket(m)),
               f"coeffs: lambda({2 * m}) interval misses c_m (pi/2)^{2 * m}")
        bits.append(bound_bits(row["lambda_bound"]))
    return bits


def check_lambda(text: str, oracles: Oracles, m_max: int) -> list[float]:
    rows, verdict = parse_table(text)
    expect(verdict == "PASS" and len(rows) == m_max, f"lambda: verdict {verdict}")
    bits = []
    for m, row in enumerate(rows, start=1):
        target = oracles.lambda_bracket(m)
        expect(Fraction(row["q_m"]) == oracles.coefficient(m) / 4**m,
               f"lambda: q_{m} is wrong")
        expect(contains(printed_interval(row["direct"], row["direct_bound"]), target),
               f"lambda: direct sum for m={m} misses q_m pi^{2 * m}")
        expect(contains(printed_interval(row["closed_form"], row["closed_bound"]), target),
               f"lambda: closed form for m={m} misses q_m pi^{2 * m}")
        expect(row["overlap"] == "PASS", f"lambda: row {m} is not PASS")
        bits += [bound_bits(row["direct_bound"]), bound_bits(row["closed_bound"])]
    return bits


def check_product(text: str, oracles: Oracles, n: Fraction,
                  num_factors: int) -> list[float]:
    rows, verdict = parse_table(text)
    expect(verdict == "PASS", f"product: verdict {verdict}")
    target = oracles.cos_half_pi_over(n)
    for row in rows:
        expect(contains(printed_interval(row["value"], row["total_bound"]), target)
               and row["contained"] == "PASS",
               f"product: {row['num_factors']} factors miss cos(pi/2n)")
    final = rows[-1]
    expect(final["num_factors"] == str(num_factors), "product: no final row")
    return [bound_bits(final["total_bound"])]


def _check_routes(command: str, text: str, target: tuple[Fraction, Fraction],
                  methods: tuple[str, ...]) -> list[float]:
    rows, verdict = parse_table(text)
    expect(verdict == "PASS", f"{command}: verdict {verdict}")
    expect(tuple(row["method"] for row in rows) == methods, f"{command}: routes")
    for row in rows:
        expect(contains(printed_interval(row["value"], row["bound"]), target),
               f"{command}: {row['method']} interval misses the bracket")
    return [bound_bits(row["bound"]) for row in rows]


def check_verify(text: str, oracles: Oracles, n: Fraction) -> list[float]:
    return _check_routes("verify", text, oracles.cos_half_pi_over(n),
                         ("product", "log_series", "cosine"))


def check_rearrange(text: str, oracles: Oracles, n: Fraction) -> list[float]:
    return _check_routes("rearrange", text, oracles.neg_log_cos_half_pi_over(n),
                         ("row_order", "column_order"))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def draw_n(rng, lo: Fraction, hi: Fraction, max_q: int = 64) -> Fraction:
    """A rational p/q in (lo, hi] with q <= max_q."""
    while True:
        q = rng.randint(2, max_q)
        p_min, p_max = math.floor(lo * q) + 1, math.floor(hi * q)
        if p_min <= p_max:
            return Fraction(rng.randint(p_min, p_max), q)


@dataclass
class Outcome:
    latency: float
    payload: object
    reference: float  # reference-unit time around the request (speed.py)
    cpu: Optional[float] = None
    setup: Optional[float] = None
    setup_reference: Optional[float] = None
    rss_kb: Optional[int] = None
    layers: Optional[dict] = None
    spans: Optional[list] = None


Command = tuple[list[str], Callable[..., list[float]]]


def _child(spec: dict, src: Path) -> tuple[float, dict]:
    """Run program.py in a fresh interpreter; (time it was started, reply)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "program.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RequestFailed(f"no reply within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        raise RequestFailed(lines[-1] if lines else f"exit {proc.returncode}")
    return started, json.loads(proc.stdout)


class InProcess:
    """Requests through cosprod.cli.main in this process, caches warm."""

    in_process = True

    def __init__(self, name: str, strata,
                 commands: Callable[[Fraction], list[Command]], src: Path) -> None:
        self.name = name
        self.unit = UNITS[name]
        self.strata = strata
        self.commands = commands
        self.src = src
        from cosprod import cli
        self.cli = cli

    def draw_round(self, rng) -> list[Fraction]:
        return [draw_n(rng, lo, hi) for lo, hi in self.strata]

    def setup_samples(self) -> list[tuple[float, float]]:
        """Import and warm-up, each in a fresh process, from its start;
        (seconds, reference-unit time in that process)."""
        spec = {"mode": "warm", "workload": self.name,
                "commands": [argv for argv, _ in self.commands(WARM_UP_N)]}
        samples = []
        for _ in range(SETUP_PROBES):
            started, reply = _child(spec, self.src)
            samples.append((reply["ready"] - started, reply["reference"]))
        return samples

    def warm_up(self) -> None:
        for argv, _ in self.commands(WARM_UP_N):
            run_cli(self.cli, argv)

    def request(self, n: Fraction, traced: bool) -> Outcome:
        before = reference_time(self.unit)
        cpu, start = time.process_time(), time.perf_counter()
        try:
            outputs = [run_cli(self.cli, argv) for argv, _ in self.commands(n)]
        except (Exception, SystemExit) as exc:
            raise RequestFailed(f"{type(exc).__name__}: {exc}") from exc
        latency = time.perf_counter() - start
        cpu = time.process_time() - cpu
        after = reference_time(self.unit)
        for code, _ in outputs:
            if code in (2, 3):
                raise RequestFailed(f"exit {code}")
        return Outcome(latency, outputs, (before + after) / 2, cpu=cpu)

    def check(self, n: Fraction, outcome: Outcome, oracles: Oracles) -> list[float]:
        bits = []
        for (argv, check), (code, text) in zip(self.commands(n), outcome.payload):
            expect(code == 0, f"{argv[0]} exited {code}")
            bits += check(text, oracles)
        return bits


class FreshProcess:
    """`coeffs --m-max M` and the coefficient cross-check, one process each."""

    in_process = False

    def __init__(self, name: str, strata, order: int, src: Path) -> None:
        self.name = name
        self.strata = strata
        self.order = order
        self.src = src

    def draw_round(self, rng) -> list[int]:
        return [rng.randint(lo, hi) for lo, hi in self.strata]

    def setup_samples(self) -> None:
        return None  # each request reports its own process start and import

    def warm_up(self) -> None:
        pass

    def request(self, m_max: int, traced: bool) -> Outcome:
        spec = {"mode": "cold", "workload": self.name, "m_max": m_max,
                "order": self.order, "trace": traced}
        started, reply = _child(spec, self.src)
        return Outcome(reply["latency"], reply,
                       (reply["reference_before"] + reply["reference_after"]) / 2,
                       setup=reply["ready"] - started,
                       setup_reference=reply["reference_before"],
                       rss_kb=reply["rss_kb"], layers=reply.get("layers"),
                       spans=reply.get("spans"))

    def check(self, m_max: int, outcome: Outcome, oracles: Oracles) -> list[float]:
        reply = outcome.payload
        expect(reply["code"] == 0, f"coeffs exited {reply['code']}")
        expect(not reply["crosscheck"], f"cross-check: {reply['crosscheck']}")
        return check_coeffs(reply["text"], oracles, m_max)


def desk_commands(n: Fraction) -> list[Command]:
    """The five README commands at their README defaults, for this n."""
    s = str(n)
    return [
        (["coeffs", "--m-max", "10"], lambda t, o: check_coeffs(t, o, 10)),
        (["lambda", "--m-max", "10", "--num-terms", "100000"],
         lambda t, o: check_lambda(t, o, 10)),
        (["product", "--n", s, "--num-factors", "100000"],
         lambda t, o: check_product(t, o, n, 100_000)),
        (["verify", "--n", s, "--num-factors", "100000", "--order", "30"],
         lambda t, o: check_verify(t, o, n)),
        (["rearrange", "--n", s, "--rows", "1000", "--order", "20"],
         lambda t, o: check_rearrange(t, o, n)),
    ]


def high_precision_commands(n: Fraction) -> list[Command]:
    return [(["verify", "--n", str(n), "--num-factors", "1000", "--order", "40",
              "--precision", "4096"], lambda t, o: check_verify(t, o, n))]


def make(name: str, src: Path):
    F = Fraction
    if name == "desk-session":
        return InProcess(name, ((F(5, 4), F(3, 2)), (F(3, 2), F(3)), (F(3), F(10))),
                         desk_commands, src)
    if name == "high-precision":
        return InProcess(name, ((F(11, 10), F(6, 5)), (F(7, 5), F(8, 5)), (F(3), F(10))),
                         high_precision_commands, src)
    if name == "cold-tables":
        return FreshProcess(name, ((195, 198), (199, 201), (202, 205)), 40, src)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("desk-session", "high-precision", "cold-tables")
