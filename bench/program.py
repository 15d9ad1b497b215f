"""Calls into cosprod, and the script a fresh process runs.

Run as ``python3 bench/program.py '<json spec>'`` with ``src`` on
PYTHONPATH, it imports cosprod in a new interpreter, so every cache starts
cold, and prints one JSON line for the parent:

* ``{"mode": "warm", "workload": W, "commands": [argv, ...]}`` imports
  cosprod, runs the commands as a warm-up and reports when they are done
  (a set-up probe);
* ``{"mode": "cold", "workload": W, "m_max": M, "order": K, "trace": bool}``
  runs ``coeffs --m-max M`` and the coefficient cross-check as one timed
  request.

``ready`` is ``time.monotonic()``, the system-wide monotonic clock, so the
parent can subtract the moment it started the process.  Both modes also
report the time of workload W's reference unit (speed.py) in this process:
a set-up probe before importing cosprod and after the warm-up (the time
spent on the first is taken off ``ready``), a cold request just before and
just after the request.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from speed import UNITS, reference_time


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """cosprod's ``main(argv)`` with standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def coefficient_crosscheck(recurrence, series, m_max: int, order: int) -> str:
    """The paper's coefficient checks, through cosprod's own oracles.

    The recurrence must equal half the Bernoulli tangent coefficients, the
    Picard fixed point must reproduce its first ``order`` terms, and the
    residual of 2t' = 1 + 4t^2 must vanish below the truncation degree.
    Returns "" when all hold, else what failed.
    """
    table = recurrence.lambda_coefficients(m_max).coeffs
    if [2 * c for c in table] != recurrence.tangent_coefficients(m_max):
        return "recurrence differs from the Bernoulli tangent coefficients"
    fixed = series.picard_fixed_point(order)
    if fixed.coeffs != table[:order]:
        return "Picard fixed point differs from the recurrence"
    if any(series.ode_residual(fixed)[:-1]):
        return "ODE residual does not vanish"
    return ""


def _main(spec: dict) -> dict:
    unit = UNITS[spec["workload"]]
    if spec["mode"] == "warm":
        spent = time.monotonic()
        before = reference_time(unit)
        spent = time.monotonic() - spent
        from cosprod import cli
        for argv in spec["commands"]:
            run_cli(cli, argv)
        ready = time.monotonic() - spent
        return {"ready": ready,
                "reference": (before + reference_time(unit)) / 2}

    from cosprod import cli, recurrence, series
    ready = time.monotonic()
    reference_before = reference_time(unit)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin(0)
    start = time.perf_counter()
    code, text = run_cli(cli, ["coeffs", "--m-max", str(spec["m_max"])])
    crosscheck = coefficient_crosscheck(recurrence, series, spec["m_max"],
                                        spec["order"])
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    reply = {"ready": ready, "latency": latency,
             "reference_before": reference_before,
             "reference_after": reference_time(unit), "code": code, "text": text,
             "crosscheck": crosscheck,
             "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        reply["layers"] = tracer.layer_metrics()
        reply["spans"] = [span[:5] for span in tracer.spans]
    return reply


if __name__ == "__main__":
    print(json.dumps(_main(json.loads(sys.argv[1]))))
