"""tools/fuzz_cli.py: 200 argv at a fixed seed, and each kind of failure it reports."""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import fuzz_cli  # noqa: E402


def test_two_hundred_argv_keep_the_contract(capsys):
    assert fuzz_cli.fuzz(2026, 200) == 0
    out = capsys.readouterr().out
    assert "200 argv, 0 failed" in out
    assert "FAIL" not in out


def test_the_draws_reach_every_command_and_edge(tmp_path):
    rng = random.Random(2026)
    draws = [fuzz_cli.draw(rng, str(tmp_path)) for _ in range(200)]
    assert {argv[0] for argv in draws} == set(fuzz_cli.COMMANDS)
    values = [argv[i + 1] for argv in draws for i in range(1, len(argv), 2)]
    assert any(len(v) == 20 and v.isdigit() for v in values)  # 20-digit sizes
    assert any(v.isdigit() and int(v) > fuzz_cli.cli.MAX_PRECISION_BITS for v in values)
    assert any(v in fuzz_cli.MALFORMED for v in values)


def test_a_run_past_the_alarm_fails(monkeypatch, capsys):
    monkeypatch.setattr(fuzz_cli, "ALARM_S", 0.05)
    monkeypatch.setattr(fuzz_cli.cli, "main", lambda argv: time.sleep(5))
    start = time.perf_counter()
    assert fuzz_cli.fuzz(1, 1) == 1
    assert time.perf_counter() - start < 2
    assert "ran past 0.05 s" in capsys.readouterr().out


def test_an_exception_or_another_exit_fails(monkeypatch, capsys):
    def faulty(argv):
        raise OverflowError("cannot fit 'int' into an index-sized integer")

    monkeypatch.setattr(fuzz_cli.cli, "main", faulty)
    assert fuzz_cli.fuzz(1, 1) == 1
    assert "raised OverflowError" in capsys.readouterr().out
    monkeypatch.setattr(fuzz_cli.cli, "main", lambda argv: 120)
    assert fuzz_cli.fuzz(1, 1) == 1
    assert "exit 120" in capsys.readouterr().out
