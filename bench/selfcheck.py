"""Tiny-size self-check of the benchmark. Run from the root of a checkout:

    python3 bench/selfcheck.py

Checks, on a few short matches, that
- every metric named in BENCHMARK.json is printed with its unit, traced
  and untraced, with nothing else and no failed operation;
- a planted fault (a truncated stream, a corrupted output) is counted as
  failed without a crash;
- in a directory without ``src/`` the benchmark exits non-zero and prints
  no result.
Exits 1 if any of these does not hold.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TINY = {
    "cli": run.Workload("cli", 3, 240),
    "lib": run.Workload("lib", 3, 240),
}


def expected_units(section: str) -> dict[str, str]:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    sys.path.insert(0, str(run.SRC.resolve()))
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    for mode, wl in TINY.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            name = f"tiny_{mode}"
            result, _ = run.run(name, 7, 1.0, trace, wl=wl)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == expected_units(section), f"{name} trace={int(trace)}: metric names and units")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={int(trace)}: no failed operation ({result['failed']}/{result['attempted']})")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace={int(trace)}: numeric values")
            if not trace:
                zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
                expect(not zero, f"{name}: no end-to-end metric is 0 {zero}")

    for mode, fault in (("cli", "stream"), ("cli", "output"), ("lib", "stream")):
        result, _ = run.run(f"fault_{mode}_{fault}", 7, 1.0, False, fault=fault, wl=TINY[mode])
        expect(result["failed"] > 0 and not result["correct"],
               f"planted {fault} fault on {mode}: counted ({result['failed']}/{result['attempted']})")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cli_long", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without src/: exit {proc.returncode} and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
