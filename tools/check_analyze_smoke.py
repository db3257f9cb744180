#!/usr/bin/env python3
"""CI analyzer smoke gate.

Runs vpdift-analyze over the firmware/policy pairs of
ci/expected_analyze_smoke.json and compares the verdict fields exactly:
`complete`, `reachable_violations` and the set of violation sites. The
acceptance pair (the vulnerable immobilizer must be flagged statically, the
fixed build must lint clean) can never silently regress.

Usage: check_analyze_smoke.py <vpdift-analyze-binary> [--expected FILE]
Exit status: 0 when every case matches, 1 on any mismatch, 2 on usage or
tool-invocation errors.
"""

import argparse
import json
import pathlib
import subprocess
import sys


def run_analyze(binary: str, firmware: str, policy: str) -> dict:
    cmd = [binary, "--policy", policy, "--format", "json", firmware]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout)


def check_case(report: dict, want: dict) -> list:
    errors = []

    def field(name, got):
        if got != want[name]:
            errors.append(f"{name}: got {got!r}, want {want[name]!r}")

    field("complete", report.get("complete"))
    field("reachable_violations", report.get("reachable_violations"))

    sites = sorted(
        f.get("where", "")
        for f in report.get("findings", [])
        if f.get("kind") == "reachable-violation"
    )
    if sites != sorted(want["violation_sites"]):
        errors.append(
            f"violation_sites: got {sites!r}, want {want['violation_sites']!r}"
        )
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("binary", help="path to the vpdift-analyze binary")
    ap.add_argument(
        "--expected",
        default=str(
            pathlib.Path(__file__).resolve().parent.parent
            / "ci"
            / "expected_analyze_smoke.json"
        ),
    )
    args = ap.parse_args()

    with open(args.expected) as f:
        expected = json.load(f)

    failed = False
    for case in expected["cases"]:
        name = f"{case['firmware']} x {case['policy']}"
        try:
            report = run_analyze(args.binary, case["firmware"], case["policy"])
        except (RuntimeError, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {name}: {e}")
            return 2
        errors = check_case(report, case)
        if errors:
            failed = True
            print(f"FAIL {name}:")
            for e in errors:
                print(f"  {e}")
        else:
            print(f"OK   {name}: violations={case['reachable_violations']}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
