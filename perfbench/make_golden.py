"""Write golden_cli.json: the byte-exact stdout and exit code of every
command variant the cli workload can run.

The CLI's output must stay byte-identical, so the file is made once, at the
commit that defines the benchmark, and kept.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import CLI_COMMANDS, GOLDEN_CLI

# argument variants per command; the workload seed picks one of each
VARIANTS = {
    "constants": [["constants"], ["constants", "--format", "json"],
                  ["constants", "--format", "csv"], ["constants", "--tol", "1e-9"]],
    "eval": [["eval", "--fn", "sinc-gap", "--p", p, "--x", x]
             for p, x in (("0.7", "0.3"), ("0.5", "0.05"), ("0.77", "1.2"), ("1.0", "1.5"))],
    "special": [["special", "--name", "si"]] + [
        ["special", "--name", "si", "--t", t, "--p", p]
        for t, p in (("1.2", "0.5"), ("0.3", "0"), ("1.5", "0.77"))],
    "table": [["table", "--chain", "m1c", "--points", n] for n in ("64", "65", "67", "70")],
    "verify": [["verify", "--suite", "all"]] + [
        ["verify", "--suite", "all", "--seed", s] for s in ("1", "2", "3")],
}


def main() -> int:
    root = Path.cwd()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    golden = {}
    for command in CLI_COMMANDS:
        golden[command] = []
        for args in VARIANTS[command]:
            proc = subprocess.run([sys.executable, "-m", "sincbounds", *args], cwd=root, env=env,
                                  capture_output=True, check=False)
            golden[command].append({"args": args, "exit": proc.returncode,
                                    "stdout": proc.stdout.decode()})
    GOLDEN_CLI.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
