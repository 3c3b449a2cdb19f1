"""Contract of the command line: what a few fixed commands write, recorded in ``cli_contract.json``.

Regenerate the fixture from the root of the repository with

    PYTHONPATH=src python tests/cli_contract.py

It runs every command of :data:`COMMANDS` with ``FD_D2D_THREADS=1`` and
``FD_D2D_THREADS=2``, requires the two to agree, and records per command:
the analytic columns as floats (JSON writes their ``repr``), the SHA-256 of
every other column, a short digest of each row's other columns (so a
mismatch can name its first row), and the SHA-256 of standard output less
its ``wrote`` line, which names the output path.  The numpy version that
made the fixture is stored beside them.  ``test_cli_contract.py`` checks
the current code against the fixture.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FIXTURE = os.path.join(HERE, "cli_contract.json")
ANALYTIC = ("p_sir_analytic", "p_total_analytic")
# stands for the path of the command's config file in its argv
CONFIG = "{config}"

USERS_SWEEP = ["--mode", "analytic", "--radius", "30.0", "--n-users", "25", "--sweep", "n_users=25,50,100,200,400",
               "--sweep", "beta=1e-05,0.001", "--theta-db", "-10:30:1"]
COMMANDS = [
    {"name": "analytic-users-sweep per-interferer", "argv": [*USERS_SWEEP, "--si-model", "per-interferer"]},
    {"name": "analytic-users-sweep single", "argv": [*USERS_SWEEP, "--si-model", "single"]},
    {"name": "cli-both seed 1", "argv": ["--mode", "both", "--radius", "30.0", "--n-users", "10", "--sweep", "n_users=10,40",
                                         "--theta-db", "-10:30:1", "--trials", "4096", "--seed", "1"]},
    {"name": "simulate sweep", "argv": ["--mode", "simulate", "--n-users", "5", "--sweep", "gamma_r=0.8,1.2",
                                        "--sweep", "radius=20,40", "--theta-db", "0:9.5:0.7", "--trials", "3000",
                                        "--seed", "7"]},
    {"name": "config file", "argv": ["--config", CONFIG], "config": (
        "# two sweep lines, the single SI model and a coarser quadrature\n"
        "mode = both\nn_users = 4\nradius = 25\nzipf = 0.8\ntheta_db = -5:10:2.5\n"
        "sweep = n_users=4,9\nsweep = beta=1e-05,0.01\nsi_model = single\nquad_nodes = v=12,angle=16\n"
        "trials = 1500\nseed = 3\n"
    )},
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(command: dict, threads: int) -> dict:
    """Run ``command`` with ``FD_D2D_THREADS=threads``; return its record in the fixture's form.

    A command that exits nonzero or writes to standard error raises ``RuntimeError``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        if "config" in command:
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(command["config"])
        out = os.path.join(tmp, "out.csv")
        argv = [config if arg == CONFIG else arg for arg in command["argv"]]
        env = dict(os.environ, FD_D2D_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "fdd2d.cli", *argv, "--out", out],
                              capture_output=True, text=True, env=env)
        if proc.returncode != 0 or proc.stderr:
            raise RuntimeError(f"{command['name']}: exit {proc.returncode}\n{proc.stderr}")
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
    stdout = "".join(line for line in proc.stdout.splitlines(keepends=True) if not line.startswith("wrote "))
    analytic = {name: header.index(name) for name in ANALYTIC}
    hashed = [i for i, name in enumerate(header) if name not in ANALYTIC]
    return {
        "columns": header,
        "analytic": {name: [float(row[i]) if row[i] else None for row in rows] for name, i in analytic.items()},
        "hashed": {header[i]: _sha256("\n".join(row[i] for row in rows)) for i in hashed},
        "row_digests": [_sha256(",".join(row[i] for i in hashed))[:8] for row in rows],
        "stdout": _sha256(stdout),
    }


def main() -> None:
    entries = []
    for command in COMMANDS:
        one, two = record(command, 1), record(command, 2)
        if one != two:
            raise SystemExit(f"{command['name']}: FD_D2D_THREADS=1 and 2 give different outputs")
        entries.append({**command, **one})
    # one command a line keeps the file short and its diffs readable by command
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in entries)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write(f'{{"numpy":{json.dumps(np.__version__)},"commands":[\n{lines}\n]}}\n')
    print(f"wrote {len(entries)} commands to {FIXTURE}")


if __name__ == "__main__":
    main()
