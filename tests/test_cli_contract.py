"""The CLI still writes what ``cli_contract.json`` recorded, at one worker and at two.

The fixture and the runner are in ``cli_contract.py``, which also regenerates the fixture.
"""

import json
import math

import numpy as np
import pytest

from cli_contract import ANALYTIC, FIXTURE, record

with open(FIXTURE, encoding="utf-8") as fh:
    CONTRACT = json.load(fh)

# absolute tolerance of an analytic success probability
TOLERANCE = 1e-12


def first_difference(expected: dict, actual: dict):
    """Where ``actual`` first departs from ``expected``, the first differing row and its columns if any; ``None`` if nowhere."""
    if actual["columns"] != expected["columns"]:
        return f"columns {actual['columns']} instead of {expected['columns']}"
    if len(actual["row_digests"]) != len(expected["row_digests"]):
        return f"{len(actual['row_digests'])} rows instead of {len(expected['row_digests'])}"
    hashed = [name for name, digest in expected["hashed"].items() if actual["hashed"][name] != digest]
    for row, (want, got) in enumerate(zip(expected["row_digests"], actual["row_digests"])):
        for name in ANALYTIC:
            a, b = expected["analytic"][name][row], actual["analytic"][name][row]
            if (a is None) != (b is None) or (a is not None and not math.isclose(a, b, rel_tol=0, abs_tol=TOLERANCE)):
                return f"data row {row + 1} differs in {name}"
        if want != got:
            return f"data row {row + 1} differs in {', '.join(hashed)}"
    if hashed:
        return f"{', '.join(hashed)} differ"
    if actual["stdout"] != expected["stdout"]:
        return "standard output differs"
    return None


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", CONTRACT["commands"], ids=[c["name"] for c in CONTRACT["commands"]])
def test_cli_output_matches_contract(command, threads):
    difference = first_difference(command, record(command, threads))
    assert difference is None, (
        f"{command['name']} at FD_D2D_THREADS={threads}: {difference} "
        f"(fixture made with numpy {CONTRACT['numpy']}, this run has numpy {np.__version__})"
    )
