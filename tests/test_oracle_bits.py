"""The oracle chain's output bits, pinned by tests/data/oracle_bits.json.

The bench's oracle_wide draws (helpers.wide_draws: larger photon numbers
4, 10, 20 in turn) run through the one-draw path, evolve ->
hadamard_control -> measure_control(j) -> schrodinger_phase, and each
draw's text names every output ket, refusal and probability, with the
float.hex of both parts of every amplitude, so a zero's sign counts too;
a draw's pin is the SHA-256 of its text.  The first BATCH of the draws are
also pinned as one _evolve_branches batch, by the bytes of its kets and
branches.  After a change of bits that is meant and explained,

    PYTHONPATH=src:tests python tests/test_oracle_bits.py > tests/data/oracle_bits.json

writes the pins again.
"""

import hashlib
import json
import sys
from pathlib import Path

from ico_cqed import ImpossiblePostselectionError, TruncationWindow
from ico_cqed.oracle import (
    _evolve_branches,
    evolve,
    hadamard_control,
    measure_control,
    schrodinger_phase,
)
from helpers import draw_table, wide_draws

PINS = Path(__file__).parent / "data" / "oracle_bits.json"
DRAWS = 300
BATCH = 64


def state_lines(name, state):
    """One line per ket of a state in its sorted order: the ket's fields and the
    float.hex of its amplitude's parts."""
    lines = [f"{name}: {len(state)} kets"]
    for ket, amp in state.items():
        rest = getattr(ket, "rest", ket)
        control = f"{ket.control} " if rest is not ket else ""
        lines.append(f"{control}{int(rest.atom)} {rest.n} {rest.m} "
                     f"{amp.real.hex()} {amp.imag.hex()}")
    return lines


def draw_text(p, t) -> str:
    """Every output of the one-draw path on (p, t), as text."""
    evolved = evolve(p, t, TruncationWindow.for_params(p))
    mixed = hadamard_control(evolved)
    lines = state_lines("evolve", evolved) + state_lines("hadamard_control", mixed)
    for j in (0, 1):
        try:
            measured, prob = measure_control(mixed, j)
        except ImpossiblePostselectionError as err:
            lines.append(f"refused {j}: {err} {err.probability.hex()}")
            continue
        lines += [f"probability {j}: {prob.hex()}", *state_lines(f"measure_control {j}", measured),
                  *state_lines(f"schrodinger_phase {j}", schrodinger_phase(measured, p.omega, t))]
    return "\n".join(lines)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record() -> dict:
    draws = wide_draws(DRAWS)
    kets, branches = _evolve_branches(draw_table(draws[:BATCH]))
    return {
        "draws": [sha256(draw_text(p, t).encode()) for p, t in draws],
        "batch": {"kets": [str(kets.dtype), list(kets.shape), sha256(kets.tobytes())],
                  "branches": [str(branches.dtype), list(branches.shape),
                               sha256(branches.tobytes())]},
    }


def test_one_draw_path_keeps_every_bit():
    pinned = json.loads(PINS.read_text())
    got = record()
    assert len(pinned["draws"]) == DRAWS
    for i, (want, have) in enumerate(zip(pinned["draws"], got["draws"])):
        assert have == want, f"draw {i}: {wide_draws(i + 1)[i]}"
    assert got["batch"] == pinned["batch"]


if __name__ == "__main__":
    sys.stdout.write(json.dumps(record(), indent=1) + "\n")
