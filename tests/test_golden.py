"""Golden outputs: CLI stdout compared byte for byte with committed text.

The files under tests/golden/ hold the exact stdout of each command
below.  A change that moves a single byte of a report fails here; if the
move is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log which bytes moved and why.
"""
import json
import sys
from pathlib import Path

import pytest

from rtcode.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GOLDEN = Path(__file__).parent / "golden"

# Two small vending problems.  In TOY the channel carries nothing, so
# the decoder learns only from the paid side observation; in TERNARY a
# binary input must describe a ternary symbol, so paying for side
# information helps and the budget binds.
TOY = {
    "source": [0.7, 0.3],
    "channel": [[0.5, 0.5]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
}
TERNARY = {
    "source": [0.5, 0.3, 0.2],
    "channel": [[0.9, 0.1], [0.1, 0.9]],
    "distortion": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
}
# Two inputs and three outputs: a chain that mixes up the input and
# output axes prints other bytes here.
ASYM = {
    "source": [0.6, 0.4],
    "channel": [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]],
    "distortion": [[0.0, 1.0], [1.0, 0.0]],
}
VENDING = {
    "toy": {"kernel": [[0.5, 0.5], [0.9, 0.1], [0.5, 0.5], [0.2, 0.8]],
            "costs": [0.0, 1.0], "budget": 1.0},
    "ternary": {"kernel": [[0.5, 0.5], [0.9, 0.1], [0.5, 0.5], [0.5, 0.5],
                           [0.5, 0.5], [0.1, 0.9]],
                "costs": [0.0, 1.0], "budget": 0.6},
}

BINARY = ["--source", "bernoulli:0.3", "--channel", "bsc:0.3",
          "--distortion", "hamming"]
TOY_ARGS = ["--spec", "{toy}", "--vending", "{toy_vending}", "--d", "1",
            "--memory-y", "last:1"]
TERNARY_ARGS = ["--spec", "{ternary}", "--vending", "{ternary_vending}",
                "--d", "0"]
ASYM_ARGS = ["--spec", "{asym}", "--d", "1", "--memory", "last:1"]
SIM = ["--horizon", "2000", "--replications", "2", "--seed", "17"]

CASES = {
    "solve_feedback_last2": ["solve", *BINARY, "--d", "1",
                             "--memory", "last:2"],
    "solve_feedback_d2_last2": ["solve", *BINARY, "--d", "2",
                                "--memory", "last:2"],
    "solve_asym_feedback_last1": ["solve", *ASYM_ARGS],
    "solve_asym_nofeedback_last1_grid10": ["solve", *ASYM_ARGS,
                                           "--no-feedback", "--grid", "10"],
    "solve_nofeedback_last1_grid10": ["solve", *BINARY, "--d", "1",
                                      "--memory", "last:1", "--no-feedback",
                                      "--grid", "10"],
    "solve_complete_grid4": ["solve", *BINARY, "--d", "1",
                             "--memory", "complete", "--grid", "4"],
    "solve_vending_feedback": ["solve", *TOY_ARGS],
    "solve_vending_nofeedback": ["solve", *TOY_ARGS, "--no-feedback",
                                 "--grid", "2"],
    "simulate_feedback": ["simulate", *BINARY, "--d", "1",
                          "--memory", "last:2", *SIM],
    "simulate_nofeedback": ["simulate", *BINARY, "--d", "1",
                            "--memory", "last:1", "--no-feedback",
                            "--grid", "10", *SIM],
    "simulate_vending_feedback": ["simulate", *TERNARY_ARGS, *SIM],
    "simulate_vending_nofeedback": ["simulate", *TERNARY_ARGS,
                                    "--no-feedback", "--grid", "2", *SIM],
    "sweep_three_rows": ["sweep", "--fix", "delta=0.3", "--vary", "p=0.2",
                         "--quantities", "D0,Ddm,Dvend", "--d", "1",
                         "--m", "1", "--vending", "{toy_vending}",
                         "--budget", "0.4", "--workers", "1"],
    "region_2x2": ["region", "--d", "1", "--m", "2", "--p", "0.1:0.2:0.1",
                   "--delta", "0.2:0.3:0.1", "--workers", "1"],
    # four symbol maps tie here and every one is violated; the identity
    # gap sits at float noise, so reordered arithmetic shows up
    "check_s2s_grid4": ["check-s2s", *BINARY, "--d", "1", "--grid", "4"],
    "check_s2s_uncoded_grid4": ["check-s2s", *BINARY, "--d", "1",
                                "--grid", "4", "--uncoded"],
}


def _argv(name: str, where: Path) -> list[str]:
    files = {}
    for key, data in (("toy", TOY), ("ternary", TERNARY), ("asym", ASYM),
                      ("toy_vending", VENDING["toy"]),
                      ("ternary_vending", VENDING["ternary"])):
        files[key] = where / f"{key}.json"
        files[key].write_text(json.dumps(data))
    return [a.format(**files) for a in CASES[name]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    assert main(_argv(name, tmp_path)) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(_argv(case, Path(tmp)))
            if rc != 0:
                sys.exit(f"{case}: exit code {rc}")
            (GOLDEN / f"{case}.txt").write_text(buf.getvalue(),
                                                encoding="utf-8")
