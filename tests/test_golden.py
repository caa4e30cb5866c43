"""Byte-exact stdout of the command line on the bundled problems.

The files under ``golden/`` pin verdicts, witnesses, counterexamples and
traces, simplex vertices included (gconst, max2 and g1 reach the LP
relaxation).  They were written by running each command below with
``python -m unrealizer`` and saving its stdout; a change that alters
any of them alters the checker's output.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PROBLEMS = Path(__file__).parent / "problems"
GOLDEN = Path(__file__).parent / "golden"

MAX3_EXAMPLES = "x=1,y=2,z=3;x=-1,y=4,z=0;x=3,y=-2,z=2;x=0,y=0,z=5"
# the first five counterexamples `check max3.sy --seed 0` adds: many ties,
# so the ite stratum's values carry many generators
MAX3_CEGIS_EXAMPLES = ("x=1,y=0,z=0;x=-1,y=-1,z=0;x=-2,y=-1,z=0;"
                       "x=-1,y=-2,z=0;x=1,y=-1,z=0")
# negative coordinates, so the outputs hold negative numbers
G2_EXAMPLES = "x=1;x=-3"
# sub's guard compares component pairs with overlapping generators, so
# its LessThan takes the prefix search
SUB_EXAMPLES = "x=1;x=-3"

CASES = [
    ("check_g1.json", 0, ["check", "g1.sy", "--seed", "0", "--json"]),
    ("check_g2.json", 0, ["check", "g2.sy", "--seed", "0", "--json"]),
    ("check_gconst.json", 20,
     ["check", "gconst.sy", "--seed", "0", "--json"]),
    ("check_max2.json", 10, ["check", "max2.sy", "--seed", "0", "--json"]),
    # a Boolean-sorted start value
    ("check_lt_bool.json", 10,
     ["check", "lt_bool.sy", "--seed", "0", "--json"]),
    ("check_predabs_parity.json", 0,
     ["check", "parity.sy", "--mode", "predabs", "--seed", "0", "--json"]),
    # round 1 ends abstraction-sat; the later rounds hold two examples
    ("check_predabs_g2.json", 20,
     ["check", "g2.sy", "--mode", "predabs", "--seed", "0",
      "--max-rounds", "4", "--json"]),
    ("check_examples_max3.json", 10,
     ["check-examples", "max3.sy", "--json", "--examples", MAX3_EXAMPLES]),
    ("check_examples_max3_cegis5.json", 10,
     ["check-examples", "max3.sy", "--json",
      "--examples", MAX3_CEGIS_EXAMPLES]),
    ("check_examples_sub.json", 10,
     ["check-examples", "sub.sy", "--json", "--examples", SUB_EXAMPLES]),
    ("dump_equations_g2.txt", 0,
     ["dump-equations", "g2.sy", "--examples", G2_EXAMPLES]),
    ("export_horn_g2.smt2", 0,
     ["export-horn", "g2.sy", "--examples", G2_EXAMPLES]),
]


# the systems `--export-smt` writes, one file per query, concatenated under
# their file names; max2's are verification queries over the inputs,
# gconst's carry the bound variables q1, q2, ... of the abstraction
# queries, and sub's one round is Newton's membership queries and
# LessThan's prefix systems
EXPORT_CASES = [
    ("export_smt_max2.smt2", 10, "max2.sy", 6),
    ("export_smt_gconst.smt2", 20, "gconst.sy", 6),
    ("export_smt_sub.smt2", 20, "sub.sy", 1),
]


def _run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [str(PROBLEMS / a) if a.endswith(".sy") else a for a in argv]
    return subprocess.run([sys.executable, "-m", "unrealizer", *argv],
                          capture_output=True, timeout=120, env=env)


@pytest.mark.parametrize("golden, code, argv", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(golden, code, argv):
    out = _run(argv)
    assert out.returncode == code
    assert out.stdout == (GOLDEN / golden).read_bytes()


def concatenated_exports(directory):
    """Every file in `directory`, in name order, each after a comment
    line naming it."""
    return b"".join(b"; " + f.name.encode() + b"\n" + f.read_bytes()
                    for f in sorted(Path(directory).iterdir()))


@pytest.mark.parametrize("golden, code, problem, rounds", EXPORT_CASES,
                         ids=[c[0] for c in EXPORT_CASES])
def test_exported_queries_match_golden(golden, code, problem, rounds,
                                       tmp_path):
    out = _run(["check", problem, "--seed", "0", "--max-rounds", str(rounds),
                "--export-smt", str(tmp_path)])
    assert out.returncode == code
    assert concatenated_exports(tmp_path) == (GOLDEN / golden).read_bytes()
