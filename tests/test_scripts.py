"""The scripts under scripts/: the walkthrough runs, and the instance
generator reproduces the shipped instance files byte for byte."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_walkthrough_exits_0():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "walkthrough.py")],
        capture_output=True, text=True, cwd=str(ROOT), env=env,
    )
    assert result.returncode == 0, result.stderr
    # The list attack on the Hamming scheme, knowing messages 1 and 2.
    assert "adversary knowing 1,2 is left with 2 candidates:" in result.stdout
    assert "WRONG" not in result.stdout


def test_make_instances_matches_shipped_files():
    spec = importlib.util.spec_from_file_location("make_instances", SCRIPTS / "make_instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    shipped = sorted(p.name for p in (ROOT / "instances").glob("*.json"))
    assert sorted(module.INSTANCES) == shipped
    for name, doc in module.INSTANCES.items():
        # Serialised as main() writes it.
        text = json.dumps(doc, indent=2) + "\n"
        assert (ROOT / "instances" / name).read_bytes() == text.encode("utf-8"), name


def test_stress_reports_prints_time_and_digest():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "stress_reports.py"), "2:16:8", "4:6:5:0", "2:30:14:5"],
        capture_output=True, text=True, cwd=str(ROOT), env=env,
    )
    assert result.returncode == 0, result.stderr
    # "<field> [n,k] [seed s] <seconds> s  sha256 <digest>", one line a code.
    first, second, third = (line.split() for line in result.stdout.splitlines())
    assert first[:2] == ["F2", "[16,8]"] and float(first[2]) >= 0
    assert first[3:] == [
        "s", "sha256", "a7cfa99ea4420438f3c0c6e22574172d229e134bcbdf1ab013308d8784bf48b6",
    ]
    assert second[:4] == ["GF(4)", "[6,5]", "seed", "0"] and len(second[-1]) == 64
    # F2 [30,14] seed 5 walks its dual through stage 14, in high blocks,
    # as its code walk also takes high blocks.
    assert third[:4] == ["F2", "[30,14]", "seed", "5"]
    assert third[5:] == [
        "s", "sha256", "d0374d84b30a679ff68ad592ca443348518247286cef6261bea980d157e4a0fc",
    ]
