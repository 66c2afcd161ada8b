"""The scripts under scripts/ run against the library in src/."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def test_verify_catalog_reports_no_failures():
    proc = _run("verify_catalog.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert "FAILURES: 0" in lines
    section = lines[lines.index("== S extraction =="):]
    for name in ("toric_code", "double_semion", "ising", "fibonacci",
                 "laughlin_3"):
        assert f"  {name:22s} ok" in section


def test_derive_fold_charts_tiles_every_geometry():
    proc = _run("derive_fold_charts.py")
    assert proc.returncode == 0, proc.stderr
    misses = [line.split()[-1] for line in proc.stdout.splitlines()
              if "tiling misses" in line]
    assert len(misses) == 6 and set(misses) == {"0"}
