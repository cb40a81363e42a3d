import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
TOOL = os.path.join(ROOT, "tools", "parity.py")


def test_the_repo_agrees_with_itself_on_every_toy_workload():
    done = subprocess.run([sys.executable, TOOL, ROOT, ROOT, "--seeds", "23", "--toy"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"{workload} seed 23 toy: agree"
        for workload in ("proxy-latency", "proxy-energy", "amortized-fleet")]
