"""The quick demos run to completion as standalone scripts."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# every demo but train_small_policy.py, which trains for about half a minute
QUICK_DEMOS = ["benchmark_sweep.py", "controller_comparison.py",
               "dispatch_rules.py", "environment_episode.py",
               "local_search_walk.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
