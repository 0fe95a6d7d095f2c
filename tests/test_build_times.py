"""tools/build_times.py: every timing still runs against the current package."""
import importlib.util
from pathlib import Path

from jobshopls import generate_instance
from jobshopls.neighborhood import Operator

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "build_times", ROOT / "tools" / "build_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instance_times_run_on_a_random_6x6(monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "SWEEPS", 1)
    times = tool.instance_times("6x6", generate_instance(6, 6, seed=3))
    ops = {op.value for op in Operator}
    assert times["moves"] > 0 and "fixed_us" not in times
    assert set(times["enumerate_us"]) == set(times["ls_step_us"]) == ops
    assert set(times["estimate_us"]) <= ops and "ct" in times["estimate_us"]
    for key in ("full_us", "derived_us", "critical_blocks_us", "dispatch_us",
                "stochastic_dispatch_us"):
        assert times[key] >= 0, key
