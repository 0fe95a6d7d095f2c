import sys
from pathlib import Path

import pytest

# make oracles.py importable regardless of how pytest was invoked
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def record_ls_steps(monkeypatch):
    """``record_ls_steps(module)`` wraps ``module.ls_step`` for one test and
    returns the list its (graph, operator) calls are appended to."""
    def install(module) -> list:
        calls = []
        real = module.ls_step

        def spy(graph, op):
            calls.append((graph, op))
            return real(graph, op)

        monkeypatch.setattr(module, "ls_step", spy)
        return calls

    return install
