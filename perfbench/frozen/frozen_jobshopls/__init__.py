"""Job-shop scheduling by controllable local search.

The package provides the disjunctive-graph model, priority dispatching rules
for constructing schedules, critical-block move operators with constant-time
makespan estimates, classical metaheuristic controllers, a step-limited MDP
wrapper around the same search loop, and a distributional Q-learning stack
(numpy automatic differentiation included) for training learned controllers.
"""

from .core import (
    CriticalBlock,
    CyclicSolutionError,
    Instance,
    MalformedSolutionError,
    OpId,
    SearchGraph,
    Solution,
    build_graph,
    critical_blocks,
    critical_path,
    validate,
)
from .taillard import (
    best_known,
    builtin_instance,
    builtin_names,
    emit_taillard,
    generate_instance,
    parse_taillard,
    parse_taillard_file,
)

__version__ = "0.1.0"
