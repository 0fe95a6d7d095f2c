"""Walk the critical-block neighborhood by hand: inspect the critical path,
list the available moves, and descend a few steps."""
from jobshopls import build_graph, critical_blocks, critical_path, generate_instance
from jobshopls.dispatch import DispatchRule, dispatch
from jobshopls.neighborhood import (LocalOptimum, Operator, enumerate_moves,
                                    estimate_move, ls_step)

inst = generate_instance(6, 6, seed=7)
graph = build_graph(inst, dispatch(inst, DispatchRule.FDD_over_MWKR))
print(f"6x6 instance, constructive makespan {graph.makespan}")

# the path and the blocks hold flat op ids: job * n_machines + position
M, machine = inst.n_machines, inst.machine.reshape(-1)
path = critical_path(graph)
print(f"\ncritical path ({len(path)} operations):")
print("  " + " -> ".join(f"j{v // M}m{machine[v]}" for v in path))

print("\ncritical blocks (same-machine runs on the path):")
for b in critical_blocks(graph):
    ops = " ".join(f"({v // M},{v % M})" for v in b.ops)
    print(f"  machine {b.machine} from slot {b.start}: {ops}")

# each operator carves a different slice of moves out of those blocks
print("\nmove counts per operator:")
for op in Operator:
    moves = enumerate_moves(graph, op)
    if moves:
        best = min(estimate_move(graph, m).estimate for m in moves)
        print(f"  {op.value:5} {len(moves):3} moves, best estimate {best}")
    else:
        print(f"  {op.value:5}   0 moves")

# descend: repeatedly take the best adjacent swap until nothing improves
print("\nsteepest walk with block-end swaps:")
cost = graph.makespan
for it in range(12):
    result = ls_step(graph, Operator.CET)
    if isinstance(result, LocalOptimum):
        print(f"  step {it}: no moves left")
        break
    accepted = result.new_cost <= cost
    print(f"  step {it}: estimate {result.eval.estimate:4}  "
          f"actual {result.new_cost:4}  {'take' if accepted else 'stop'}")
    if not accepted:
        break
    graph = result.graph
    cost = result.new_cost
print(f"final makespan {cost}")
