"""Step the search environment by hand: the agent drives accept/reject,
operator choice, and perturbation, and rewards add up to the improvement."""
import numpy as np

from jobshopls import generate_instance
from jobshopls.env import ActionSpace, reset, step

inst = generate_instance(6, 6, seed=3)
space = ActionSpace.ANP
state, obs = reset(inst, space, seed=0, t_max=25)

print(f"6x6 instance, initial makespan {state.init_cost}")
print(f"action space '{space.value}': {space.n_actions} actions "
      f"(accept/reject x 4 operators + perturb)\n")
# neighbour tables: row i lists the previous and next op of node i along its
# job route / machine sequence, with id n (the node count) for "none"
n = obs.node_feats.shape[0]
print(f"observation: scalars {obs.scalars.shape}, nodes {obs.node_feats.shape}, "
      f"neighbour tables {obs.nbr_stat.shape}: "
      f"{(obs.nbr_stat < n).sum() // 2} route links, "
      f"{(obs.nbr_dyna < n).sum() // 2} machine links")

rng = np.random.default_rng(42)
total = 0.0
print("\n t  action            reward  current  best")
while not state.done:
    action = int(rng.integers(space.n_actions))
    accept, operator = space.decode(action)    # operator None: perturb
    state, reward, done, obs = step(state, action)
    total += reward
    label = "perturb" if operator is None else operator.value
    label = ("accept+" if accept else "reject+") + label
    current = state.pending.graph.makespan if state.pending else state.graph.makespan
    marker = "  <- improved" if reward > 0 else ""
    print(f"{state.t:2}  {label:<17} {reward:5.0f}  {current:7}  "
          f"{state.best_cost:4}{marker}")

print(f"\nreward sum {total:.0f} == initial {state.init_cost} "
      f"- best {state.best_cost} (always, by construction)")
assert total == state.init_cost - state.best_cost
