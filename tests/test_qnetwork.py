"""Graph network + quantile head: shapes, symmetries, checkpoints."""
import numpy as np
import pytest

from jobshopls import builtin_instance, generate_instance
from jobshopls.env import ActionSpace, Observation, reset, step
from jobshopls.nn import (GNNConfig, QNetwork, autodiff as ad, encode,
                          load_checkpoint, q_values, save_checkpoint)
from jobshopls.nn.qnetwork import _gnn_layer, batch_q_values

TINY = GNNConfig(d_emb=8, mlp_hidden=8, iqn_hidden=16, n_tau_features=8)


def small_obs(seed=0, j=3, m=3):
    inst = generate_instance(j, m, seed=seed)
    _, obs = reset(inst, ActionSpace.ANP, seed=0, t_max=5)
    return obs


def permuted(obs, perm):
    """The same observation with node i of the result holding old node perm[i]."""
    n = obs.node_feats.shape[0]
    new_id = np.empty(n + 1, dtype=np.int64)  # old id -> new id; n stays n
    new_id[perm] = np.arange(n)
    new_id[n] = n
    return Observation(
        scalars=obs.scalars, node_feats=obs.node_feats[perm],
        nbr_stat=new_id[obs.nbr_stat[perm]], nbr_dyna=new_id[obs.nbr_dyna[perm]],
        groups=obs.groups[perm], n_groups=obs.n_groups)


def table_obs(rng, nbr_stat, groups, n_groups):
    """Hand-built observation with no machine-sequence links."""
    n = len(groups)
    return Observation(
        scalars=rng.random(7), node_feats=rng.random((n, 5)),
        nbr_stat=np.asarray(nbr_stat), nbr_dyna=np.full((n, 2), n),
        groups=np.asarray(groups), n_groups=n_groups)


def test_config_validation():
    with pytest.raises(ValueError):
        GNNConfig(d_emb=0)
    assert GNNConfig().n_layers == 6
    sched = GNNConfig().layer_schedule
    assert sched == ("stat", "stat", "stat", "dyna", "dyna", "stat")


def test_output_shapes_and_determinism():
    obs = small_obs()
    net = QNetwork(10, TINY, seed=5)
    net2 = QNetwork(10, TINY, seed=5)
    taus = np.array([0.1, 0.5, 0.9])
    z, q = q_values(obs, net, taus)
    z2, q2 = q_values(obs, net2, taus)
    assert z.data.shape == (3, 10)
    assert q.data.shape == (10,)
    assert np.array_equal(z.data, z2.data)
    assert np.allclose(q.data, z.data.mean(axis=0))


def test_single_tau_mean_is_identity():
    obs = small_obs(1)
    net = QNetwork(10, TINY, seed=6)
    z, q = q_values(obs, net, np.array([0.5]))
    assert np.allclose(q.data, z.data[0])


def test_node_permutation_equivariance():
    obs = small_obs(3)
    net = QNetwork(10, TINY, seed=8)
    taus = np.array([0.3, 0.6])
    _, q = q_values(obs, net, taus)

    n = obs.node_feats.shape[0]
    shuffled = permuted(obs, np.random.default_rng(4).permutation(n))
    _, q_shuffled = q_values(shuffled, net, taus)
    assert np.allclose(q.data, q_shuffled.data, atol=1e-10)


def test_zeroed_message_layer_reduces_to_layer_norm():
    obs = small_obs(4)
    net = QNetwork(10, TINY, seed=9)
    for name in ("gnn0.m1.w2", "gnn0.m1.b2", "gnn0.m2.w2", "gnn0.m2.b2"):
        net.params[name].data[...] = 0.0
    h = ad.constant(np.random.default_rng(5).standard_normal(
        (obs.node_feats.shape[0], TINY.d_emb)))
    out = _gnn_layer(h, obs.nbr_stat, net, 0)
    want = ad.layer_norm(h, net.params["gnn0.ln.scale"],
                         net.params["gnn0.ln.shift"]).data
    assert np.allclose(out.data, want, atol=1e-12)


def test_single_operation_instance_has_no_edges():
    obs = small_obs(5, j=1, m=1)
    # one node, and both of its table entries are the "no neighbour" id 1
    assert np.all(obs.nbr_stat == 1) and np.all(obs.nbr_dyna == 1)
    assert obs.nbr_stat.shape == obs.nbr_dyna.shape == (1, 2)
    net = QNetwork(10, TINY, seed=10)
    _, q = q_values(obs, net, np.array([0.5]))
    assert np.all(np.isfinite(q.data))


def test_group_pooling_ignores_order_within_groups():
    obs = small_obs(6, j=4, m=3)
    net = QNetwork(10, TINY, seed=11)
    nodes, grp, feat = encode([obs], net)
    # permute whole observation; grouped statistics must be preserved
    obs2 = permuted(obs, np.roll(np.arange(obs.node_feats.shape[0]), 5))
    _, grp2, _ = encode([obs2], net)
    assert np.allclose(np.sort(grp.data, axis=0), np.sort(grp2.data, axis=0),
                       atol=1e-10)


def test_unequal_group_sizes_supported():
    # chain 0-1-2; nodes 3 and 4 have no neighbours (id 5)
    obs = table_obs(np.random.default_rng(12),
                    [[5, 1], [0, 2], [1, 5], [5, 5], [5, 5]],
                    groups=[0, 0, 0, 1, 1], n_groups=2)
    net = QNetwork(4, TINY, seed=13)
    _, q = q_values(obs, net, np.array([0.2, 0.8]))
    assert q.data.shape == (4,) and np.all(np.isfinite(q.data))


def test_empty_group_is_rejected():
    rng = np.random.default_rng(14)
    obs = table_obs(rng, np.full((3, 2), 3), groups=[0, 0, 2], n_groups=3)
    net = QNetwork(4, TINY, seed=15)
    with pytest.raises(ValueError, match="group 1 has no member nodes"):
        encode([obs], net)
    # in a union the error names the member, not the union's group ids
    good = table_obs(rng, np.full((3, 2), 3), groups=[0, 1, 2], n_groups=3)
    with pytest.raises(ValueError, match="^observation 1: group 1 has no member"):
        batch_q_values([good, obs], net, [[0.5], [0.5]])


@pytest.mark.parametrize("bad", [
    np.full((4, 2), 5),                        # wrong row count
    np.full((5, 3), 5),                        # wrong width
    np.array([[5, 1], [0, 6], [1, 5], [5, 5], [5, 5]]),   # id past n
    np.array([[5, 1], [0, -1], [1, 5], [5, 5], [5, 5]]),  # negative id
    [np.full((5, 2), 5), np.full((5, 2), 6)],  # member 1 of a union: id past n
])
def test_malformed_neighbour_table_is_rejected(bad):
    rng = np.random.default_rng(18)
    net = QNetwork(4, TINY, seed=19)
    if isinstance(bad, list):
        # the union's own table would be valid (6 < 10 nodes): each member
        # is checked on its own, and the error names it
        obs = [table_obs(rng, t, groups=[0, 0, 0, 1, 1], n_groups=2) for t in bad]
        with pytest.raises(ValueError, match="^observation 1: neighbour table"):
            batch_q_values(obs, net, [[0.5]] * len(obs))
        return
    obs = table_obs(rng, bad, groups=[0, 0, 0, 1, 1], n_groups=2)
    with pytest.raises(ValueError, match="neighbour table"):
        encode([obs], net)


def stepped_obs(j, m, seed):
    """An ANP observation a few accepted and rejected proposals in."""
    state, obs = reset(generate_instance(j, m, seed=seed), ActionSpace.ANP,
                       seed=seed, t_max=10)
    for action in (6, 1, 7):
        state, _, _, obs = step(state, action)
    return obs


UNION_BATCHES = {
    # equal graph and group sizes: no block is padded
    "6x6": ([(6, 6)] * 12, 8),
    # a larger tau count, a multiple of the 4-row gemm block
    "k16": ([(6, 6)] * 4, 16),
    # 6-op and 8-op groups, 36 and 32 nodes in one union: padded blocks
    "6x6+8x4": ([(6, 6), (8, 4)] * 3, 8),
}


@pytest.mark.parametrize("scale", ["desk", "full"])
@pytest.mark.parametrize("batch", sorted(UNION_BATCHES))
def test_union_forward_equals_per_graph_forwards(batch, scale):
    from oracles import reference_q_values

    shapes, k = UNION_BATCHES[batch]
    config = GNNConfig.desk_scale() if scale == "desk" else GNNConfig()
    net = QNetwork(10, config, seed=31)
    rng = np.random.default_rng(32)
    observations = [stepped_obs(j, m, seed) for seed, (j, m) in enumerate(shapes)]
    taus = rng.uniform(size=(len(shapes), k))
    with ad.no_grad():
        z, q = batch_q_values(observations, net, taus)
        want = [reference_q_values(o, net, t) for o, t in zip(observations, taus)]
    assert np.array_equal(z.data, np.concatenate([zr.data for zr, _ in want]))
    assert np.array_equal(q.data, np.stack([qr.data for _, qr in want]))


def test_union_forward_with_unaligned_tau_counts_is_within_rounding():
    # BLAS rounds a gemm row by where it falls in the kernel's 4-row blocks,
    # so a tau count that is not a multiple of 4 may move the last bit
    from oracles import reference_q_values

    net = QNetwork(10, GNNConfig.desk_scale(), seed=33)
    rng = np.random.default_rng(34)
    observations = [stepped_obs(6, 6, seed) for seed in range(5)]
    taus = rng.uniform(size=(5, 5))
    with ad.no_grad():
        z, q = batch_q_values(observations, net, taus)
        want = [reference_q_values(o, net, t) for o, t in zip(observations, taus)]
    assert z.shape == (25, 10) and q.shape == (5, 10)
    assert np.allclose(z.data, np.concatenate([zr.data for zr, _ in want]),
                       rtol=1e-13, atol=1e-15)
    assert np.allclose(q.data, np.stack([qr.data for _, qr in want]),
                       rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("scale", ["desk", "full"])
def test_single_graph_gradients_equal_reference(scale):
    from oracles import reference_q_values

    config = GNNConfig.desk_scale() if scale == "desk" else GNNConfig()
    net = QNetwork(10, config, seed=35)
    obs = stepped_obs(6, 6, 36)
    rng = np.random.default_rng(37)
    taus = rng.uniform(size=8)
    g_z, g_q = rng.standard_normal((8, 10)), rng.standard_normal(10)
    grads = []
    for forward in (q_values, reference_q_values):
        net.zero_grad()
        z, q = forward(obs, net, taus)
        ad.add(ad.tsum(ad.mul(z, ad.constant(g_z))),
               ad.tsum(ad.mul(q, ad.constant(g_q)))).backward()
        grads.append({name: p.grad for name, p in net.params.items()})
    for name in net.params:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_union_forward_needs_taus_for_every_graph():
    net = QNetwork(10, TINY, seed=38)
    obs = small_obs(9)
    with pytest.raises(ValueError, match="taus"):
        batch_q_values([obs, obs], net, [[0.5]])
    with pytest.raises(ValueError, match="taus"):
        batch_q_values([obs], net, [[]])
    with pytest.raises(ValueError, match="taus"):
        batch_q_values([], net, [])
    with pytest.raises(ValueError, match="taus"):   # ragged: one K per forward
        batch_q_values([obs, obs], net, [[0.5], [0.25, 0.75]])
    with pytest.raises(ValueError, match="taus"):   # 1-D: no row per graph
        batch_q_values([obs, obs], net, [0.25, 0.75])


@pytest.mark.parametrize("make", [
    lambda: builtin_instance("ta01"),
    lambda: generate_instance(6, 6, seed=23),
], ids=["ta01", "random6x6"])
def test_neighbor_sum_matches_dense_oracle(make):
    from oracles import dense_chain_adjacency

    inst = make()
    state, obs = reset(inst, ActionSpace.ANP, seed=0, t_max=10)
    for action in (6, 1, 7):  # accept/reject a few proposals first
        state, _, _, obs = step(state, action)
    n = inst.n_ops
    graph = state.pending.graph if state.pending is not None else state.graph
    job_chains = [[j * inst.n_machines + k for k in range(inst.n_machines)]
                  for j in range(inst.n_jobs)]
    rng = np.random.default_rng(n)
    for nbr, chains in ((obs.nbr_stat, job_chains), (obs.nbr_dyna, graph.rows)):
        a = dense_chain_adjacency(chains, n)
        h = ad.parameter(rng.standard_normal((n, 16)))
        g = rng.standard_normal((n, 16))
        out = ad.neighbor_sum(h, nbr)
        ad.tsum(ad.mul(out, ad.constant(g))).backward()
        assert np.array_equal(out.data, a @ h.data)
        assert np.array_equal(h.grad, a.T @ g)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    net = QNetwork(8, TINY, seed=16)
    p = tmp_path / "net.npz"
    save_checkpoint(net, p)
    again = load_checkpoint(p)
    assert again.n_actions == 8
    assert set(again.params) == set(net.params)
    for name, t in net.params.items():
        assert np.array_equal(t.data, again.params[name].data), name
        assert t.data.dtype == again.params[name].data.dtype


def test_load_checkpoint_draws_no_initial_weights(tmp_path, monkeypatch):
    from jobshopls.nn import qnetwork

    net = QNetwork(8, TINY, seed=16)
    save_checkpoint(net, tmp_path / "net.npz")
    draws = []
    monkeypatch.setattr(qnetwork, "_glorot", lambda *args: draws.append(args))
    again = load_checkpoint(tmp_path / "net.npz")
    assert draws == []
    assert list(again.params) == list(net.params)


def test_checkpoint_rejects_missing_parameters(tmp_path):
    net = QNetwork(8, TINY, seed=17)
    p = tmp_path / "net.npz"
    save_checkpoint(net, p)
    data = dict(np.load(p, allow_pickle=False))
    removed = [k for k in data if k.endswith("dec.w2")][0]
    del data[removed]
    np.savez(tmp_path / "broken.npz", **data)
    with pytest.raises((KeyError, ValueError)):
        load_checkpoint(tmp_path / "broken.npz")


def test_load_checkpoint_rejects_a_parameter_of_the_wrong_shape(tmp_path):
    net = QNetwork(8, TINY, seed=17)
    save_checkpoint(net, tmp_path / "net.npz")
    data = dict(np.load(tmp_path / "net.npz", allow_pickle=False))
    data["param:dec.w2"] = data["param:dec.w2"][:, :3]
    np.savez(tmp_path / "cut.npz", **data)
    with pytest.raises(ValueError, match=r"cut\.npz: parameter dec\.w2 has shape "
                       r"\(16, 3\), expected \(16, 8\)"):
        load_checkpoint(tmp_path / "cut.npz")


def test_load_checkpoint_names_a_file_without_its_meta_record(tmp_path):
    np.savez(tmp_path / "other.npz", weights=np.zeros(3))
    with pytest.raises(ValueError, match=r"^checkpoint .*other\.npz: no __meta__ "
                       r"record; not a file written by save_checkpoint$"):
        load_checkpoint(tmp_path / "other.npz")


def test_load_checkpoint_ignores_a_stored_input_width(tmp_path):
    # files written before the widths came from env.N_NODE_FEATURES hold d_in
    import json

    net = QNetwork(8, TINY, seed=18)
    save_checkpoint(net, tmp_path / "net.npz")
    data = dict(np.load(tmp_path / "net.npz", allow_pickle=False))
    meta = json.loads(bytes(data["__meta__"]).decode())
    assert "d_in" not in meta
    meta["d_in"] = 5
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(tmp_path / "old.npz", **data)
    again = load_checkpoint(tmp_path / "old.npz")
    for name, t in net.params.items():
        assert np.array_equal(t.data, again.params[name].data), name


def test_parameter_count_scales_with_width():
    small = QNetwork(4, TINY, seed=0).n_parameters()
    large = QNetwork(4, GNNConfig(d_emb=16, mlp_hidden=16, iqn_hidden=32,
                                  n_tau_features=8), seed=0).n_parameters()
    assert large > small > 0
