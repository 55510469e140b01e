"""Integration tests for the AnECI model and AnECI+ denoising."""

import weakref

import numpy as np
import pytest

from repro.core import AnECI, AnECIConfig, AnECIPlus, newman_modularity
from repro.core.encoder import GCNEncoder
from repro.graph import planted_partition
from repro.nn import Tensor


@pytest.fixture(scope="module")
def clique_graph():
    rng = np.random.default_rng(0)
    return planted_partition(3, 15, 0.7, 0.03, rng, num_features=24)


@pytest.fixture(scope="module")
def fitted(clique_graph):
    model = AnECI(clique_graph.num_features, num_communities=3,
                  epochs=80, lr=0.05, seed=0)
    model.fit(clique_graph)
    return model


class TestConstruction:
    def test_config_or_kwargs_not_both(self):
        cfg = AnECIConfig(num_communities=3)
        with pytest.raises(ValueError):
            AnECI(10, num_communities=3, config=cfg)

    def test_requires_num_communities(self):
        with pytest.raises(ValueError):
            AnECI(10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnECIConfig(num_communities=0)
        with pytest.raises(ValueError):
            AnECIConfig(num_communities=2, order=0)
        with pytest.raises(ValueError):
            AnECIConfig(num_communities=2, beta1=-1)
        with pytest.raises(ValueError):
            AnECIConfig(num_communities=2, dropout=1.5)

    def test_embed_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            AnECI(5, num_communities=2).embed()

    def test_feature_mismatch_raises(self, clique_graph):
        model = AnECI(99, num_communities=3)
        with pytest.raises(ValueError, match="features"):
            model.fit(clique_graph)


class TestTraining:
    def test_loss_decreases(self, fitted):
        first = fitted.history[0]["loss"]
        last = fitted.history[-1]["loss"]
        assert last < first

    def test_modularity_increases(self, fitted):
        assert (fitted.history[-1]["modularity"]
                > fitted.history[0]["modularity"])

    def test_recovers_planted_communities(self, clique_graph, fitted):
        predicted = fitted.assign_communities()
        q_learned = newman_modularity(clique_graph.adjacency, predicted)
        q_true = newman_modularity(clique_graph.adjacency, clique_graph.labels)
        assert q_learned > 0.8 * q_true

    def test_embedding_shape(self, clique_graph, fitted):
        z = fitted.embed()
        assert z.shape == (clique_graph.num_nodes, 3)

    def test_membership_is_distribution(self, fitted):
        p = fitted.membership()
        assert np.all(p >= 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_rigidity_grows_during_training(self, fitted):
        """Fig. 9(b): optimisation drives P toward hard partition."""
        assert fitted.history[-1]["rigidity"] > fitted.history[0]["rigidity"]

    def test_deterministic_given_seed(self, clique_graph):
        kwargs = dict(num_communities=3, epochs=5, seed=3)
        a = AnECI(clique_graph.num_features, **kwargs).fit_transform(clique_graph)
        b = AnECI(clique_graph.num_features, **kwargs).fit_transform(clique_graph)
        np.testing.assert_allclose(a, b)

    def test_callback_invoked(self, clique_graph):
        calls = []
        model = AnECI(clique_graph.num_features, num_communities=3, epochs=3)
        model.fit(clique_graph, callback=lambda e, m, r: calls.append(e))
        assert calls == [0, 1, 2]

    def test_early_stopping_bounds_epochs(self, clique_graph):
        model = AnECI(clique_graph.num_features, num_communities=3,
                      epochs=200, patience=3, lr=0.05, seed=0)
        model.fit(clique_graph)
        assert len(model.history) < 200

    def test_anomaly_scores_shape(self, clique_graph, fitted):
        scores = fitted.anomaly_scores()
        assert scores.shape == (clique_graph.num_nodes,)
        assert np.isfinite(scores).all()

    def test_entropy_only_anomaly_scores_bounded(self, clique_graph, fitted):
        scores = fitted.anomaly_scores(use_attributes=False)
        assert np.all(scores >= 0)
        assert np.all(scores <= np.log(3) + 1e-9)

    def test_recon_sampling_path(self, clique_graph):
        model = AnECI(clique_graph.num_features, num_communities=3,
                      epochs=5, recon_sample_size=10, seed=0)
        model.fit(clique_graph)
        assert len(model.history) == 5

    def test_n_init_keeps_best_restart(self, clique_graph):
        single = AnECI(clique_graph.num_features, num_communities=3,
                       epochs=30, lr=0.05, seed=0)
        single.fit(clique_graph)
        multi = AnECI(clique_graph.num_features, num_communities=3,
                      epochs=30, lr=0.05, seed=0, n_init=3)
        multi.fit(clique_graph)
        assert (multi.history[-1]["modularity"]
                >= single.history[-1]["modularity"] - 1e-9)

    def test_n_init_validation(self):
        with pytest.raises(ValueError):
            AnECIConfig(num_communities=3, n_init=0)

    def test_embed_on_other_graph(self, clique_graph, fitted):
        attacked = clique_graph.add_edges([(0, 44)])
        z = fitted.embed(attacked)
        assert z.shape == (clique_graph.num_nodes, 3)


class TestAnECIPlus:
    def test_fit_produces_denoise_diagnostics(self, clique_graph):
        model = AnECIPlus(clique_graph.num_features, num_communities=3,
                          epochs=30, lr=0.05, seed=0, alpha=4.0)
        model.fit(clique_graph)
        result = model.denoise_result
        assert 0.0 <= result.drop_ratio <= 0.75
        assert result.num_dropped == len(result.dropped_edges)
        assert model.denoised_graph.num_edges == (
            clique_graph.num_edges - result.num_dropped)

    def test_denoising_prefers_fake_edges(self, clique_graph):
        """Cross-community fake edges should be dropped at a higher rate."""
        rng = np.random.default_rng(5)
        labels = clique_graph.labels
        fakes = []
        while len(fakes) < 25:
            u, v = rng.integers(0, clique_graph.num_nodes, size=2)
            if labels[u] != labels[v] and not clique_graph.has_edge(u, v) and u != v:
                fakes.append((int(u), int(v)))
        attacked = clique_graph.add_edges(fakes)
        model = AnECIPlus(clique_graph.num_features, num_communities=3,
                          epochs=50, lr=0.05, seed=0, alpha=4.0)
        model.fit(attacked)
        dropped = {tuple(sorted(e)) for e in model.denoise_result.dropped_edges}
        fake_set = {tuple(sorted(e)) for e in fakes}
        fake_drop_rate = len(dropped & fake_set) / len(fake_set)
        overall_rate = model.denoise_result.drop_ratio
        assert fake_drop_rate > overall_rate

    def test_embed_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            AnECIPlus(5, num_communities=2).embed()

    def test_fit_transform_shape(self, clique_graph):
        model = AnECIPlus(clique_graph.num_features, num_communities=3,
                          epochs=10, seed=0)
        z = model.fit_transform(clique_graph)
        assert z.shape == (clique_graph.num_nodes, 3)


def test_sampled_epoch_graph_is_freed_before_the_next_forward(
        monkeypatch, clique_graph):
    # ``Tensor`` has no ``__weakref__`` slot; the loss's data array lives
    # exactly as long as the loss tensor (``item()`` copies it out).
    losses = []
    alive = []
    backward = Tensor.backward

    def recording_backward(self, grad=None):
        losses.append(weakref.ref(self.data))
        backward(self, grad)

    def checked(forward):
        def wrapped(self, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in losses))
            return forward(self, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(Tensor, "backward", recording_backward)
    monkeypatch.setattr(GCNEncoder, "forward", checked(GCNEncoder.forward))
    monkeypatch.setattr(GCNEncoder, "forward_blocks",
                        checked(GCNEncoder.forward_blocks))
    model = AnECI(clique_graph.num_features, num_communities=3, epochs=4,
                  lr=0.05, seed=0, train_mode="sampled", batch_nodes=20,
                  edge_samples=64, fanout=4)
    model.fit(clique_graph)
    assert len(losses) == 4
    # One forward per epoch; none may see an earlier epoch's loss alive.
    assert alive == [0, 0, 0, 0]
