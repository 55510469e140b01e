"""Additional coverage for smaller code paths across the library."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import (Bilinear, GCNConv, Linear, Sequential, Tensor,
                      functional as F)


class TestSequential:
    def test_plain_stack(self):
        rng = np.random.default_rng(0)
        net = Sequential(Linear(4, 8, rng), Linear(8, 2, rng))
        out = net(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)

    def test_extra_args_forwarded(self):
        rng = np.random.default_rng(0)
        net = Sequential(GCNConv(4, 4, rng), GCNConv(4, 2, rng))
        adj = sp.eye(3, format="csr")
        out = net(Tensor(np.ones((3, 4))), adj)
        assert out.shape == (3, 2)

    def test_parameters_collected(self):
        rng = np.random.default_rng(0)
        net = Sequential(Linear(2, 2, rng), Linear(2, 2, rng))
        assert len(list(net.parameters())) == 4


class TestBilinear:
    def test_symmetric_scoring_shape(self):
        rng = np.random.default_rng(0)
        disc = Bilinear(4, rng)
        x = Tensor(np.ones((5, 4)))
        y = Tensor(np.ones((5, 4)))
        assert disc(x, y).shape == (5, 4)

    def test_gradient_reaches_weight(self):
        rng = np.random.default_rng(0)
        disc = Bilinear(3, rng)
        x = Tensor(np.ones((2, 3)))
        disc(x, x).sum().backward()
        assert disc.weight.grad is not None


class TestFunctionalNLL:
    def test_nll_direct(self):
        log_probs = Tensor(np.log(np.array([[0.9, 0.1], [0.2, 0.8]])))
        loss = F.nll_loss(log_probs, np.array([0, 1]), reduction="mean")
        expected = -(np.log(0.9) + np.log(0.8)) / 2
        assert loss.item() == pytest.approx(expected)

    def test_reduction_none_shape(self):
        log_probs = Tensor(np.zeros((3, 2)))
        loss = F.nll_loss(log_probs, np.array([0, 1, 0]), reduction="none")
        assert loss.shape == (3,)


class TestBaselineUnfittedPaths:
    @pytest.mark.parametrize("builder", [
        lambda B: B.AnomalyDAE(),
        lambda B: B.GATE(),
        lambda B: B.VGraph(3),
        lambda B: B.ComE(3),
        lambda B: B.ONE(),
        lambda B: B.SDNE(),
        lambda B: B.GraphSAGE(),
        lambda B: B.DeepWalk(),
        lambda B: B.LINE(),
    ])
    def test_embed_before_fit_raises(self, builder):
        from repro import baselines as B
        with pytest.raises(RuntimeError):
            builder(B).embed()

    def test_anomaly_scores_before_fit(self):
        from repro.baselines import Dominant, ONE
        with pytest.raises(RuntimeError):
            Dominant().anomaly_scores()
        with pytest.raises(RuntimeError):
            ONE().anomaly_scores()


class TestRenderResultsTool:
    def test_summary_generation(self, tmp_path, monkeypatch):
        import runpy
        from pathlib import Path
        tool = Path(__file__).parent.parent / "tools" / "render_results.py"
        module = runpy.run_path(str(tool))
        # Point the tool at a temp results dir with one fixture file.
        import json
        (tmp_path / "demo.json").write_text(
            json.dumps({"A": {"acc": 0.5}, "B": {"acc": 0.25}}))
        # runpy copies globals after execution, so patch the dict the
        # function actually closes over.
        module["main"].__globals__["RESULTS"] = tmp_path
        out = module["main"]()
        text = out.read_text()
        assert "## demo" in text
        assert "| A | 0.5000 |" in text
