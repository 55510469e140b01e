"""Documentation fidelity and full-scale dataset calibration tests."""

import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parent.parent


class TestReadmeFidelity:
    def test_quickstart_snippet_runs(self):
        """The README's quickstart block must execute as printed
        (with a smaller scale for test speed)."""
        from repro import AnECI, load_dataset
        from repro.tasks import evaluate_embedding

        graph = load_dataset("cora", scale=0.08)
        model = AnECI(graph.num_features,
                      num_communities=graph.num_classes,
                      epochs=10, order=2)
        embedding = model.fit_transform(graph)
        acc = evaluate_embedding(embedding, graph)
        assert 0.0 <= acc <= 1.0

    def test_readme_modules_exist(self):
        """Every `repro.x` module named in the README imports."""
        import importlib
        text = (ROOT / "README.md").read_text()
        modules = set(re.findall(r"\brepro\.[a-z_]+\b", text))
        for name in sorted(modules):
            importlib.import_module(name)

    def test_readme_bench_files_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"test_\w+\.py", text):
            assert ((ROOT / "benchmarks" / match).exists()
                    or (ROOT / "tests" / match).exists()), match

    def test_paper_mapping_symbols_exist(self):
        """Code references in docs/PAPER_MAPPING.md must resolve."""
        import repro.core as core
        import repro.graph as graph
        for symbol in ("newman_modularity", "generalized_modularity_tensor",
                       "defense_score", "rigidity",
                       "community_anomaly_scores", "smoothing_psi"):
            assert hasattr(core, symbol), symbol
        for symbol in ("high_order_proximity", "katz_proximity",
                       "load_dataset"):
            assert hasattr(graph, symbol), symbol

    def test_experiments_md_covers_every_bench(self):
        """Every benchmark module is referenced from EXPERIMENTS.md or
        README.md (no orphan experiments)."""
        text = ((ROOT / "EXPERIMENTS.md").read_text()
                + (ROOT / "README.md").read_text())
        for bench in (ROOT / "benchmarks").glob("test_*.py"):
            assert bench.name in text, f"{bench.name} undocumented"

    def test_env_table_matches_the_code(self):
        """README's env table lists every ``REPRO_*`` name the package
        reads, and every name it lists is read somewhere."""
        def read_in(*dirs):
            names = set()
            for directory in dirs:
                for path in (ROOT / directory).rglob("*.py"):
                    names.update(re.findall(r"""["'](REPRO_[A-Z0-9_]+)["']""",
                                            path.read_text()))
            return names

        readme = (ROOT / "README.md").read_text()
        table = readme[readme.index("Every `REPRO_*` knob"):]
        table = table[:table.index("\n\n", table.index("| `REPRO_"))]
        rows = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", table, re.M))
        assert read_in("src") - rows == set()
        assert rows - read_in("src", "benchmarks", "tools") == set()


class TestFullScaleCalibration:
    @pytest.fixture(scope="class")
    def full_cora(self):
        from repro.graph import load_dataset
        return load_dataset("cora", scale=1.0, seed=0)

    def test_node_count_exact(self, full_cora):
        assert full_cora.num_nodes == 2708

    def test_edge_count_calibrated(self, full_cora):
        # Degree-corrected sampling is stochastic; Table II target 5429.
        assert 0.7 * 5429 < full_cora.num_edges < 1.4 * 5429

    def test_split_sizes_match_table2(self, full_cora):
        assert len(full_cora.train_idx) == 140  # 20 per class × 7
        assert len(full_cora.val_idx) == 500
        assert len(full_cora.test_idx) == 1000

    def test_classes_and_features(self, full_cora):
        assert full_cora.num_classes == 7
        assert full_cora.num_features == 1433

    def test_homophily_in_citation_range(self, full_cora):
        from repro.graph import homophily_index
        assert 0.7 < homophily_index(full_cora) < 0.95

    def test_heavy_tailed_degrees(self, full_cora):
        degrees = full_cora.degrees()
        assert degrees.max() > 4 * degrees.mean()
