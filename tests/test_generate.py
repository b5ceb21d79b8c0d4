import pytest

import dart_views as views
from gbs import (GeneratorConfig, InputError, generate_admissible_map,
                 generate_graph, verify_admissible)
from gbs.suites import RECIPES


class TestGenerateGraph:
    def test_bit_for_bit_determinism(self):
        cfg = GeneratorConfig(seed=42)
        assert generate_graph(cfg) == generate_graph(cfg)

    def test_different_seeds_differ_somewhere(self):
        graphs = {generate_graph(GeneratorConfig(seed=s)) for s in range(20)}
        assert len(graphs) > 1

    def test_bounds_and_shape(self):
        for seed in range(1, 40):
            cfg = GeneratorConfig(seed=seed, max_vertices=4, max_edges=6,
                                  max_label_magnitude=9)
            g = generate_graph(cfg)
            assert 1 <= len(g.vertices) <= 4
            assert len(g.edges) <= 6
            assert g.is_connected()
            assert g.is_reduced()
            for dart in views.darts(g):
                assert 1 <= abs(views.label(g, dart)) <= 9


class TestGenerateMap:
    def test_determinism(self):
        cfg = GeneratorConfig(seed=7, map_recipe=("branched", "voltage:2"))
        a = generate_admissible_map(cfg)
        b = generate_admissible_map(cfg)
        assert a.source == b.source
        assert a.vertex_map == b.vertex_map
        assert a.vertex_multiplicity == b.vertex_multiplicity

    @pytest.mark.parametrize("recipe", RECIPES)
    def test_every_recipe_is_admissible(self, recipe):
        for seed in (1, 5, 11):
            m = generate_admissible_map(GeneratorConfig(seed=seed,
                                                        map_recipe=recipe))
            assert verify_admissible(m)
            assert m.source.is_connected()
            assert m.target.is_reduced()

    def test_branched_falls_back_on_plateau_free_targets(self):
        # seed chosen so the base graph has no proper plateau
        for seed in range(1, 200):
            cfg = GeneratorConfig(seed=seed, map_recipe=("branched",))
            m = generate_admissible_map(cfg)
            from gbs import has_proper_plateau
            if not has_proper_plateau(m.target):
                assert m.total_multiplicity() == 2  # voltage fallback
                return
        pytest.skip("no plateau-free base graph in the seed range")

    def test_unknown_step(self):
        with pytest.raises(InputError):
            generate_admissible_map(GeneratorConfig(seed=1,
                                                    map_recipe=("mystery",)))

    def test_config_validation(self):
        with pytest.raises(InputError):
            GeneratorConfig(seed=1, max_label_magnitude=1)
