"""Generators: shapes, sizes, annotations, reproducibility."""

from __future__ import annotations

import pytest

from lvcops.families import (
    MAX_ORDER,
    FamilyKind,
    FamilyRecipe,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate,
    parse_recipe,
    path_graph,
    random_chordal,
    random_connected_graph,
    random_copwin_graph,
    random_tree,
    recipe_to_str,
    spider,
    subdivided_binary,
    t_family,
)
from lvcops.graphs import is_chordal, is_copwin, metrics


def test_simple_shapes():
    assert len(path_graph(6).edges) == 5
    assert len(cycle_graph(6).edges) == 6
    assert len(complete_graph(5).edges) == 10
    g = complete_bipartite_graph(2, 3)
    assert g.n == 5 and len(g.edges) == 6
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_spider_annotations():
    out = spider(3, 4)
    g = out.graph
    assert g.n == 13 and g.is_tree()
    assert out.annotations["hub"] == 0
    assert all(g.degree(t) == 1 for t in out.annotations["tips"])
    m = metrics(g)
    assert m.height == 4 and m.diameter == 8


def test_t_family_base_and_sizes():
    assert t_family(1, 1).graph.n == 1
    assert t_family(2, 1).graph.n == 13
    assert t_family(3, 1).graph.n == 49
    assert t_family(2, 2).graph.n == 19
    for k, ell in [(2, 1), (3, 1), (2, 2)]:
        assert t_family(k, ell).graph.is_tree()


def test_t_family_annotations_consistent():
    out = t_family(3, 1)
    g = out.graph
    ann = out.annotations
    assert ann["hub"] == g.n - 1  # hub labelled last
    assert len(ann["branches"]) == 3
    for b in ann["branches"]:
        path = b["path"]
        assert path[0] == ann["hub"] and path[-1] == b["attach"]
        assert len(path) == 2 * 1 + 3  # 2*ell+2 edges
        for u, v in zip(path, path[1:]):
            assert (g.adj[u] >> v) & 1
        assert b["member"] is not None  # depth-3 members are spiders
        assert b["attach"] == b["member"]["hub"]


def test_t_family_custom_attachments():
    base = t_family(3, 1, attach_seed=0).graph
    alt = t_family(3, 1, attach_seed=7)
    assert alt.graph.n == base.n
    assert alt.graph.is_tree()
    # same seed reproduces, different seeds allowed to differ
    assert alt.graph.edges == t_family(3, 1, attach_seed=7).graph.edges


def test_subdivided_binary_counts():
    out = subdivided_binary(3, 3)
    g = out.graph
    assert g.n == 57  # 15 tree nodes + 14 edges * 3 subdivision vertices
    assert g.is_tree()
    names = out.annotations["names"]
    assert len(names) == 15
    assert {"root", "L", "R", "LL", "LR", "RL", "RR"} <= set(names)
    assert g.dist[names["root"]][names["L"]] == 4
    assert g.dist[names["L"]][names["LR"]] == 4
    out2 = subdivided_binary(3, 5)
    assert out2.graph.n == 15 + 14 * 5


def test_subdivided_paths_run_parent_to_child():
    out = subdivided_binary(2, 2)
    g = out.graph
    names = out.annotations["names"]
    for key, seg in out.annotations["paths"].items():
        parent, child = key.split("-")
        assert seg[0] == names[parent] and seg[-1] == names[child]
        for u, v in zip(seg, seg[1:]):
            assert (g.adj[u] >> v) & 1


def test_random_tree_uniform_model():
    for seed in range(20):
        n = 3 + seed % 12
        g = random_tree(n, seed)
        assert g.is_tree()
    assert random_tree(9, 4).edges == random_tree(9, 4).edges
    assert random_tree(1, 0).n == 1
    assert random_tree(2, 0).edges == ((0, 1),)


def test_random_chordal_is_chordal():
    for seed in range(25):
        g = random_chordal(3 + seed % 9, seed, clique_bias=1 + seed % 3)
        assert g.is_connected()
        assert is_chordal(g)


def test_random_copwin_is_dismantlable():
    for seed in range(25):
        g = random_copwin_graph(2 + seed % 8, seed)
        assert g.is_connected()
        assert is_copwin(g)


def test_random_connected():
    for seed in range(15):
        g = random_connected_graph(2 + seed, 3, seed)
        assert g.is_connected()


def test_recipe_roundtrip_and_dispatch():
    r = parse_recipe("cycle:6")
    assert r.kind is FamilyKind.CYCLE and generate(r).graph.n == 6
    r = parse_recipe("tfamily:k=2,ell=1")
    assert generate(r).graph.n == 13
    r = parse_recipe("subdivided:3,3")
    assert generate(r).graph.n == 57
    r = parse_recipe("biclique:2,3")
    assert generate(r).graph.n == 5
    r = parse_recipe("randomtree:10,42")
    assert generate(r).graph.is_tree()
    assert parse_recipe(recipe_to_str(r)) == r
    with pytest.raises(ValueError):
        parse_recipe("mysterygraph:3")
    with pytest.raises(ValueError):
        parse_recipe("cycle:1,2,3")
    with pytest.raises(ValueError):
        generate(FamilyRecipe.make(FamilyKind.CYCLE))  # missing n


def test_generation_reproducible():
    a = generate(parse_recipe("randomchordal:9,5"))
    b = generate(parse_recipe("randomchordal:9,5"))
    assert a.graph.edges == b.graph.edges
    assert t_family(3, 1).graph.edges == t_family(3, 1).graph.edges


@pytest.mark.parametrize(
    "recipe, n",
    [("path:256", 256), ("tfamily:k=4,ell=1", 157), ("tfamily:k=5,ell=0", 241),
     ("subdivided:7,0", 255), ("spider:5,51", 256), ("biclique:2,254", 256),
     ("randomtree:n=256,seed=1", 256)],
)
def test_recipe_order_cap_admits_the_limit(recipe, n):
    assert MAX_ORDER == 256
    assert generate(parse_recipe(recipe)).graph.n == n


@pytest.mark.parametrize(
    "recipe",
    ["path:257", "tfamily:k=5,ell=1", "tfamily:k=1000000000,ell=1", "subdivided:8,0",
     "subdivided:1000000000,1", "spider:5,52", "biclique:128,129", "randomchordal:n=300,seed=1"],
)
def test_recipe_order_cap_refuses_larger(recipe):
    with pytest.raises(ValueError, match=f"builds more than {MAX_ORDER} vertices"):
        generate(parse_recipe(recipe))
