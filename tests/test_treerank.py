"""Tree rank values, certificates, and the eccentricity bounds."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest

from lvcops.cli import main
from lvcops.engine import Variant
from lvcops.families import path_graph, random_tree, spider, subdivided_binary, t_family
from lvcops.graphs import Graph, bits, mask_of
from lvcops.solver import cop_number
from lvcops.treerank import (
    CertificateBranch,
    RankCertificate,
    height_bound,
    rank,
    verify_certificate,
)


def test_single_vertex_has_rank_one():
    g = Graph(1, [])
    k, cert = rank(g, 1)
    assert k == 1
    assert cert == RankCertificate(1, 1, 0, ())
    assert verify_certificate(g, cert)


def test_paths_have_rank_one():
    for n in (2, 3, 5, 9, 14):
        for ell in (1, 2):
            k, cert = rank(path_graph(n), ell)
            assert k == 1, (n, ell)
            assert cert.branches == ()


def test_rank_rejects_non_trees_and_bad_radius():
    square = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError):
        rank(square, 1)
    with pytest.raises(ValueError):
        rank(path_graph(3), 0)
    with pytest.raises(ValueError):
        height_bound(square, 1)


def test_spider_rank_two_with_central_hub():
    gg = t_family(2, 1)
    g = gg.graph
    k, cert = rank(g, 1)
    assert k == 2
    assert cert.hub == gg.annotations["hub"]
    assert len(cert.branches) == 3
    for b in cert.branches:
        assert len(b.path) == 4
        assert b.child.k == 1
    assert verify_certificate(g, cert)


def test_spider_needs_full_leg_spacing():
    assert rank(spider(3, 3).graph, 1)[0] == 1
    assert rank(spider(3, 4).graph, 1)[0] == 2
    assert rank(spider(3, 5).graph, 1)[0] == 2
    assert rank(spider(4, 4).graph, 1)[0] == 2


def test_generated_family_members_have_their_level():
    for level, ell in [(1, 1), (2, 1), (3, 1), (2, 2)]:
        gg = t_family(level, ell)
        k, cert = rank(gg.graph, ell)
        assert k == level, (level, ell)
        assert verify_certificate(gg.graph, cert)


def test_family_members_with_random_attachments():
    for seed in (1, 2, 3):
        gg = t_family(2, 1, attach_seed=seed)
        k, cert = rank(gg.graph, 1)
        assert k == 2
        assert verify_certificate(gg.graph, cert)


def test_subdivided_binary_tree_rank():
    g = subdivided_binary(3, 3).graph  # 57 vertices, radius-1 benchmark tree
    k, cert = rank(g, 1)
    assert k == 2
    assert verify_certificate(g, cert)


def test_rank_matches_solver_on_random_trees():
    for seed in range(30):
        n = 6 + seed % 9
        g = random_tree(n, seed)
        for ell in (1, 2):
            k, cert = rank(g, ell)
            assert verify_certificate(g, cert)
            assert k == cop_number(g, ell, Variant.CAPTURE), (seed, n, ell)


def test_rank_monotone_under_leaf_deletion():
    for seed in range(15):
        g = random_tree(10 + seed % 5, seed)
        leaf = next(v for v in range(g.n) if g.degree(v) == 1)
        sub, _ = g.induced(g.full & ~(1 << leaf))
        assert rank(sub, 1)[0] <= rank(g, 1)[0]


def test_certificate_span_and_roundtrip():
    gg = t_family(3, 1)
    k, cert = rank(gg.graph, 1)
    assert k == 3
    span = cert.span()
    assert span & ~gg.graph.full == 0
    assert span.bit_count() >= 3 * (4 + 1) + 1
    again = RankCertificate.from_dict(cert.to_dict())
    assert again == cert
    assert verify_certificate(gg.graph, again)


def _spider_cert():
    gg = t_family(2, 1)
    k, cert = rank(gg.graph, 1)
    assert k == 2
    return gg.graph, cert


def test_tampered_certificate_short_path():
    g, cert = _spider_cert()
    b = cert.branches[0]
    bad = dataclasses.replace(b, path=b.path[:-1])
    assert not verify_certificate(g, dataclasses.replace(cert, branches=(bad,) + cert.branches[1:]))


def test_tampered_certificate_shared_vertex():
    g, cert = _spider_cert()
    twice = (cert.branches[0], cert.branches[0], cert.branches[2])
    assert not verify_certificate(g, dataclasses.replace(cert, branches=twice))


def test_tampered_certificate_wrong_child_level():
    g, cert = _spider_cert()
    b = cert.branches[0]
    deep = dataclasses.replace(b, child=dataclasses.replace(b.child, k=2))
    assert not verify_certificate(g, dataclasses.replace(cert, branches=(deep,) + cert.branches[1:]))
    assert not verify_certificate(g, dataclasses.replace(cert, k=3))


def test_tampered_certificate_broken_walk():
    g, cert = _spider_cert()
    b = cert.branches[0]
    other = cert.branches[1].path[-1]
    bad = dataclasses.replace(b, path=b.path[:-1] + (other,))
    assert not verify_certificate(g, dataclasses.replace(cert, branches=(bad,) + cert.branches[1:]))


def test_tampered_certificate_child_outside_region():
    g, cert = _spider_cert()
    b = cert.branches[0]
    stray = dataclasses.replace(b, child=RankCertificate(1, 1, cert.hub, ()))
    assert not verify_certificate(g, dataclasses.replace(cert, branches=(stray,) + cert.branches[1:]))


def test_certificate_verifies_against_matching_tree_only():
    g, cert = _spider_cert()
    assert not verify_certificate(path_graph(13), cert)


def test_rank_outputs_are_deterministic():
    g = random_tree(14, 99)
    assert rank(g, 1) == rank(g, 1)


def test_height_bound_readings():
    sp = t_family(2, 1).graph
    hb = height_bound(sp, 1)
    assert hb.radius_reading == 1  # undershoots the true rank of 2
    assert hb.diameter_reading == 2

    hb9 = height_bound(path_graph(9), 1)
    assert hb9.radius_reading == 1
    assert hb9.diameter_reading == 2

    t1 = subdivided_binary(3, 3).graph
    hb1 = height_bound(t1, 1)
    assert rank(t1, 1)[0] <= hb1.diameter_reading


def test_diameter_reading_bounds_rank_everywhere():
    for seed in range(25):
        g = random_tree(5 + seed % 10, seed * 7)
        for ell in (1, 2):
            assert rank(g, ell)[0] <= height_bound(g, ell).diameter_reading


# -- an independent ranker ---------------------------------------------------------


def definition_rank(g: Graph, ell: int) -> tuple[int, RankCertificate]:
    """Rank and certificate read straight off the module docstring.

    Every vertex of a region is tried as a hub and every region vertex at
    distance 2*ell + 2 as an anchor; the hanging subtree is the distance
    formula {v : dist(v, q) = dist(v, r) + dist(r, q)} over the region.
    The certificate takes the lowest-numbered hub, directions and anchors.
    """
    spacing = 2 * ell + 2
    d = g.dist
    memo: dict[int, int] = {}

    def toward(q: int, r: int) -> int:
        return next(u for u in bits(g.adj[q]) if d[r][u] == d[r][q] - 1)

    def arms(region: int, q: int) -> dict[int, list[tuple[int, int]]]:
        """direction -> (anchor, hanging subtree) pairs, anchors ascending;
        empty unless q has the three directions a hub needs"""
        out: dict[int, list[tuple[int, int]]] = {}
        if (g.adj[q] & region).bit_count() < 3:
            return out
        for r in bits(region):
            if d[q][r] == spacing:
                sub = mask_of(v for v in bits(region) if d[q][v] == d[r][v] + d[q][r])
                out.setdefault(toward(q, r), []).append((r, sub))
        return out

    def score(region: int) -> int:
        if region not in memo:
            best = 1
            for q in bits(region):
                values = sorted(
                    (max(score(sub) for _, sub in pairs) for pairs in arms(region, q).values()),
                    reverse=True,
                )
                if len(values) >= 3:
                    best = max(best, 1 + values[2])
            memo[region] = best
        return memo[region]

    def certificate(region: int, level: int) -> RankCertificate:
        if level == 1:
            return RankCertificate(1, ell, min(bits(region)), ())
        for q in bits(region):
            chosen = []
            for direction, pairs in sorted(arms(region, q).items()):
                r = next((r for r, sub in pairs if score(sub) >= level - 1), None)
                if r is not None:
                    chosen.append((direction, r, dict(pairs)[r]))
            if len(chosen) < 3:
                continue
            branches = []
            for direction, r, sub in chosen[:3]:
                path = [direction]
                while path[-1] != r:
                    path.append(toward(path[-1], r))
                branches.append(CertificateBranch(direction, tuple(path), certificate(sub, level - 1)))
            return RankCertificate(level, ell, q, tuple(branches))
        raise AssertionError("no hub reaches the level")

    k = score(g.full)
    return k, certificate(g.full, k)


def _random_trees(count: int, seed: int):
    """Bushy trees (uniform parent), stringy ones (parent among the three
    vertices before) and some in between (among the six before), n <= 60,
    relabelled at random."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randrange(1, 61)
        span = (n, 3, 6)[i % 3]
        label = list(range(n))
        rng.shuffle(label)
        edges = [(label[v], label[rng.randrange(max(0, v - span), v)]) for v in range(1, n)]
        yield Graph(n, edges)


def test_rank_matches_the_definition_on_random_trees():
    seen = set()
    for g in _random_trees(120, 8):
        for ell in (1, 2, 3):
            got = rank(g, ell)
            assert got == definition_rank(g, ell), (g.n, g.edges, ell)
            seen.add((ell, got[0]))
    assert seen >= {(1, 2), (2, 2), (3, 2)}  # branching found at every radius


def test_rank_matches_the_definition_on_family_members():
    for level, ell in [(2, 1), (3, 1), (2, 2), (2, 3)]:
        g = t_family(level, ell, attach_seed=level).graph
        assert rank(g, ell) == definition_rank(g, ell)


def test_pinned_rank_output(capsys):
    """rank --format structured on the 157-vertex level-4 member, as it
    read before the ranker moved to edge-side masks."""
    assert main(["rank", "--recipe", "tfamily:k=4,ell=1", "--format", "structured"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b2f1ffdd3f9873b78310262caa5d2a0ff5e572ce1d9c7ef53c2740fc5002a264"


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            "verify --recipe randomtree:n=40,seed=3 --script tree1vis --ell 1",
            "543db2d471891126007ec53152031ac369b6cf6db1390defff4a383afb4606df",
        ),
        (
            "simulate --recipe randomtree:n=40,seed=3 --script tree1vis --ell 1 --variant see --seed 5",
            "f3a285344b6a0647a0ef08c092f5e02e5050fef3b6a7f3bf15e53cfab6184e4e",
        ),
    ],
    ids=["verify", "simulate"],
)
def test_pinned_script_output(capsys, argv, want):
    """A cleaning report and a scripted playout on a 40-vertex random tree,
    structured, as they read before the report and the envelope encoder
    took their shape fast paths."""
    assert main(argv.split() + ["--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == want
