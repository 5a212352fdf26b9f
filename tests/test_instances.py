"""Geometric generator, plain-routing baseline, builtin instances."""

import math

import numpy as np
import pytest

from carpool import (GenerationError, GeometricConfig, edges_within_radius,
                     generate_geometric, plain_routing_cost)
from carpool.instances import MAX_EXPECTED_EDGES, MAX_EXPECTED_NODES
from carpool.model import Instance, Node, Session, component_labels


# -------------------------------------------------------------- generation

def test_same_seed_reproduces_the_instance():
    cfg = GeometricConfig(side=6.0, sessions=4, seed=9)
    assert generate_geometric(cfg) == generate_geometric(cfg)


def test_different_seeds_differ():
    a = generate_geometric(GeometricConfig(side=6.0, sessions=4, seed=9))
    b = generate_geometric(GeometricConfig(side=6.0, sessions=4, seed=10))
    assert a != b


def test_node_count_tracks_intensity_times_area():
    ns = [len(generate_geometric(GeometricConfig(side=6.0, sessions=0,
                                                 seed=s)).nodes)
          for s in range(1, 31)]
    assert 30.0 <= sum(ns) / len(ns) <= 42.0  # Poisson mean 36


def test_edges_require_strictly_less_than_radius():
    at = lambda d: np.array([[0.0, 0.0], [d, 0.0]])
    assert edges_within_radius(at(0.99), 1.0) == [(0, 1)]
    assert edges_within_radius(at(1.0), 1.0) == []
    assert edges_within_radius(at(1.01), 1.0) == []


def test_rate_and_cost_settings_propagate():
    inst = generate_geometric(GeometricConfig(side=5.0, sessions=2, rate=0.5,
                                              cost=2.5, seed=4))
    assert {nd.cost for nd in inst.nodes} == {2.5}
    assert [s.rate for s in inst.sessions] == [0.5, 0.5]
    assert all(0.0 <= nd.pos[0] <= 5.0 and 0.0 <= nd.pos[1] <= 5.0
               for nd in inst.nodes)


def test_sessions_are_valid_and_distinct():
    for seed in (1, 2, 3, 4, 5):
        inst = generate_geometric(GeometricConfig(side=6.0, sessions=4,
                                                  seed=seed))
        labels = component_labels(len(inst.nodes), inst.edges)
        endpoints = [(s.source, s.dest) for s in inst.sessions]
        assert len(set(endpoints)) == 4
        for s, d in endpoints:
            assert s != d and labels[s] == labels[d]
        assert [s.sid for s in inst.sessions] == ["s1", "s2", "s3", "s4"]


def test_generation_fails_loudly_when_area_is_too_empty():
    with pytest.raises(GenerationError, match="cannot place"):
        generate_geometric(GeometricConfig(side=0.1, sessions=3, seed=1))
    bare = generate_geometric(GeometricConfig(side=0.1, sessions=0, seed=1))
    assert bare.sessions == []


def test_config_validation():
    for bad in (dict(side=-1.0, sessions=1), dict(side=6.0, sessions=-1),
                dict(side=6.0, sessions=1, intensity=0.0),
                dict(side=6.0, sessions=1, intensity=-2.0),
                dict(side=6.0, sessions=1, rate=0.0)):
        with pytest.raises(ValueError):
            GeometricConfig(**bad)
    # counts must be integers and real fields numbers; a bool is neither
    for name in ("sessions", "seed"):
        for bad in (2.5, float("inf"), "3", True):
            with pytest.raises(ValueError,
                               match=rf"{name} must be an integer, got "):
                GeometricConfig(**{"side": 6.0, "sessions": 1, name: bad})
    for name in ("side", "intensity", "rate", "cost"):
        for bad in ("1", False, None):
            with pytest.raises(ValueError,
                               match=rf"{name} must be a number, got "):
                GeometricConfig(**{"side": 6.0, "sessions": 1, name: bad})
    # a non-finite rate or cost and a negative seed are refused by name
    for name, bad in (("rate", math.inf), ("rate", math.nan),
                      ("cost", math.inf), ("cost", math.nan),
                      ("cost", -1.0), ("seed", -1)):
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            GeometricConfig(**{"side": 6.0, "sessions": 0, name: bad})
    assert GeometricConfig(side=6, sessions=np.int64(2), seed=np.int32(4),
                           cost=0).sessions == 2
    # the radius is the paper's unit radius, not a setting
    with pytest.raises(TypeError, match="radius"):
        GeometricConfig(side=6.0, sessions=1, radius=2.0)


@pytest.mark.parametrize("field", ["side", "intensity"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite_sizes(field, value):
    sizes = {"side": 6.0, "intensity": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        GeometricConfig(sessions=1, **sizes)


@pytest.mark.parametrize("side, intensity", [(1e9, 1.0), (1e200, 1.0),
                                             (10.0, 1e6)])
def test_config_caps_the_expected_node_count(side, intensity):
    # raised by the config itself, before the generator allocates anything
    with pytest.raises(ValueError) as exc:
        GeometricConfig(side=side, sessions=1, intensity=intensity)
    assert str(exc.value).startswith(
        f"side {side} and intensity {intensity} give ")
    assert str(exc.value).endswith(
        f"expected nodes, above the limit of {MAX_EXPECTED_NODES}")
    side = math.sqrt(MAX_EXPECTED_NODES)  # exactly at the limit is allowed
    assert GeometricConfig(side=side, sessions=1).side == side


@pytest.mark.parametrize("side, intensity", [
    (1.0, 1500.0), (1.0, 10_000.0), (10.0, 50.0), (30.0, 10.0)])
def test_config_caps_the_expected_edge_count(side, intensity):
    # each stays within the node limit; edges grow with intensity squared
    assert intensity * side * side <= MAX_EXPECTED_NODES
    with pytest.raises(ValueError) as exc:
        GeometricConfig(side=side, sessions=1, intensity=intensity)
    assert str(exc.value).startswith(
        f"side {side} and intensity {intensity} give ")
    assert str(exc.value).endswith(
        f"expected edges, above the limit of {MAX_EXPECTED_EDGES}")
    # expected**2 / 2 pairs, every one linked when the radius spans the side
    assert GeometricConfig(side=1.0, sessions=1, intensity=447.0)
    assert GeometricConfig(side=1e-200, sessions=1)  # side**2 underflows
    assert GeometricConfig(side=math.sqrt(MAX_EXPECTED_NODES), sessions=1)


# ------------------------------------------------------------ plain routing

def test_relay3_routes_both_sessions_through_the_middle(relay3):
    cost, paths = plain_routing_cost(relay3)
    assert cost == 4.0
    assert paths == [[0, 1, 2], [2, 1, 0]]


def test_destination_does_not_transmit():
    inst = Instance([Node(0, 1.0), Node(1, 1.0)], [(0, 1)],
                    [Session("s1", 0, 1, 2.0)])
    cost, paths = plain_routing_cost(inst)
    assert cost == 2.0  # source transmits at rate 2, destination only hears
    assert paths == [[0, 1]]


def test_routing_cost_is_linear_in_rate():
    def at_rate(r):
        inst = Instance([Node(i, 1.0) for i in range(3)], [(0, 1), (1, 2)],
                        [Session("s1", 0, 2, r)])
        return plain_routing_cost(inst)[0]
    assert at_rate(3.0) == 3.0 * at_rate(1.0)


def test_routing_prefers_smaller_predecessor_on_ties():
    dia = Instance([Node(i, 1.0) for i in range(4)],
                   [(0, 1), (0, 2), (1, 3), (2, 3)],
                   [Session("s1", 0, 3, 1.0)])
    assert plain_routing_cost(dia) == (2.0, [[0, 1, 3]])


def test_routing_avoids_expensive_relays():
    inst = Instance([Node(0, 1.0), Node(1, 9.0), Node(2, 1.0),
                     Node(3, 1.0)],
                    [(0, 1), (1, 3), (0, 2), (2, 3)],
                    [Session("s1", 0, 3, 1.0)])
    cost, paths = plain_routing_cost(inst)
    assert paths == [[0, 2, 3]] and cost == 2.0


# ----------------------------------------------------------------- builtins

def test_builtin_names(named):
    assert set(named) == {"relay3", "grid2", "grid2rate", "geo4"}


def test_relay3_shape(relay3):
    assert [nd.cost for nd in relay3.nodes] == [1.0, 1.0, 1.0]
    assert relay3.edges == [(0, 1), (1, 2)]
    assert [(s.source, s.dest, s.rate) for s in relay3.sessions] == \
        [(0, 2, 1.0), (2, 0, 1.0)]


def test_grid_shape(grid2, grid2rate):
    assert len(grid2.nodes) == 25 and len(grid2.edges) == 40
    assert grid2.nodes[7].pos == (2.0, 1.0)  # id = row*5 + column
    assert [(s.source, s.dest) for s in grid2.sessions] == [(1, 23), (24, 0)]
    assert [s.rate for s in grid2.sessions] == [1.0, 1.0]
    assert [s.rate for s in grid2rate.sessions] == [1.0, 4.0]
    assert [(s.source, s.dest) for s in grid2rate.sessions] == \
        [(1, 23), (24, 0)]


def test_geo4_shape(geo4):
    assert len(geo4.nodes) >= 27
    assert [(s.source, s.dest) for s in geo4.sessions] == \
        [(20, 13), (26, 7), (15, 23), (7, 22)]
    assert all(s.rate == 1.0 for s in geo4.sessions)
    labels = component_labels(len(geo4.nodes), geo4.edges)
    for s in geo4.sessions:
        assert labels[s.source] == labels[s.dest]
