"""Minimum-cost multi-unicast routing with reverse-carpooling coding."""

from .model import (ExpandedGraph, FlowVector, InfeasibleSessionError,
                    Instance, InstanceError, Node, PriceVector, Session,
                    TransmissionSummary, TripleIndex, build_expanded_graph,
                    conservation_residual, enumerate_triples, total_cost,
                    transmission_summary)
from .edge_graph import EdgeGraph, build_edge_graph, primal_subproblem
from .solver import (Solution, SolverConfig, SolveTrace, init_prices, solve,
                     subgradient_step)
from .distributed import (MessageStats, SimSchedule, Simulator,
                          distributed_price_update,
                          distributed_shortest_paths, run_distributed_solve)
from .instances import (GenerationError, GeometricConfig, builtin_instances,
                        edges_within_radius, generate_geometric,
                        plain_routing_cost)

__version__ = "0.1.0"
