from .engine import (
    Evaluation,
    GeneticEngine,
    compute_fitness,
    ranking_order,
    select_ranked,
)
from .individual import MAX_INPUTS, Individual, Input
from .pools import KINDS, POOL_CAPACITY, CircularBuffer, MutationPools

__all__ = [
    "CircularBuffer",
    "Evaluation",
    "GeneticEngine",
    "Individual",
    "Input",
    "KINDS",
    "MAX_INPUTS",
    "MutationPools",
    "POOL_CAPACITY",
    "compute_fitness",
    "ranking_order",
    "select_ranked",
]
