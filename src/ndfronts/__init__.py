"""Incremental maintenance of non-domination levels (Pareto fronts) under
online insertion and deletion, with exact dominance-comparison counting."""

from ndfronts.analysis import (
    FrontProfile,
    gen_antichain,
    gen_chain,
    gen_equal_fronts,
    gen_two_front,
    gen_worst_two_front,
    max_comp_left_tree,
    max_comp_linear,
    max_comp_right_tree,
    probe_path_cost,
    worst_split,
)
from ndfronts.core import (
    ContractViolationError,
    Counter,
    DimensionMismatchError,
    DomRelation,
    DuplicateIdError,
    FrontSet,
    MissingSolutionError,
    Solution,
    check_dom,
    dom_nature,
    validate,
)
from ndfronts.dbst import (
    APPROACHES,
    Approach,
    TreeVariant,
    delete,
    insert_linear,
    insert_tree,
    locate_sequential,
    lookup_tree,
    navigate,
)
from ndfronts.linear import Position, dom_set, update_delete, update_insert
from ndfronts.oracle import full_sort, same_partition

__version__ = "0.1.0"

__all__ = [
    "APPROACHES",
    "Approach",
    "ContractViolationError",
    "Counter",
    "DimensionMismatchError",
    "DomRelation",
    "DuplicateIdError",
    "FrontProfile",
    "FrontSet",
    "MissingSolutionError",
    "Position",
    "Solution",
    "TreeVariant",
    "check_dom",
    "delete",
    "dom_nature",
    "dom_set",
    "full_sort",
    "gen_antichain",
    "gen_chain",
    "gen_equal_fronts",
    "gen_two_front",
    "gen_worst_two_front",
    "insert_linear",
    "insert_tree",
    "locate_sequential",
    "lookup_tree",
    "max_comp_left_tree",
    "max_comp_linear",
    "max_comp_right_tree",
    "navigate",
    "probe_path_cost",
    "same_partition",
    "update_delete",
    "update_insert",
    "validate",
    "worst_split",
]
