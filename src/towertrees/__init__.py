"""Exact computations in graded groups of decorated unitrivalent trees
and in split Whitney tower models.

The library is organized along its objects:

* ``trees``    decorated trees, bracket grammar, canonical forms
* ``sums``     integer combinations of canonical trees
* ``groups``   the order-n tree groups: relators, Smith normal form,
               the exact zero test, spanning by simple trees
* ``towers``   split tower models, the move calculus, certified order
               raising
* ``lie``      the map eta into the free Lie algebra and the rank
               bound it gives
* ``intlinalg`` exact integer matrix utilities
"""

from .trees import (
    BoundsError,
    CanonicalTree,
    DecoratedTree,
    Leaf,
    Node,
    ParseError,
    RootedTree,
    SignedTree,
    all_trees,
    canonicalize,
    canonicalize_rooted,
    ihx_at,
    interior_edge_paths,
    is_simple,
    labels_of,
    order_of,
    parse_signed,
    parse_tree,
    to_text,
)
from .sums import TreeSum
from .intlinalg import IntegerLattice, integer_rank, smith_normal_form
from .groups import (
    AbelianGroupStructure,
    RelationMatrix,
    group_structure,
    ihx_triples,
    is_zero,
    normal_form,
    presentation,
    reduce_to_simple,
    relator_sum,
)
from .towers import (
    CancelPair,
    IhxInsert,
    MoveError,
    ObstructionNonzero,
    PlannerError,
    RawDisk,
    RawPoint,
    RawTower,
    TowerError,
    TowerModel,
    VerificationResult,
    bch_tower,
    certificate_from_json,
    certificate_to_json,
    certify_raise_order,
    extract_model,
    glue,
    ihx_insert,
    load_tower,
    make_model,
    model_to_json,
    parse_bracket,
    raw_from_json,
    raw_to_json,
    replay_certificate,
    tau,
    verify_certificate,
)
from .lie import (
    eta,
    eta_sum,
    lie_bracket,
    rational_rank_bound,
)

__version__ = "0.1.0"
