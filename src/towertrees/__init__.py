"""Exact computations in graded groups of decorated unitrivalent trees
and in split Whitney tower models.

The library is organized along its objects:

* ``trees``    decorated trees, bracket grammar, canonical forms
* ``sums``     integer combinations of canonical trees
* ``groups``   the order-n tree groups: relators, Smith normal form,
               the exact zero test, spanning by simple trees
* ``towers``   split tower models, the move calculus, certified order
               raising
* ``lie``      independent free-Lie-algebra oracle
* ``intlinalg`` exact integer matrix utilities
"""

from .trees import (
    Bounds,
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
    hol_normalize,
    ihx_at,
    inner_product,
    interior_edge_paths,
    is_simple,
    labels_of,
    order_of,
    parse_signed,
    parse_tree,
    rooted_product,
    to_text,
)
from .sums import TreeSum, nonrepeating_project
from .intlinalg import IntegerLattice, integer_rank, smith_normal_form
from .groups import (
    AbelianGroupStructure,
    RelationMatrix,
    group_structure,
    ihx_relators,
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
    MoveCertificate,
    MoveError,
    ObstructionNonzero,
    PlannerError,
    RawDisk,
    RawPoint,
    RawTower,
    TowerError,
    TowerModel,
    TowerPoint,
    VerificationResult,
    bch_tower,
    bracket_text,
    cancel_simple_pair,
    certificate_from_json,
    certificate_to_json,
    certify_raise_order,
    extract_model,
    glue,
    ihx_insert,
    load_tower,
    make_model,
    model_from_json,
    model_to_json,
    parse_bracket,
    random_raw_tower,
    raw_from_json,
    raw_to_json,
    replay_certificate,
    tau,
    tree_of_bracket,
    verify_certificate,
)
from .lie import (
    LieElement,
    eta,
    eta_sum,
    hall_basis,
    lie_bracket,
    lie_dimension_oracle,
    lyndon_words,
    rational_rank_bound,
    rooted_tree_to_lie,
)

__version__ = "0.1.0"
