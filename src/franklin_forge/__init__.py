"""franklin-forge: type-p Franklin and most-perfect magic squares.

Construct most-perfect squares of prime-power order, transform them into
pandiagonal type-p Franklin squares via the block involution, enumerate every
Franklin pattern geometrically, and verify all defining properties with
witnessed certificates.
"""

from .construct import (
    GeneratorConfig,
    GeneratorExhaustedError,
    candidate_to_square,
    generate_most_perfect,
)
from .core import (
    BlockAddress,
    Grid,
    NaturalSquare,
    TypeParams,
    block_at,
    get_toric,
    rotate_cw,
)
from .fixtures import builtin_fixtures
from .involution import digit_swap, theta, theta_col, theta_row
from .patterns import (
    DIRECTIONS,
    BandBlock,
    CellSet,
    PatternSpec,
    block_intersection,
    enumerate_patterns,
    franklin_cells,
    select_blocks,
)
from .properties import (
    CLASSIFICATIONS,
    PropertyReport,
    PropertyVerdict,
    Witness,
    band_sums,
    check_complementary,
    check_franklin_patterns,
    check_natural,
    check_one_over_p,
    check_pandiagonal,
    check_pxp,
    check_semi_magic,
    cross_identity_holds,
    lemma_diagsum_oracle,
    lemma_moremoresums2_oracle,
    transversal_sum,
    verify_all,
    window_sums_all_equal,
)

__version__ = "0.1.0"

__all__ = [
    "BandBlock",
    "BlockAddress",
    "CLASSIFICATIONS",
    "CellSet",
    "DIRECTIONS",
    "GeneratorConfig",
    "GeneratorExhaustedError",
    "Grid",
    "NaturalSquare",
    "PatternSpec",
    "PropertyReport",
    "PropertyVerdict",
    "TypeParams",
    "Witness",
    "band_sums",
    "block_at",
    "block_intersection",
    "builtin_fixtures",
    "candidate_to_square",
    "check_complementary",
    "check_franklin_patterns",
    "check_natural",
    "check_one_over_p",
    "check_pandiagonal",
    "check_pxp",
    "check_semi_magic",
    "cross_identity_holds",
    "digit_swap",
    "enumerate_patterns",
    "franklin_cells",
    "generate_most_perfect",
    "get_toric",
    "lemma_diagsum_oracle",
    "lemma_moremoresums2_oracle",
    "rotate_cw",
    "select_blocks",
    "theta",
    "theta_col",
    "theta_row",
    "transversal_sum",
    "verify_all",
    "window_sums_all_equal",
]
