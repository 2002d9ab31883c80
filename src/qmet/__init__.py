"""qmet: exact order-theoretic computations on quasi-metric spaces.

The package turns the formal-ball view of quasi-metric spaces into
executable, exactly-checkable mathematics on finite carriers: ball orders
and their laws, three-valued way-below with replayable refutations,
shift-invariance probes, center points, Lipschitz envelopes by
inf-convolution, ideal and rounded-ideal completions, the strong Choquet
game, and two-layer quasi-ideal models.
"""

from .errors import (
    BadInput,
    IllegalMove,
    IndeterminateForm,
    InvalidSup,
    NoOracle,
    NotAPartialOrder,
    NotAnAbstractBasis,
    QmetError,
    UnknownElement,
    UnknownPoint,
)
from .extreal import INF, ZERO, ExtReal, compare, ext, monus
from .spaces import (
    FiniteTableSpace,
    PosetSpace,
    RealGridSpace,
    SkewedIntervalSpace,
    SorgenfreyGridSpace,
    Space,
    TailedSorgenfreySpace,
    check_axioms,
    space_from_json,
    symmetrize,
)
from .balls import (
    FormalBall,
    GeometricBallFamily,
    Verdict,
    ball,
    center_point_check,
    dplus,
    leq_dplus,
    parse_ball,
    prec,
    smyth_probe,
    standardness_probe,
    v_relation,
    way_below,
)
from .posets import (
    AbstractBasis,
    FinitePoset,
    choquet_play,
    export_dot,
    ideal_completion,
    quasi_ideal_check,
    rounded_ideal_completion,
    verify_all_plays,
)
from .lipschitz import (
    LscFunction,
    OpenSet,
    dist_to_complement,
    envelope,
    hat_membership,
    lipschitz_check,
    lipschitz_threshold,
    thinning,
)
from .qideal import ModelPoset, build_model, limit_layer, quasi_ideal_model_check

__version__ = "0.1.0"
