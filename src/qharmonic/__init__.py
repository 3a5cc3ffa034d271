"""qharmonic: exact finite multiple harmonic q-sums and their identities.

Computes the nested q-harmonic sums attached to multi-indices as exact
rational functions of an indeterminate q and machine-verifies the duality and
difference identities relating them, both symbolically in Q(q) and through an
independent sampled-evaluation route.
"""

from .exactq import (
    PoleError,
    QPoly,
    QRat,
    q_binomial,
    q_factorial,
    q_integer,
    q_power,
)
from .harmonic import (
    QSeq,
    a_seq,
    a_value,
    b_value,
    c_value,
    delta_qk_closed,
    delta_qk_table,
)
from .multiindex import (
    MultiIndex,
    enumerate_by_weight,
    parse_multiindex,
    subset_decode,
)
from .qseries import (
    BiSeries,
    F_a_series,
    G_series,
    IDENTITY,
    LAMBDA_X,
    LAMBDA_X_INV,
    LAMBDA_Y,
    LAMBDA_Y_INV,
    MUL_X,
    MUL_Y,
    PARTIAL_X,
    PARTIAL_Y,
    SeriesOp,
    TruncationError,
    apply_op,
    diag_q_integer,
    f_a_series,
    lambda_scale,
    lowering_op_i,
    lowering_op_i_shifted,
    lowering_op_ii,
    lowering_op_ii_shifted,
    mul_by_var,
    pde_operator,
    pde_residual,
    q_commutator,
    q_exp,
    q_partial,
    qshift_product,
    series_mul,
)
from .verify import (
    CampaignConfig,
    Record,
    VerificationReport,
    eval_crosscheck,
    parse_config_text,
    run_campaign,
    verify_duality,
    verify_inductive_relations,
    verify_main_identity,
)

__version__ = "0.1.0"
