"""freebax: exact computation in free Baxter algebras of arbitrary weight.

The package provides the shuffle-model free Baxter algebra over a choice
of exact coefficient ring, its filtration completion, the sequence model
with its canonical morphism, Baxter ideals with quotient maps, a verifier
for the structural witnesses (zero divisors, nilpotents, reducedness),
and an expression language with a CLI.
"""

from .ideals import (
    IdealSpec,
    baxter_ideal_member,
    reduce_mod,
    reduce_vars,
    scalar_ideal,
    variable_ideal,
)
from .lang import EvalError, ParseError, evaluate, evaluate_source, parse
from .poly import UNIT_MONOMIAL, Monomial
from .rings import (
    INT,
    RAT,
    Coeff,
    Ring,
    RingMismatchError,
    Zmod,
    characteristic,
    inverse,
    is_nilpotent,
    is_prime,
    is_unit,
    is_zero_divisor,
    lambda_valuation,
    parse_coeff,
)
from .sequences import (
    BarElement,
    SequenceElement,
    bar,
    bar_one,
    bar_scalar,
    bar_zero,
    p_prime,
    phi,
    phi_constants,
    phi_series,
    seq_one,
    seq_zero,
    t_sequence,
)
from .series import (
    DEFAULT_PRECISION,
    Series,
    complete_P,
    complete_product,
    embed,
    geometric_unit_series,
    make_series,
    truncate,
    zero_series,
)
from .shuffle import (
    Context,
    ContextMismatchError,
    Element,
    Word,
    baxter_P,
    closed_form_unit_product,
    degree_components,
    element,
    enumerate_mixable_shuffles,
    lambda_adic_valuation,
    one,
    p_x_power,
    scalar,
    shuffle_product,
    shuffle_product_enumerated,
    tensor_word,
    unit_word,
    variable,
    zero,
)
from .verify import (
    DEFAULT_SEED,
    SUITES,
    PreconditionError,
    WitnessReport,
    charp_zero_divisor_witness,
    complete_zero_divisor_witness,
    integer_lambda2_witness,
    lemma_power_suite,
    nilradical_member_weight0,
    random_element,
    reducedness_conditions,
    run_suites,
    weight0_nilpotent_witness,
)

__version__ = "0.1.0"
