"""Finite-scale orbit rewiring with certified statistics bounds."""

from .freegroup import (
    FiniteAction,
    GeneratorSet,
    ReducedWord,
    ball,
    evaluate,
    format_word,
    parse_word,
    reduce_word,
    refine_partition,
    translated_labels,
)
from .permutations import (
    CycleDecomposition,
    cycle_decomposition,
    cycle_min_labels,
    inverse_permutation,
    is_permutation,
    permutation_with_cycle_lengths,
)
from .pipeline import (
    CertificationError,
    ExperimentResult,
    GoodObservableError,
    PipelineConfig,
    PipelineReport,
    good_observable,
    oe_approximate,
    parse_config,
    run_experiment,
    target_couplings,
    verify_oe,
)
from .rearrange import (
    LineBijection,
    PreconditionError,
    RearrangeReport,
    build_tau,
    close_line,
    merge_components,
    rearrange_line,
    round_coupling,
)
from .rewire import (
    RewireReport,
    ergodic_profile,
    rewire,
    rewire_ergodic,
    verify_same_orbits,
)
from .spaces import (
    Coupling,
    Dist,
    Observable,
    coupling_margins_check,
    diagonal_coupling,
    empirical_distribution,
    empirical_pair_distribution,
    joint_pair_distribution,
    linf,
    mixture_coupling,
    product_coupling,
)
from .weak import (
    StatsMatrix,
    TransportCertificate,
    ball_transport_certificate,
    kechris_distance,
    stats_matrix,
    transport_partition,
    weak_distance,
)

__version__ = "0.1.0"
