"""Exact cooperative-game attribution of a model's test score to its
training examples.

Two model families are covered: decision rules that look up a frequency
bin and predict by majority (or any bin-count table), and unweighted
k-nearest-neighbor voting.  For both, per-example Shapley values and
coalition-aware Owen values come out of closed-form sums and small dynamic
programs instead of enumerating orderings, so exact answers scale to
realistic dataset sizes.  A brute-force oracle over explicit permutations
is included for cross-checking on small inputs.
"""

from .combinatorics import (
    EXACT,
    FLOAT,
    NUMERIC_MODES,
    binom,
    log_binom,
    precede_probability,
)
from .errors import (
    ConfigError,
    DivvyError,
    GuardError,
    InputError,
    MissingValueError,
)
from .freq_owen import (
    owen_frequency_report,
    owen_frequency_single,
    owen_precede_distribution,
)
from .freq_shapley import (
    critical_set,
    shapley_frequency_report,
    shapley_frequency_single,
)
from .knn_owen import (
    knn_owen_change,
    knn_owen_creation,
    knn_owen_report,
)
from .knn_shapley import (
    knn_change_values_all,
    knn_creation_value,
    knn_shapley_report,
    knn_shapley_values,
)
from .model import (
    BinTally,
    CoalitionStructure,
    Dataset,
    Example,
    KnnConfig,
    MajorityValueFunction,
    OutcomeValues,
    Query,
    RankedNeighborhood,
    TableValueFunction,
    delta_value,
    knn_subset_value,
    rank_by_distance,
    tally_bin,
)
from .oracle import (
    CharacteristicGame,
    McEstimate,
    exact_owen,
    exact_owen_all,
    exact_shapley,
    exact_shapley_all,
    frequency_game,
    knn_game,
    mc_shapley,
    mc_shapley_all,
    sample_permutations,
    table_game,
)
from .report import (
    ValueReport,
    assemble_report,
    export_csv,
    read_report,
    report_to_json,
    write_report,
)

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "NUMERIC_MODES",
    "BinTally",
    "CharacteristicGame",
    "CoalitionStructure",
    "ConfigError",
    "Dataset",
    "DivvyError",
    "Example",
    "GuardError",
    "InputError",
    "KnnConfig",
    "MajorityValueFunction",
    "McEstimate",
    "MissingValueError",
    "OutcomeValues",
    "Query",
    "RankedNeighborhood",
    "TableValueFunction",
    "ValueReport",
    "assemble_report",
    "binom",
    "critical_set",
    "delta_value",
    "exact_owen",
    "exact_owen_all",
    "exact_shapley",
    "exact_shapley_all",
    "export_csv",
    "frequency_game",
    "knn_change_values_all",
    "knn_creation_value",
    "knn_game",
    "knn_owen_change",
    "knn_owen_creation",
    "knn_owen_report",
    "knn_shapley_report",
    "knn_shapley_values",
    "knn_subset_value",
    "log_binom",
    "mc_shapley",
    "mc_shapley_all",
    "owen_frequency_report",
    "owen_frequency_single",
    "owen_precede_distribution",
    "precede_probability",
    "rank_by_distance",
    "read_report",
    "report_to_json",
    "sample_permutations",
    "shapley_frequency_report",
    "shapley_frequency_single",
    "table_game",
    "tally_bin",
    "write_report",
]
