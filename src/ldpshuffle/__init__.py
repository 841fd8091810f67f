"""Longitudinal local-DP collection with shuffle-model privacy amplification.

The package splits into: privacy-parameter arithmetic and domain checks
(`core`), the deterministic randomness stream (`randomizer`), the report
file format and file opening (`client`), bulk report emission
(`kernels`), server-side aggregation (`aggregator`), the closed-form
amplification accountant (`amplification`), the exact small-n
certification oracle (`divergence`), and the simulation harness plus CLI
(`harness`, `cli`). The scalar client, the sequential runners and the
exact enumeration oracles are test references under `tests/reference/`.
"""

from .aggregator import SumTree, accumulate_arrays, dyadic_cover, estimate_marginals
from .amplification import (AmplificationResult, amplify_group, amplify_shuffle,
                            per_step_epsilon, rdp_bound)
from .core import rr_probability, scale_factor
from .divergence import CertificationRecord, certify_amplification, worst_case_divergence
from .errors import InvalidParameterError, MalformedReportError, OutOfRegimeError, ParseError
from .harness import SimulationConfig, SimulationResult, generate_inputs, simulate
from .randomizer import RandomnessStream

__version__ = "0.1.0"
