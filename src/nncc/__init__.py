"""Energy analysis of nearest-neighbor cooperative uplinks.

Closed-form outage-constrained transmit powers for a two-handset cooperation
scheme and its non-cooperative baseline, the distribution of the cooperative
round total induced by Poisson-distributed handset locations, and a Monte
Carlo protocol simulator that cross-validates every closed form.
"""

from .params import (
    SPEED_OF_LIGHT,
    ParameterError,
    SystemParams,
    db_to_linear,
    load_config,
    validate,
    wavelength,
)
from .geometry import (
    Geometry,
    partner_distance_to_bs,
    sample_nn_geometries,
)
from .powermodel import (
    Link,
    OutageTargets,
    PowerBreakdown,
    PowerCoefficients,
    composite_outage_nncc,
    conventional_coefficients,
    per_link_outage_conventional,
    per_link_outage_nncc,
    power_breakdown,
    power_coefficients,
)
from .distribution import (
    IntegrationError,
    PowerQuadratic,
    cdf_scale_free,
    energy_efficiency,
    expected_power,
    expected_power_quadrature,
    pdf_scale_free,
)
from .montecarlo import (
    PowerSamples,
    ProtocolRates,
    RandomStream,
    draw_power_samples,
    ks_distance,
    protocol_rates,
    protocol_round,
    sample_power_distribution,
)
from .experiments import ExperimentSpec, sweep, validate_report

__version__ = "0.1.0"
