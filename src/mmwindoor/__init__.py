"""Indoor millimeter-wave channel analytics at 28 and 73.5 GHz.

Close-in (1 m) free-space reference path loss models with measured parameter
catalogs, power-delay-profile delay statistics, omnidirectional power
synthesis from directional sweeps, MMSE parameter estimation, and a seeded
campaign simulator for estimator round-trips.
"""

from .core import (
    BAND_28GHZ,
    BAND_73GHZ,
    CI_MODEL_CATALOG,
    DELAY_SPREAD_CATALOG,
    MEASURED_DISTANCE_RANGE_M,
    SOUNDER_28GHZ,
    SOUNDER_73GHZ,
    SOUNDER_CATALOG,
    SPEED_OF_LIGHT_M_S,
    CampaignRecord,
    CiModelParams,
    DelayStats,
    Directionality,
    DirectionalSweep,
    DistanceRangeWarning,
    DuplicateAngleWarning,
    EmptyInputError,
    Environment,
    FrequencyBand,
    NoMultipathError,
    PathLossSample,
    Pdp,
    Polarization,
    SounderSpec,
    SpreadTarget,
    StratumMismatchError,
    SweepEntry,
    SweepSpacingWarning,
    UnknownCombinationError,
    band_from_ghz,
    catalog_lookup,
    ci_model_rows,
    delay_spread_lookup,
    full_catalog_dump,
    sounder_lookup,
    to_db,
)
from .estimation import (
    FitResult,
    SpreadSummary,
    empirical_cdf,
    fit_ci_model,
    percentile,
    summarize_spreads,
)
from .omni import (
    directional_path_loss_db,
    omni_path_loss_db,
    omni_received_power_mw,
    unique_angle_powers_mw,
)
from .pathloss import (
    draw_shadowing,
    free_space_pl_db,
    mean_path_loss_db,
    sample_path_loss_db,
    xpd_per_decade_db,
)
from .pdp import (
    delay_stats,
    excess_delay_rebase,
    integrate_power_mw,
    threshold_pdp,
)
from .simulate import (
    CampaignConfig,
    LinkStatus,
    PdpSynthesisConfig,
    check_link_budget,
    generate_pathloss_campaign,
    generate_pdp_campaign,
    generate_synthetic_pdp,
    max_range_m,
)

__version__ = "0.1.0"
