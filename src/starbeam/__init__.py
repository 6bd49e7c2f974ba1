"""Joint design of a base-station precoder and the transmission/reflection
coefficients of a simultaneously transmitting and reflecting surface,
maximizing the weighted sum-rate with gradient-fed sub-networks.

Typical use::

    import numpy as np
    from starbeam import (desk_scenario, generate_channels, desk_train,
                          run_gml)

    sys_cfg, ch_cfg = desk_scenario()
    ch = generate_channels(sys_cfg, ch_cfg, np.random.default_rng(0))
    solution = run_gml(sys_cfg, ch, desk_train(mode="coupled"))
    print(solution.wsr_opt)
"""

from .baselines import conventional_ris_baseline, pga_oracle, random_phase_baseline
from .channels import (
    ChannelConfig,
    channels_from_text,
    channels_to_text,
    dbm_to_watts,
    default_scenario,
    desk_scenario,
    generate_channels,
    load_channels,
    path_loss_linear,
    save_channels,
)
from .constraints import (
    coupling_residual,
    normalize_amplitudes,
    normalize_power,
    project_coupled_phases,
    wrap_phase,
)
from .errors import ConfigurationError, DegenerateInputError
from .experiments import (
    ExperimentReport,
    ExperimentSpec,
    GradCheckReport,
    TimingResult,
    desk_train,
    grad_check_command,
    paper_train,
    run_experiment,
    run_scheme,
    sign_test_p_value,
    timing_probe,
)
from .gradients import (
    GradientBundle,
    finite_diff_gradient,
    wsr_finite_diff,
    wsr_gradients,
)
from .model import (
    BeamformingState,
    ChannelSet,
    CoupledAuxiliary,
    SystemConfig,
    all_sinrs,
    evaluate_wsr,
    sinr,
    sinr_augmented,
    star_coefficient_vectors,
    wsr,
)
from .networks import (
    AdamState,
    Mlp,
    adam_init,
    adam_step,
    init_mlp,
)
from .training import (
    MODE_COUPLED,
    MODE_INDEPENDENT,
    Solution,
    SubNetworks,
    TrainConfig,
    init_networks,
    rho_at,
    run_gml,
    run_meta_loop,
)

__version__ = "0.1.0"
