"""Numerical toolkit for 2-DOF integrable systems near a focus-focus
equilibrium: rotation numbers, period lattices, twist, monodromy, and
frequency-map non-degeneracy."""

from .errors import (BracketError, BranchError, CrossEngineMismatch,
                     FitError, FlowError, FocusFocusError, NoTorusError,
                     QuadratureError, ScanError, SystemRejected,
                     TurningPointDegeneracy, WindowError)
from .numerics import (EventSpec, QuadratureSpec, Trajectory, align_angle,
                       find_root_bracketed, integrate_flow, quad_singular)
from .systems import (ChampagneBottle, EMValue, FocusFocusData,
                      MomentumValue, SphericalPendulum, SystemDefinition,
                      eval_constants, from_momentum_chart, make_system,
                      to_momentum_chart)
from .lattice import (AsymptoticModel, PeriodLatticeSample, SweepSample,
                      annulus_sweep, cross_check, derivatives,
                      fit_asymptotic_model, period_lattice,
                      reduced_period_rotation, transport)
from .rotation import (AnnulusRegion, LevelCurve, RotationGrid, SpiralFit,
                       extract_level_curve, fit_log_spiral, monodromy_index,
                       monodromy_loop, rotation_grid, rotation_number)
from .twist import (TwistlessCurve, TwistlessSample, expected_twistless_slope,
                    tilde_s, twist, twist_scan, twistless_curve,
                    twistless_point, twists)
from .kolmogorov import (FrequencySample, asymptote_sweep, frequency_jacobian_det,
                         frequency_samples, tau_jacobian)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
