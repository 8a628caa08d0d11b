"""Set-indexed random measures with independently scattered values.

Build a field from its characteristic triple (drift measure, Gaussian
measure, jump intensity), sample paths or replicated marginals, integrate
test functions against realizations, view realizations as multiparameter
sheets, and verify the sampled laws statistically.
"""

__version__ = "0.1.0"

from .analysis import (MembershipResult, StationarityResult, TemperedResult,
                       UndefinedDensityError, besov_classify, lm_membership,
                       phi_m, stationarity_check, tempered_test)
from .characteristics import (Atom, Characteristics, ControlMeasureValue,
                              Density, DiffusionComponent,
                              DivergentControlMeasureError, DriftComponent,
                              JumpComponent, LevySymbolValue)
from .config import (ConfigError, ExperimentConfig, characteristics_from_config,
                     function_from_config, kernel_from_config, load_config, parse_config)
from .funcs import (GaussianFunction, IndicatorFunction, PolynomialDecay, ProductBump,
                    SimpleFunction, TestFunction)
from .gaussian import WhiteNoiseField
from .integrate import (CylindricalCharacteristics, IntegralValue,
                        NotIntegrableError, cylindrical_characteristics,
                        empirical_cf, integrate, integrate_simple)
from .kernels import (CompoundPoissonKernel, DiscreteJumps, JumpKernel,
                      JumpSizeDistribution, NonConvergenceError, NormalJumps,
                      StableKernel, TabulatedKernel, TemperedStableKernel,
                      UniformJumps, stable_symbol_constant)
from .presets import PRESET_NAMES, preset, spectrally_positive_scale
from .regions import Box, Region, interval
from .sampler import (FieldRealization, InfiniteActivityError, LevyItoSpec,
                      OutOfWindowError, PathBatch, SamplerConfig, levy_ito_spec,
                      sample_field, sample_fields, sample_marginals,
                      sample_stable_marginal_oracle)
from .sheets import (BoxIncrement, DualityResult, SheetRealization, box_increment,
                     duality_check)
from .verify import (OnbCounterexampleSpec, VerificationReport, cf_match_test,
                     embedding_inequality_check,
                     independence_test, onb_counterexample,
                     stationary_increment_test, summary_table)
