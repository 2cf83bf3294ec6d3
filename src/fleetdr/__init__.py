"""Fleet demand-response scheduling: day-ahead shaping and real-time
spike response for electric-vehicle charging under a demand cap."""

from .errors import ConfigError, DataError, FleetdrError, InfeasibleError
from .fleet import (Dist, FleetSpec, HouseholdSpec, PevProfile,
                    baseline_household, sample_fleet, uncoordinated_profile,
                    write_fleet_csv)
from .market import (CostBreakdown, MarketDay, MarketSpec, PriceSeries,
                     SpikeSpec, load_market_day, procurement_cost,
                     synth_prices, water_fill)
from .coordinator import (ConvergenceSpec, DayResult, ScheduleState,
                          ShapedPlans, cap_value, decide_altering,
                          real_time_walk, shape_day_ahead, simulate_day)
from .subproblem import (SubproblemSolution, UserSubproblem,
                         build_subproblem, solve)
from .report import CaseComparison, CaseConfig, CaseResult, emit, run_cases

__version__ = "0.1.0"
