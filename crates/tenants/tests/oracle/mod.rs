//! The direct cost rate, written out from the public workload and cost
//! models: what a tenant pays per hour running under `budget` at load
//! `intensity`. The exactness tests hold the agent's split and
//! single-evaluation paths to it bit for bit.

use spotdc_tenants::WorkloadModel;
use spotdc_units::Watts;

/// The cost rate ($/hour) of `model` under `budget` at `intensity`:
/// the workload's tail latency or throughput, costed by its
/// `SprintingCost` or `OpportunisticCost`. An idle batch tenant costs
/// nothing.
#[must_use]
pub fn cost_rate(model: &WorkloadModel, budget: Watts, intensity: f64) -> f64 {
    match model {
        WorkloadModel::Sprinting { workload, cost } => {
            let lambda = model.arrival_rate(intensity);
            cost.cost_rate(workload.latency(lambda, budget), lambda)
        }
        WorkloadModel::Opportunistic { workload, cost } => {
            if intensity <= 0.0 {
                return 0.0;
            }
            let throughput = workload.throughput(budget);
            intensity.clamp(0.0, 1.0) * cost.cost_rate_at_throughput(throughput)
        }
    }
}
