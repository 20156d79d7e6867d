//! Deterministic seeded workload generation.
//!
//! The serving benchmarks sweep arrival *patterns* × policies × fleet sizes;
//! every pattern here is a pure function of its seed (SplitMix64, the
//! workspace's offline PRNG), so two runs of the same spec produce identical
//! request lists and every serving experiment is reproducible.

use flashmem_gpu_sim::rng::SplitMix64;
use flashmem_gpu_sim::FaultPlan;
use flashmem_graph::ModelSpec;

use crate::request::ServeRequest;

/// How request arrival times are spaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// One request every `interval_ms` — a steady camera-pipeline cadence.
    Steady {
        /// Fixed gap between consecutive arrivals.
        interval_ms: f64,
    },
    /// Exponentially distributed gaps with the given mean — open-loop user
    /// traffic.
    Poisson {
        /// Mean gap between consecutive arrivals.
        mean_interval_ms: f64,
    },
    /// Bursts of `burst_size` simultaneous arrivals separated by `gap_ms` —
    /// the notification-fan-out worst case.
    Bursty {
        /// Requests per burst.
        burst_size: usize,
        /// Gap between bursts.
        gap_ms: f64,
    },
    /// Steady background traffic with one flash crowd: the `crowd_size`
    /// requests starting at index `crowd_index` all land at the same
    /// instant, then the steady cadence resumes from that instant — the
    /// overload-survival worst case (a push notification, a viral link).
    FlashCrowd {
        /// Gap between consecutive background arrivals.
        base_interval_ms: f64,
        /// Index of the first request in the crowd.
        crowd_index: usize,
        /// Number of simultaneous crowd arrivals (at least 1).
        crowd_size: usize,
    },
    /// Sinusoidal arrival-rate sweep: consecutive gaps ramp between
    /// `off_peak_interval_ms` (trough traffic) and `peak_interval_ms` (peak
    /// traffic) with period `period_ms` — a diurnal load curve whose peak
    /// can be provisioned past fleet capacity while the trough idles it.
    Diurnal {
        /// Gap between arrivals at the trough of the cycle.
        off_peak_interval_ms: f64,
        /// Gap between arrivals at the peak of the cycle.
        peak_interval_ms: f64,
        /// Length of one full trough → peak → trough cycle.
        period_ms: f64,
    },
}

impl ArrivalPattern {
    /// Short name used in tables and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Steady { .. } => "steady",
            ArrivalPattern::Poisson { .. } => "poisson",
            ArrivalPattern::Bursty { .. } => "bursty",
            ArrivalPattern::FlashCrowd { .. } => "flash-crowd",
            ArrivalPattern::Diurnal { .. } => "diurnal",
        }
    }

    /// Arrival time of request `index` given the previous arrival.
    fn next_arrival(&self, previous_ms: f64, index: usize, rng: &mut SplitMix64) -> f64 {
        match self {
            ArrivalPattern::Steady { interval_ms } => {
                if index == 0 {
                    0.0
                } else {
                    previous_ms + interval_ms.max(0.0)
                }
            }
            ArrivalPattern::Poisson { mean_interval_ms } => {
                if index == 0 {
                    0.0
                } else {
                    // Inverse-CDF exponential gap; clamp the uniform away from
                    // 1.0 so ln() stays finite.
                    let u = rng.gen_f64().min(1.0 - 1e-12);
                    previous_ms + mean_interval_ms.max(0.0) * (-(1.0 - u).ln())
                }
            }
            ArrivalPattern::Bursty { burst_size, gap_ms } => {
                let burst = (*burst_size).max(1);
                (index / burst) as f64 * gap_ms.max(0.0)
            }
            ArrivalPattern::FlashCrowd {
                base_interval_ms,
                crowd_index,
                crowd_size,
            } => {
                if index == 0 {
                    0.0
                } else if index > *crowd_index && index < crowd_index + (*crowd_size).max(1) {
                    // Later crowd members pile onto the first one's instant.
                    previous_ms
                } else {
                    previous_ms + base_interval_ms.max(0.0)
                }
            }
            ArrivalPattern::Diurnal {
                off_peak_interval_ms,
                peak_interval_ms,
                period_ms,
            } => {
                if index == 0 {
                    0.0
                } else {
                    let period = period_ms.max(1e-9);
                    let phase = (previous_ms / period) * std::f64::consts::TAU;
                    // 0 at the trough of the cycle, 1 at its peak.
                    let ramp = 0.5 * (1.0 - phase.cos());
                    let off_peak = off_peak_interval_ms.max(0.0);
                    let gap = off_peak + (peak_interval_ms.max(0.0) - off_peak) * ramp;
                    previous_ms + gap.max(0.0)
                }
            }
        }
    }
}

/// A reproducible serving workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Arrival-time pattern.
    pub pattern: ArrivalPattern,
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of distinct tenants (`tenant-0` … `tenant-{n-1}`).
    pub tenants: usize,
    /// Number of priority levels (priorities are drawn from `0..levels`).
    pub priority_levels: u8,
    /// PRNG seed — same seed, same workload.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Generate the request list, drawing models round-robin-free (uniformly
    /// seeded) from `models`.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn generate(&self, models: &[ModelSpec]) -> Vec<ServeRequest> {
        assert!(!models.is_empty(), "workload needs at least one model");
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let tenants = self.tenants.max(1);
        let levels = self.priority_levels.max(1);
        let mut arrival = 0.0;
        let mut requests = Vec::with_capacity(self.requests);
        for index in 0..self.requests {
            arrival = self.pattern.next_arrival(arrival, index, &mut rng);
            let model =
                models[rng.gen_range_inclusive(0, models.len() as u64 - 1) as usize].clone();
            let tenant = format!("tenant-{}", rng.gen_range_inclusive(0, tenants as u64 - 1));
            let priority = rng.gen_range_inclusive(0, u64::from(levels) - 1) as u8;
            requests.push(ServeRequest {
                model,
                tenant,
                priority,
                arrival_ms: arrival,
                deadline_ms: None,
                decode: None,
            });
        }
        requests
    }
}

/// A reproducible *generative* workload: every request carries prompt and
/// output token counts drawn uniformly from the configured ranges, so it is
/// served through the continuous-batching decode path
/// ([`DecodeEngine`](crate::DecodeEngine)) rather than as a one-shot pass.
///
/// Kept separate from [`WorkloadSpec`] because decode workloads have their
/// own knobs (token ranges) and their own model constraint (every model must
/// carry a [`DecodeSpec`](flashmem_graph::models::DecodeSpec)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeWorkloadSpec {
    /// Arrival-time pattern.
    pub pattern: ArrivalPattern,
    /// Number of requests to generate.
    pub requests: usize,
    /// Number of distinct tenants (`tenant-0` … `tenant-{n-1}`).
    pub tenants: usize,
    /// Inclusive range prompt token counts are drawn from (clamped ≥ 1).
    pub prompt_tokens: (u32, u32),
    /// Inclusive range output token counts are drawn from (clamped ≥ 1).
    pub output_tokens: (u32, u32),
    /// PRNG seed — same seed, same workload.
    pub seed: u64,
}

impl DecodeWorkloadSpec {
    /// Generate the request list. Models are drawn uniformly from `models`;
    /// each request carries decode token counts drawn from the configured
    /// ranges.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or any model lacks a decode spec — a
    /// decode workload over a non-autoregressive model is a programming
    /// error, not a runtime condition.
    pub fn generate(&self, models: &[ModelSpec]) -> Vec<ServeRequest> {
        assert!(
            !models.is_empty(),
            "decode workload needs at least one model"
        );
        for model in models {
            assert!(
                model.decode().is_some(),
                "model {} has no decode spec; decode workloads need autoregressive models",
                model.abbr
            );
        }
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let tenants = self.tenants.max(1);
        let (prompt_lo, prompt_hi) = range_clamped(self.prompt_tokens);
        let (output_lo, output_hi) = range_clamped(self.output_tokens);
        let mut arrival = 0.0;
        let mut requests = Vec::with_capacity(self.requests);
        for index in 0..self.requests {
            arrival = self.pattern.next_arrival(arrival, index, &mut rng);
            let model =
                models[rng.gen_range_inclusive(0, models.len() as u64 - 1) as usize].clone();
            let tenant = format!("tenant-{}", rng.gen_range_inclusive(0, tenants as u64 - 1));
            let prompt = rng.gen_range_inclusive(u64::from(prompt_lo), u64::from(prompt_hi)) as u32;
            let output = rng.gen_range_inclusive(u64::from(output_lo), u64::from(output_hi)) as u32;
            requests.push(
                ServeRequest::new(model, tenant)
                    .with_arrival_ms(arrival)
                    .with_decode_tokens(prompt, output),
            );
        }
        requests
    }
}

/// Clamp an inclusive `(lo, hi)` token range to at least 1 and re-order it
/// if inverted, so every spec produces a valid draw range.
fn range_clamped((lo, hi): (u32, u32)) -> (u32, u32) {
    let lo = lo.max(1);
    let hi = hi.max(lo);
    (lo, hi)
}

/// The adversarial overload scenarios behind the overload-survival tests and
/// the `overload` bench: deterministic request lists engineered to push a
/// fleet past saturation in four distinct ways. Every scenario scales its
/// request count with the fleet so the pressure per device stays adversarial
/// at any sweep size, and every request carries a deadline — most a
/// serveable budget, and every eighth one so tight that admission control
/// can prove it unmeetable before queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadScenario {
    /// Steady background traffic, then `2 × fleet` requests land at one
    /// instant. Bounded queues shed the tail of the crowd instead of
    /// admitting requests that would wait out their whole deadline.
    FlashCrowd,
    /// Sinusoidal arrival rate: the trough is easily absorbed, the peak is
    /// provisioned past fleet capacity.
    DiurnalRamp,
    /// One hot tenant submits three of every four requests in bursts —
    /// the fleet-wide tenant-cap stressor.
    HotTenant,
    /// Per-request cadence shrinks as the fleet grows, so total traffic
    /// ramps with fleet size while per-device load stays saturating.
    FleetRamp,
}

impl OverloadScenario {
    /// All four scenarios, in sweep order.
    pub fn all() -> [OverloadScenario; 4] {
        [
            OverloadScenario::FlashCrowd,
            OverloadScenario::DiurnalRamp,
            OverloadScenario::HotTenant,
            OverloadScenario::FleetRamp,
        ]
    }

    /// Short name used in tables and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            OverloadScenario::FlashCrowd => "flash-crowd",
            OverloadScenario::DiurnalRamp => "diurnal-ramp",
            OverloadScenario::HotTenant => "hot-tenant",
            OverloadScenario::FleetRamp => "fleet-ramp",
        }
    }

    /// The tenant name the hot-tenant scenario concentrates traffic on.
    pub const HOT_TENANT: &'static str = "tenant-hot";

    /// Generate the scenario's request list, scaled to `fleet_size` devices.
    /// Same seed, same workload — the generator is a pure function of its
    /// inputs, like everything else in this module.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn generate(self, models: &[ModelSpec], fleet_size: usize, seed: u64) -> Vec<ServeRequest> {
        let fleet = fleet_size.max(1);
        let spec = match self {
            OverloadScenario::FlashCrowd => WorkloadSpec {
                pattern: ArrivalPattern::FlashCrowd {
                    base_interval_ms: 400.0,
                    crowd_index: 2 * fleet,
                    crowd_size: 2 * fleet,
                },
                requests: 6 * fleet,
                tenants: 4,
                priority_levels: 2,
                seed,
            },
            OverloadScenario::DiurnalRamp => WorkloadSpec {
                pattern: ArrivalPattern::Diurnal {
                    off_peak_interval_ms: 800.0,
                    peak_interval_ms: 25.0,
                    period_ms: 20_000.0,
                },
                requests: 6 * fleet,
                tenants: 4,
                priority_levels: 2,
                seed,
            },
            OverloadScenario::HotTenant => WorkloadSpec {
                pattern: ArrivalPattern::Bursty {
                    burst_size: fleet.max(2),
                    gap_ms: 500.0,
                },
                requests: 6 * fleet,
                tenants: 4,
                priority_levels: 2,
                seed,
            },
            OverloadScenario::FleetRamp => WorkloadSpec {
                pattern: ArrivalPattern::Steady {
                    interval_ms: 200.0 / fleet as f64,
                },
                requests: 8 * fleet,
                tenants: 4,
                priority_levels: 2,
                seed,
            },
        };
        let mut requests = spec.generate(models);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0DD_BA11);
        for (index, request) in requests.iter_mut().enumerate() {
            if self == OverloadScenario::HotTenant && index % 4 != 3 {
                request.tenant = Self::HOT_TENANT.to_string();
            }
            request.deadline_ms = Some(if index % 8 == 7 {
                // Provably unmeetable: no model in the zoo replays in 1 ms.
                1.0
            } else {
                2_500.0 + rng.gen_f64() * 2_500.0
            });
        }
        requests
    }
}

/// The fault scenarios behind the recovery tests and the `chaos` bench:
/// each pairs a deterministic workload with a seeded [`FaultPlan`], so the
/// same scenario can be replayed unprotected (faults become typed failures)
/// and protected (a [`RecoveryControl`](crate::RecoveryControl) retries,
/// fails over, and quarantines). Fault firing is keyed by
/// `(device, seq, command)` — schedule-independent — so both arms see the
/// *same* faults and the comparison isolates the recovery policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Steady traffic, then one device dies partway through the run and
    /// takes its in-flight and queued work with it.
    DeviceLoss,
    /// One device fires transient kernel faults on a noticeable fraction of
    /// commands — the retry-budget and circuit-breaker stressor.
    FlakyDevice,
    /// A correlated burst: half the fleet turns flaky at once while one
    /// device also spikes spurious OOMs, modelling a shared-cause brownout.
    CorrelatedBurst,
    /// The overload flash-crowd with a device loss landing inside the
    /// crowd — recovery under pressure, where failover targets are already
    /// saturated.
    FaultUnderFlashCrowd,
}

impl ChaosScenario {
    /// All four scenarios, in sweep order.
    pub fn all() -> [ChaosScenario; 4] {
        [
            ChaosScenario::DeviceLoss,
            ChaosScenario::FlakyDevice,
            ChaosScenario::CorrelatedBurst,
            ChaosScenario::FaultUnderFlashCrowd,
        ]
    }

    /// Short name used in tables and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            ChaosScenario::DeviceLoss => "device-loss",
            ChaosScenario::FlakyDevice => "flaky-device",
            ChaosScenario::CorrelatedBurst => "correlated-burst",
            ChaosScenario::FaultUnderFlashCrowd => "fault-under-flash-crowd",
        }
    }

    /// Generate the scenario's request list, scaled to `fleet_size` devices.
    /// Deadlines are generous but real, so attainment distinguishes "finished
    /// late after three retries" from "finished on time".
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn generate(self, models: &[ModelSpec], fleet_size: usize, seed: u64) -> Vec<ServeRequest> {
        let fleet = fleet_size.max(1);
        let spec = match self {
            ChaosScenario::FaultUnderFlashCrowd => WorkloadSpec {
                pattern: ArrivalPattern::FlashCrowd {
                    base_interval_ms: 400.0,
                    crowd_index: 2 * fleet,
                    crowd_size: 2 * fleet,
                },
                requests: 6 * fleet,
                tenants: 4,
                priority_levels: 2,
                seed,
            },
            _ => WorkloadSpec {
                pattern: ArrivalPattern::Steady {
                    interval_ms: 300.0 / fleet as f64,
                },
                requests: 6 * fleet,
                tenants: 4,
                priority_levels: 2,
                seed,
            },
        };
        let mut requests = spec.generate(models);
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC4A0_5BAD);
        for request in &mut requests {
            request.deadline_ms = Some(4_000.0 + rng.gen_f64() * 4_000.0);
        }
        requests
    }

    /// The scenario's seeded fault plan, scaled to `fleet_size` devices.
    /// Faulty device indices are fixed per scenario (not drawn), so the same
    /// scenario stresses the same fleet slots at every seed and the sweep's
    /// protected-vs-unprotected delta is attributable to recovery alone.
    pub fn fault_plan(self, fleet_size: usize, seed: u64) -> FaultPlan {
        let fleet = fleet_size.max(1);
        let mut plan = FaultPlan::seeded(seed ^ 0xFA_017);
        match self {
            ChaosScenario::DeviceLoss => {
                plan = plan.with_device_loss(0, 1_200.0);
            }
            ChaosScenario::FlakyDevice => {
                plan = plan.with_flaky_device(fleet - 1, 0.35);
            }
            ChaosScenario::CorrelatedBurst => {
                for device in 0..fleet.div_ceil(2) {
                    plan = plan.with_flaky_device(device, 0.25);
                }
                plan = plan.with_oom_spikes(0, 0.15);
            }
            ChaosScenario::FaultUnderFlashCrowd => {
                // The crowd lands around `2 × fleet × 400 ms`; lose a device
                // right as it hits.
                plan = plan.with_device_loss(1 % fleet, 2.0 * fleet as f64 * 400.0);
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    fn models() -> Vec<ModelSpec> {
        vec![ModelZoo::gptneo_small(), ModelZoo::vit()]
    }

    fn spec(pattern: ArrivalPattern) -> WorkloadSpec {
        WorkloadSpec {
            pattern,
            requests: 12,
            tenants: 3,
            priority_levels: 3,
            seed: 42,
        }
    }

    fn all_patterns() -> Vec<ArrivalPattern> {
        vec![
            ArrivalPattern::Steady { interval_ms: 50.0 },
            ArrivalPattern::Poisson {
                mean_interval_ms: 100.0,
            },
            ArrivalPattern::Bursty {
                burst_size: 4,
                gap_ms: 1000.0,
            },
            ArrivalPattern::FlashCrowd {
                base_interval_ms: 100.0,
                crowd_index: 4,
                crowd_size: 5,
            },
            ArrivalPattern::Diurnal {
                off_peak_interval_ms: 200.0,
                peak_interval_ms: 10.0,
                period_ms: 1_000.0,
            },
        ]
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = spec(ArrivalPattern::Poisson {
            mean_interval_ms: 100.0,
        });
        let a = s.generate(&models());
        let b = s.generate(&models());
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_ms, y.arrival_ms);
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.model.abbr, y.model.abbr);
        }
        let other = WorkloadSpec { seed: 43, ..s }.generate(&models());
        assert!(a
            .iter()
            .zip(&other)
            .any(|(x, y)| x.arrival_ms != y.arrival_ms || x.tenant != y.tenant));
    }

    #[test]
    fn same_seed_reproduces_arrivals_across_every_pattern() {
        for pattern in all_patterns() {
            let s = spec(pattern);
            let a = s.generate(&models());
            let b = s.generate(&models());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.arrival_ms, y.arrival_ms, "{pattern:?}");
                assert_eq!(x.tenant, y.tenant, "{pattern:?}");
                assert_eq!(x.priority, y.priority, "{pattern:?}");
                assert_eq!(x.model.abbr, y.model.abbr, "{pattern:?}");
            }
            // Arrivals are non-negative and non-decreasing under every
            // pattern.
            let mut previous = 0.0;
            for r in &a {
                assert!(r.arrival_ms >= previous, "{pattern:?}");
                previous = r.arrival_ms;
            }
        }
    }

    #[test]
    fn poisson_mean_gap_matches_the_configured_rate() {
        let mean_interval_ms = 120.0;
        let n = 4000;
        let reqs = WorkloadSpec {
            pattern: ArrivalPattern::Poisson { mean_interval_ms },
            requests: n,
            tenants: 2,
            priority_levels: 2,
            seed: 0x00A1_1CE5,
        }
        .generate(&models());
        let span = reqs.last().unwrap().arrival_ms - reqs[0].arrival_ms;
        let mean_gap = span / (n - 1) as f64;
        // Exponential gaps: the sample mean over 4k draws lands within 10%
        // of the configured mean.
        assert!(
            (mean_gap - mean_interval_ms).abs() < 0.1 * mean_interval_ms,
            "poisson mean gap {mean_gap} vs configured {mean_interval_ms}"
        );
    }

    #[test]
    fn bursty_mean_gap_matches_the_configured_rate() {
        let (burst_size, gap_ms) = (4, 800.0);
        let n = 4000;
        let reqs = WorkloadSpec {
            pattern: ArrivalPattern::Bursty { burst_size, gap_ms },
            requests: n,
            tenants: 2,
            priority_levels: 2,
            seed: 7,
        }
        .generate(&models());
        let span = reqs.last().unwrap().arrival_ms - reqs[0].arrival_ms;
        let mean_gap = span / (n - 1) as f64;
        // A burst of k simultaneous arrivals every gap ms averages to
        // gap / k per request.
        let expected = gap_ms / burst_size as f64;
        assert!(
            (mean_gap - expected).abs() < 0.01 * expected,
            "bursty mean gap {mean_gap} vs expected {expected}"
        );
    }

    #[test]
    fn steady_arrivals_are_evenly_spaced() {
        let reqs = spec(ArrivalPattern::Steady { interval_ms: 50.0 }).generate(&models());
        for (i, r) in reqs.iter().enumerate() {
            assert!((r.arrival_ms - 50.0 * i as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn bursts_share_arrival_instants() {
        let reqs = spec(ArrivalPattern::Bursty {
            burst_size: 4,
            gap_ms: 1000.0,
        })
        .generate(&models());
        assert_eq!(reqs[0].arrival_ms, reqs[3].arrival_ms);
        assert_eq!(reqs[4].arrival_ms, 1000.0);
    }

    #[test]
    fn poisson_arrivals_are_monotone() {
        let reqs = spec(ArrivalPattern::Poisson {
            mean_interval_ms: 10.0,
        })
        .generate(&models());
        for pair in reqs.windows(2) {
            assert!(pair[1].arrival_ms >= pair[0].arrival_ms);
        }
    }

    #[test]
    fn flash_crowd_piles_onto_one_instant_then_resumes_the_cadence() {
        let reqs = spec(ArrivalPattern::FlashCrowd {
            base_interval_ms: 100.0,
            crowd_index: 4,
            crowd_size: 5,
        })
        .generate(&models());
        // Background cadence before the crowd.
        assert_eq!(reqs[1].arrival_ms, 100.0);
        assert_eq!(reqs[3].arrival_ms, 300.0);
        // The whole crowd shares the first member's instant…
        for member in &reqs[4..9] {
            assert_eq!(member.arrival_ms, 400.0);
        }
        // …and the cadence resumes from it.
        assert_eq!(reqs[9].arrival_ms, 500.0);
    }

    #[test]
    fn diurnal_gaps_ramp_between_off_peak_and_peak() {
        let reqs = WorkloadSpec {
            pattern: ArrivalPattern::Diurnal {
                off_peak_interval_ms: 200.0,
                peak_interval_ms: 10.0,
                period_ms: 1_000.0,
            },
            requests: 64,
            tenants: 2,
            priority_levels: 2,
            seed: 9,
        }
        .generate(&models());
        let gaps: Vec<f64> = reqs
            .windows(2)
            .map(|w| w[1].arrival_ms - w[0].arrival_ms)
            .collect();
        let min = gaps.iter().copied().fold(f64::INFINITY, f64::min);
        let max = gaps.iter().copied().fold(0.0_f64, f64::max);
        // Every gap stays inside the configured envelope, and the cycle
        // actually visits both ends of it.
        assert!(
            min >= 10.0 - 1e-9 && max <= 200.0 + 1e-9,
            "gaps in [{min}, {max}]"
        );
        assert!(min < 30.0, "peak rate never reached: min gap {min}");
        assert!(max > 150.0, "trough rate never reached: max gap {max}");
    }

    #[test]
    fn overload_scenarios_are_deterministic_and_deadline_carrying() {
        for scenario in OverloadScenario::all() {
            let a = scenario.generate(&models(), 4, 11);
            let b = scenario.generate(&models(), 4, 11);
            assert!(!a.is_empty(), "{scenario:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.arrival_ms, y.arrival_ms, "{scenario:?}");
                assert_eq!(x.tenant, y.tenant, "{scenario:?}");
                assert_eq!(x.deadline_ms, y.deadline_ms, "{scenario:?}");
            }
            // Every request carries a deadline; some are provably
            // unmeetable (the admission-control stressor).
            assert!(a.iter().all(|r| r.deadline_ms.is_some()), "{scenario:?}");
            assert!(
                a.iter().any(|r| r.deadline_ms == Some(1.0)),
                "{scenario:?} lacks unmeetable deadlines"
            );
        }
    }

    #[test]
    fn hot_tenant_scenario_concentrates_traffic() {
        let reqs = OverloadScenario::HotTenant.generate(&models(), 4, 3);
        let hot = reqs
            .iter()
            .filter(|r| r.tenant == OverloadScenario::HOT_TENANT)
            .count();
        assert_eq!(hot, reqs.len() * 3 / 4, "3 of every 4 requests are hot");
    }

    #[test]
    fn fleet_ramp_scales_request_count_with_fleet_size() {
        let small = OverloadScenario::FleetRamp.generate(&models(), 2, 5);
        let large = OverloadScenario::FleetRamp.generate(&models(), 8, 5);
        assert_eq!(small.len() * 4, large.len());
        // Larger fleets see a proportionally tighter cadence: same total
        // span, more arrivals.
        let span = |reqs: &[ServeRequest]| reqs.last().unwrap().arrival_ms;
        assert!((span(&small) - span(&large)).abs() / span(&small) < 0.1);
    }

    #[test]
    fn decode_workload_is_deterministic_and_in_range() {
        let spec = DecodeWorkloadSpec {
            pattern: ArrivalPattern::Steady { interval_ms: 40.0 },
            requests: 16,
            tenants: 3,
            prompt_tokens: (4, 32),
            output_tokens: (2, 16),
            seed: 0x00DE_C0DE,
        };
        let models = vec![ModelZoo::gptneo_small(), ModelZoo::whisper_medium()];
        let a = spec.generate(&models);
        let b = spec.generate(&models);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival_ms, y.arrival_ms);
            assert_eq!(x.decode, y.decode);
            assert_eq!(x.model.abbr, y.model.abbr);
            let d = x
                .decode
                .expect("decode workload requests carry token counts");
            assert!((4..=32).contains(&d.prompt_tokens));
            assert!((2..=16).contains(&d.output_tokens));
        }
        let other = DecodeWorkloadSpec {
            seed: 0x00DE_C1DE,
            ..spec
        }
        .generate(&models);
        assert!(a.iter().zip(&other).any(|(x, y)| x.decode != y.decode));
    }

    #[test]
    fn generated_requests_share_the_callers_graphs() {
        // Requests hold their model's graph by reference: generating a
        // workload copies no operator graph.
        let shares = |models: &[ModelSpec], requests: &[ServeRequest]| {
            requests.iter().all(|r| {
                models
                    .iter()
                    .any(|m| std::ptr::eq(m.graph(), r.model.graph()))
            })
        };
        let models = models();
        let requests = spec(ArrivalPattern::Steady { interval_ms: 1.0 }).generate(&models);
        assert!(shares(&models, &requests));
        let models = vec![ModelZoo::gptneo_small(), ModelZoo::whisper_medium()];
        let requests = DecodeWorkloadSpec {
            pattern: ArrivalPattern::Steady { interval_ms: 1.0 },
            requests: 12,
            tenants: 2,
            prompt_tokens: (4, 8),
            output_tokens: (2, 4),
            seed: 7,
        }
        .generate(&models);
        assert!(shares(&models, &requests));
    }

    #[test]
    fn decode_workload_clamps_inverted_and_zero_ranges() {
        let spec = DecodeWorkloadSpec {
            pattern: ArrivalPattern::Steady { interval_ms: 1.0 },
            requests: 8,
            tenants: 1,
            prompt_tokens: (9, 3),
            output_tokens: (0, 0),
            seed: 1,
        };
        let reqs = spec.generate(&[ModelZoo::gptneo_small()]);
        for r in &reqs {
            let d = r.decode.unwrap();
            assert!((3..=9).contains(&d.prompt_tokens));
            assert_eq!(d.output_tokens, 1);
        }
    }

    #[test]
    #[should_panic(expected = "no decode spec")]
    fn decode_workload_rejects_non_autoregressive_models() {
        DecodeWorkloadSpec {
            pattern: ArrivalPattern::Steady { interval_ms: 1.0 },
            requests: 1,
            tenants: 1,
            prompt_tokens: (4, 8),
            output_tokens: (2, 4),
            seed: 1,
        }
        .generate(&[ModelZoo::vit()]);
    }

    #[test]
    fn tenants_and_priorities_stay_in_range() {
        let reqs = spec(ArrivalPattern::Steady { interval_ms: 1.0 }).generate(&models());
        for r in &reqs {
            assert!(r.priority < 3);
            assert!(r.tenant.starts_with("tenant-"));
        }
    }

    #[test]
    fn chaos_scenarios_are_deterministic_and_carry_deadlines() {
        for scenario in ChaosScenario::all() {
            let a = scenario.generate(&models(), 4, 11);
            let b = scenario.generate(&models(), 4, 11);
            assert!(!a.is_empty(), "{scenario:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.arrival_ms, y.arrival_ms, "{scenario:?}");
                assert_eq!(x.deadline_ms, y.deadline_ms, "{scenario:?}");
            }
            assert!(a.iter().all(|r| r.deadline_ms.is_some()), "{scenario:?}");
        }
    }

    #[test]
    fn chaos_fault_plans_are_non_empty_and_reproducible() {
        for scenario in ChaosScenario::all() {
            let plan = scenario.fault_plan(4, 7);
            assert!(!plan.is_empty(), "{scenario:?} injects nothing");
            let again = scenario.fault_plan(4, 7);
            // Same seed, same plan: a fixed probe key draws identically.
            assert_eq!(
                plan.command_fault(3, 5, 2, 0).map(|k| k.label()),
                again.command_fault(3, 5, 2, 0).map(|k| k.label()),
                "{scenario:?}"
            );
            assert_eq!(plan.device_loss_ms(0), again.device_loss_ms(0));
        }
        assert!(ChaosScenario::DeviceLoss
            .fault_plan(4, 7)
            .device_loss_ms(0)
            .is_some());
        assert!(ChaosScenario::FlakyDevice
            .fault_plan(4, 7)
            .device_loss_ms(0)
            .is_none());
    }
}
