//! Deterministic fault injection: the seeded [`FaultPlan`].
//!
//! A fault plan describes *what goes wrong* with a simulated fleet — a
//! device lost at a fixed simulated instant, a flaky device whose kernels
//! fail transiently, a device under memory pressure that throws spurious
//! allocation failures — without saying anything about *when the scheduler
//! happens to run each command*. Per-command faults are keyed by
//! `(device, seq, command, attempt)` through a [`SplitMix64`] stream, so
//! whether a given command of a given request faults is a pure function of
//! the plan, independent of admission order, pool width or wall-clock
//! interleaving. That is what lets a chaos run stay byte-identical between
//! a `--threads 1` and a `--threads 4` harness: the *schedule* may differ
//! internally, but the set of injected faults cannot.
//!
//! Device loss is the one time-keyed fault: a lost device fails everything
//! that would *start* at or after the loss instant on its simulated
//! timeline. The timeline itself is deterministic, so this too is
//! schedule-independent.
//!
//! The plan is pure data — the simulator never consults it on its own.
//! Harness layers (the serve engine's chaos path) ask
//! [`command_fault`](FaultPlan::command_fault) before issuing each command
//! and translate a firing into the failure/retry/failover path of their
//! choice. An empty plan ([`FaultPlan::is_empty`]) injects nothing and the
//! consulting layers skip the chaos path entirely, which keeps fault-free
//! runs byte-identical to a build without this module.

use std::collections::BTreeMap;

use crate::error::{SimError, SimResult};
use crate::rng::SplitMix64;

/// What kind of fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The device is gone (thermal shutdown, driver death, hot-unplug):
    /// everything resident on it — weights, KV caches, in-flight work — is
    /// lost, and the device never comes back.
    DeviceLoss,
    /// A transient kernel fault: one command failed, the device survives.
    /// Retrying the command stream is expected to succeed (the injection
    /// stream is re-drawn per attempt).
    TransientKernel,
    /// A spurious out-of-memory spike: an allocation that should have fit
    /// was refused (fragmentation, a rogue co-tenant). The device survives
    /// and a retry is expected to succeed.
    OomSpike,
}

impl FaultKind {
    /// Short stable label used in trace events and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DeviceLoss => "device-loss",
            FaultKind::TransientKernel => "transient-kernel",
            FaultKind::OomSpike => "oom-spike",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A seeded, schedule-independent fault injection plan for a device fleet.
///
/// Build one with [`FaultPlan::seeded`] plus the `with_*` builders, hand it
/// to a harness (e.g. `ServeEngine::with_fault_plan` in `flashmem-serve`),
/// and every run over the same plan and workload injects exactly the same
/// faults — regardless of scheduling policy, pool width or retry timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Device index → simulated instant (ms) the device is lost at.
    device_loss: BTreeMap<usize, f64>,
    /// Device index → per-command transient kernel fault probability.
    flake: BTreeMap<usize, f64>,
    /// Device index → per-command spurious OOM probability.
    oom: BTreeMap<usize, f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::seeded(0)
    }
}

impl FaultPlan {
    /// An empty plan whose per-command draws derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            device_loss: BTreeMap::new(),
            flake: BTreeMap::new(),
            oom: BTreeMap::new(),
        }
    }

    /// Lose `device` at simulated time `at_ms` (builder style): everything
    /// that would start on it at or after that instant fails with
    /// [`FaultKind::DeviceLoss`], and the device never recovers. A negative
    /// instant is clamped to 0; a NaN is kept, and [`check`](Self::check)
    /// rejects it (`f64::max` alone would turn it into 0).
    pub fn with_device_loss(mut self, device: usize, at_ms: f64) -> Self {
        let at_ms = if at_ms.is_nan() {
            at_ms
        } else {
            at_ms.max(0.0)
        };
        self.device_loss.insert(device, at_ms);
        self
    }

    /// Give `device` a transient kernel fault probability of `rate` per
    /// command (clamped to `[0, 1]`; a NaN is kept for
    /// [`check`](Self::check) to reject; builder style).
    pub fn with_flaky_device(mut self, device: usize, rate: f64) -> Self {
        self.flake.insert(device, rate.clamp(0.0, 1.0));
        self
    }

    /// Give `device` a spurious-OOM probability of `rate` per command
    /// (clamped to `[0, 1]`; a NaN is kept for [`check`](Self::check) to
    /// reject; builder style).
    pub fn with_oom_spikes(mut self, device: usize, rate: f64) -> Self {
        self.oom.insert(device, rate.clamp(0.0, 1.0));
        self
    }

    /// Check the plan against a fleet of `devices` devices, before a
    /// harness runs it.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidParameter`] for an entry naming a device outside
    /// the fleet, which would otherwise be silently ignored, or holding a
    /// value that is not a finite number: a NaN or infinite loss instant, or
    /// a NaN rate.
    pub fn check(&self, devices: usize) -> SimResult<()> {
        let entries = self
            .device_loss
            .iter()
            .map(|e| ("with_device_loss", e))
            .chain(self.flake.iter().map(|e| ("with_flaky_device", e)))
            .chain(self.oom.iter().map(|e| ("with_oom_spikes", e)));
        for (knob, (&device, &value)) in entries {
            let problem = if device >= devices {
                format!("names device {device}, but the fleet has {devices} devices")
            } else if !value.is_finite() {
                format!("gives device {device} the value {value}; it must be a finite number")
            } else {
                continue;
            };
            return Err(SimError::InvalidParameter {
                message: format!("FaultPlan::{knob} {problem}"),
            });
        }
        Ok(())
    }

    /// True when the plan injects nothing at all — harnesses skip every
    /// per-command fault draw, keeping fault-free runs byte-identical to a
    /// plan-less build.
    pub fn is_empty(&self) -> bool {
        self.device_loss.is_empty()
            && self.flake.values().all(|r| *r <= 0.0)
            && self.oom.values().all(|r| *r <= 0.0)
    }

    /// The instant `device` is lost at, if the plan loses it.
    pub fn device_loss_ms(&self, device: usize) -> Option<f64> {
        self.device_loss.get(&device).copied()
    }

    /// Does command `command` of request `seq`, on its `attempt`-th try on
    /// `device`, fault? Returns the fault kind, or `None` for a clean
    /// command.
    ///
    /// The draw is a pure function of `(plan seed, device, seq, command,
    /// attempt)` — **not** of simulated time or issue order — so fault
    /// firing is schedule-independent. `attempt` is part of the key on
    /// purpose: a *transient* fault must be re-drawn when the command is
    /// retried, otherwise a retry would deterministically re-fault forever
    /// and no retry budget could ever help.
    ///
    /// Device loss is time-keyed, not command-keyed; it is never returned
    /// here. Check [`device_loss_ms`](Self::device_loss_ms) against the
    /// command's would-be start instant instead.
    pub fn command_fault(
        &self,
        device: usize,
        seq: usize,
        command: usize,
        attempt: u32,
    ) -> Option<FaultKind> {
        let flake = self.flake.get(&device).copied().unwrap_or(0.0);
        let oom = self.oom.get(&device).copied().unwrap_or(0.0);
        if flake <= 0.0 && oom <= 0.0 {
            return None;
        }
        let mut rng = SplitMix64::seed_from_u64(self.draw_key(device, seq, command, attempt));
        let draw = rng.gen_f64();
        if draw < flake {
            Some(FaultKind::TransientKernel)
        } else if draw < flake + oom {
            Some(FaultKind::OomSpike)
        } else {
            None
        }
    }

    /// Mix the fault coordinates into one 64-bit stream key. SplitMix64's
    /// seeding finalizer scrambles the result, so structured inputs
    /// (small consecutive indices) still produce well-distributed draws.
    fn draw_key(&self, device: usize, seq: usize, command: usize, attempt: u32) -> u64 {
        self.seed
            .wrapping_add((device as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add((seq as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add((command as u64).wrapping_mul(0x94d0_49bb_1331_11eb))
            .wrapping_add((attempt as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::seeded(7);
        assert!(plan.is_empty());
        assert_eq!(plan.device_loss_ms(0), None);
        for seq in 0..8 {
            for cmd in 0..8 {
                assert_eq!(plan.command_fault(0, seq, cmd, 0), None);
            }
        }
        // A zero-rate knob is still empty.
        let plan = plan.with_flaky_device(1, 0.0).with_oom_spikes(2, -3.0);
        assert!(plan.is_empty());
    }

    #[test]
    fn device_loss_is_recorded_and_clamped() {
        let plan = FaultPlan::seeded(7)
            .with_device_loss(2, 1_500.0)
            .with_device_loss(3, -10.0);
        assert!(!plan.is_empty());
        assert_eq!(plan.device_loss_ms(2), Some(1_500.0));
        assert_eq!(plan.device_loss_ms(3), Some(0.0));
        assert_eq!(plan.device_loss_ms(0), None);
    }

    #[test]
    fn check_rejects_unknown_devices_and_non_finite_values() {
        let invalid = |plan: FaultPlan, words: [&str; 2]| match plan.check(2) {
            Err(SimError::InvalidParameter { message }) => {
                assert!(words.iter().all(|w| message.contains(w)), "{message}");
            }
            other => panic!("expected a typed {words:?} error, got {other:?}"),
        };
        let plan = FaultPlan::seeded(1);
        assert_eq!(plan.clone().with_device_loss(1, 5.0).check(2), Ok(()));
        invalid(
            plan.clone().with_device_loss(9, 5.0),
            ["with_device_loss", "device 9"],
        );
        invalid(
            plan.clone().with_flaky_device(2, 0.1),
            ["with_flaky_device", "device 2"],
        );
        invalid(
            plan.clone().with_oom_spikes(5, 0.1),
            ["with_oom_spikes", "device 5"],
        );
        // The builders keep a NaN for the check instead of clamping it away.
        let nan = plan.clone().with_device_loss(0, f64::NAN);
        assert!(nan.device_loss_ms(0).is_some_and(f64::is_nan));
        invalid(nan, ["with_device_loss", "NaN"]);
        invalid(
            plan.clone().with_device_loss(0, f64::INFINITY),
            ["with_device_loss", "inf"],
        );
        invalid(
            plan.clone().with_flaky_device(0, f64::NAN),
            ["with_flaky_device", "NaN"],
        );
        invalid(
            plan.with_oom_spikes(1, f64::NAN),
            ["with_oom_spikes", "NaN"],
        );
    }

    #[test]
    fn command_faults_are_deterministic_and_keyed_per_coordinate() {
        let plan = FaultPlan::seeded(42)
            .with_flaky_device(0, 0.5)
            .with_oom_spikes(0, 0.25);
        // Same coordinates → same verdict, every time.
        for seq in 0..16 {
            for cmd in 0..16 {
                for attempt in 0..3 {
                    assert_eq!(
                        plan.command_fault(0, seq, cmd, attempt),
                        plan.command_fault(0, seq, cmd, attempt)
                    );
                }
            }
        }
        // The draw is per-coordinate: over many coordinates both kinds fire
        // and clean commands exist.
        let mut kernel = 0;
        let mut oom = 0;
        let mut clean = 0;
        for seq in 0..32 {
            for cmd in 0..32 {
                match plan.command_fault(0, seq, cmd, 0) {
                    Some(FaultKind::TransientKernel) => kernel += 1,
                    Some(FaultKind::OomSpike) => oom += 1,
                    None => clean += 1,
                    Some(FaultKind::DeviceLoss) => unreachable!("loss is time-keyed"),
                }
            }
        }
        assert!(kernel > 0 && oom > 0 && clean > 0);
        // Roughly the configured mix (coarse bounds — this is a
        // determinism pin, not a statistics test).
        let total = (kernel + oom + clean) as f64;
        assert!((kernel as f64 / total - 0.5).abs() < 0.1);
        assert!((oom as f64 / total - 0.25).abs() < 0.1);
    }

    #[test]
    fn attempts_redraw_the_fault_stream() {
        // A transient fault must not re-fire deterministically on retry:
        // find a faulting coordinate and check some later attempt succeeds.
        let plan = FaultPlan::seeded(1).with_flaky_device(0, 0.3);
        let faulting = (0..64)
            .flat_map(|seq| (0..8).map(move |cmd| (seq, cmd)))
            .find(|&(seq, cmd)| plan.command_fault(0, seq, cmd, 0).is_some())
            .expect("a 30% flake rate faults somewhere in 512 draws");
        let recovered = (1..16).any(|attempt| {
            plan.command_fault(0, faulting.0, faulting.1, attempt)
                .is_none()
        });
        assert!(recovered, "retries never redrew the fault");
    }

    #[test]
    fn faults_are_isolated_per_device() {
        let plan = FaultPlan::seeded(9).with_flaky_device(1, 1.0);
        assert_eq!(plan.command_fault(0, 0, 0, 0), None);
        assert_eq!(
            plan.command_fault(1, 0, 0, 0),
            Some(FaultKind::TransientKernel)
        );
    }

    #[test]
    fn rates_clamp_to_probability_range() {
        let plan = FaultPlan::seeded(3)
            .with_flaky_device(0, 7.0)
            .with_oom_spikes(0, 2.0);
        // flake clamps to 1.0 → every command faults as a kernel fault.
        assert_eq!(
            plan.command_fault(0, 5, 5, 0),
            Some(FaultKind::TransientKernel)
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::DeviceLoss.label(), "device-loss");
        assert_eq!(FaultKind::TransientKernel.to_string(), "transient-kernel");
        assert_eq!(FaultKind::OomSpike.label(), "oom-spike");
    }
}
