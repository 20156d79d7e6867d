//! Power and energy modelling.
//!
//! Table 9 of the paper reports **average power** (W) and **energy** (J) per
//! inference for DeepViT and SD-UNet across frameworks. The simulator derives
//! both from the execution timeline: each engine (SMs, transfer/DMA, DRAM)
//! draws additional power while busy, on top of a platform idle floor, and
//! energy is the integral of power over the makespan.

use serde::{Deserialize, Serialize};

use crate::device::DeviceSpec;
use crate::trace::{EventKind, Timeline};

/// Power/energy summary of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Average power over the execution in watts.
    pub average_power_w: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Wall-clock duration in milliseconds the report covers.
    pub duration_ms: f64,
    /// Fraction of the makespan during which the SMs were busy.
    pub sm_utilization: f64,
    /// Fraction of the makespan during which transfer engines were busy.
    pub transfer_utilization: f64,
}

/// Converts a timeline into power/energy figures for a given device.
#[derive(Debug, Clone)]
pub struct PowerModel {
    device: DeviceSpec,
}

impl PowerModel {
    /// Build a power model for `device`.
    pub fn new(device: DeviceSpec) -> Self {
        PowerModel { device }
    }

    /// The device this model targets.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Compute the energy report for a timeline.
    ///
    /// The model is utilisation-based: during the fraction of time the SMs are
    /// active the GPU draws `sm_power_w` extra; transfer/transform activity
    /// draws `transfer_power_w + dram_power_w`; the idle floor applies for the
    /// whole makespan. Running compute and transfers concurrently therefore
    /// *raises* instantaneous power (as the paper observes for FlashMem vs
    /// SmartMem) while usually lowering total energy because the makespan
    /// shrinks.
    pub fn report(&self, timeline: &Timeline) -> EnergyReport {
        let makespan = timeline.makespan_ms();
        if makespan <= 0.0 {
            return EnergyReport {
                average_power_w: self.device.idle_power_w,
                energy_j: 0.0,
                duration_ms: 0.0,
                sm_utilization: 0.0,
                transfer_utilization: 0.0,
            };
        }
        let sm_active = timeline.active_ms(EventKind::Kernel);
        let transfer_active =
            timeline.active_ms(EventKind::Transfer) + timeline.active_ms(EventKind::Transform);
        let transfer_active = transfer_active.min(makespan);
        let sm_util = (sm_active / makespan).clamp(0.0, 1.0);
        let tr_util = (transfer_active / makespan).clamp(0.0, 1.0);

        let seconds = makespan / 1e3;
        let idle_j = self.device.idle_power_w * seconds;
        let sm_j = self.device.sm_power_w * (sm_active / 1e3);
        let tr_j =
            (self.device.transfer_power_w + self.device.dram_power_w) * (transfer_active / 1e3);
        let energy = idle_j + sm_j + tr_j;
        EnergyReport {
            average_power_w: energy / seconds,
            energy_j: energy,
            duration_ms: makespan,
            sm_utilization: sm_util,
            transfer_utilization: tr_util,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ExecutionEvent;

    fn event(kind: EventKind, start: f64, end: f64) -> ExecutionEvent {
        ExecutionEvent {
            command: 0,
            kind,
            start_ms: start,
            end_ms: end,
            bytes: 0,
        }
    }

    #[test]
    fn empty_timeline_draws_idle_power_and_zero_energy() {
        let m = PowerModel::new(DeviceSpec::oneplus_12());
        let r = m.report(&Timeline::new());
        assert_eq!(r.energy_j, 0.0);
        assert_eq!(r.average_power_w, m.device().idle_power_w);
    }

    #[test]
    fn zero_makespan_timeline_reports_zero_energy() {
        // Not just the empty timeline: instantaneous (zero-duration) events
        // span no wall-clock time, so no energy can have been drawn.
        let m = PowerModel::new(DeviceSpec::oneplus_12());
        let mut tl = Timeline::new();
        tl.push(event(EventKind::Kernel, 0.0, 0.0));
        tl.push(event(EventKind::Transfer, 0.0, 0.0));
        let r = m.report(&tl);
        assert_eq!(r.duration_ms, 0.0);
        assert_eq!(r.energy_j, 0.0);
        assert_eq!(r.sm_utilization, 0.0);
        assert_eq!(r.transfer_utilization, 0.0);
        assert_eq!(r.average_power_w, m.device().idle_power_w);
    }

    #[test]
    fn energy_is_additive_across_any_command_boundary_split() {
        // A gapless serial timeline split at any command boundary must obey
        // E(full) = E(prefix) + E(suffix-rebased-to-zero): energy is a time
        // integral, so cutting the integration interval cannot create or
        // destroy joules. This is the property fleet-level accounting relies
        // on when summing per-request segments into device totals.
        let m = PowerModel::new(DeviceSpec::oneplus_12());
        let segments = [
            (EventKind::Transfer, 0.0, 100.0),
            (EventKind::Kernel, 100.0, 250.0),
            (EventKind::Transform, 250.0, 300.0),
            (EventKind::Kernel, 300.0, 420.0),
            (EventKind::Transfer, 420.0, 500.0),
        ];
        let mut full = Timeline::new();
        for &(kind, start, end) in &segments {
            full.push(event(kind, start, end));
        }
        let total = m.report(&full).energy_j;
        assert!(total > 0.0);

        let boundaries: Vec<f64> = segments.iter().map(|&(_, _, end)| end).collect();
        for &cut in &boundaries {
            let mut prefix = Timeline::new();
            let mut suffix = Timeline::new();
            for &(kind, start, end) in &segments {
                if end <= cut {
                    prefix.push(event(kind, start, end));
                } else {
                    // Re-base the suffix so its makespan covers only its own
                    // wall-clock span.
                    suffix.push(event(kind, start - cut, end - cut));
                }
            }
            let split = m.report(&prefix).energy_j + m.report(&suffix).energy_j;
            assert!(
                (split - total).abs() < 1e-9 * total,
                "split at {cut} ms: {split} J vs {total} J"
            );
        }
    }

    #[test]
    fn busy_sms_raise_power_above_idle() {
        let m = PowerModel::new(DeviceSpec::oneplus_12());
        let mut tl = Timeline::new();
        tl.push(event(EventKind::Kernel, 0.0, 1000.0));
        let r = m.report(&tl);
        assert!(r.average_power_w > m.device().idle_power_w);
        assert!((r.sm_utilization - 1.0).abs() < 1e-9);
        assert!(r.energy_j > 0.0);
    }

    #[test]
    fn overlapping_execution_uses_less_energy_than_serial() {
        // Same work: 1 s of compute and 1 s of transfer.
        let m = PowerModel::new(DeviceSpec::oneplus_12());
        let mut serial = Timeline::new();
        serial.push(event(EventKind::Transfer, 0.0, 1000.0));
        serial.push(event(EventKind::Kernel, 1000.0, 2000.0));
        let mut overlapped = Timeline::new();
        overlapped.push(event(EventKind::Transfer, 0.0, 1000.0));
        overlapped.push(event(EventKind::Kernel, 0.0, 1000.0));

        let rs = m.report(&serial);
        let ro = m.report(&overlapped);
        // Overlap: higher instantaneous power, lower energy (shorter makespan).
        assert!(ro.average_power_w > rs.average_power_w);
        assert!(ro.energy_j < rs.energy_j);
    }

    #[test]
    fn energy_scales_with_duration() {
        let m = PowerModel::new(DeviceSpec::oneplus_12());
        let mut short = Timeline::new();
        short.push(event(EventKind::Kernel, 0.0, 500.0));
        let mut long = Timeline::new();
        long.push(event(EventKind::Kernel, 0.0, 5000.0));
        assert!(m.report(&long).energy_j > 5.0 * m.report(&short).energy_j);
    }

    #[test]
    fn utilizations_are_fractions() {
        let m = PowerModel::new(DeviceSpec::pixel_8());
        let mut tl = Timeline::new();
        tl.push(event(EventKind::Kernel, 0.0, 100.0));
        tl.push(event(EventKind::Transfer, 0.0, 400.0));
        let r = m.report(&tl);
        assert!(r.sm_utilization > 0.0 && r.sm_utilization <= 1.0);
        assert!(r.transfer_utilization > 0.0 && r.transfer_utilization <= 1.0);
        assert!((r.sm_utilization - 0.25).abs() < 1e-9);
    }
}
