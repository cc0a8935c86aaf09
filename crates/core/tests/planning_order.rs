//! The daemon plans in a canonical, shape-sorted order, so its decisions
//! depend on processes only through their shapes: handing it the same
//! processes under a different pid assignment (what pid churn does to a
//! view) yields the same plan, pid for pid up to renaming.

use avfs_chip::freq::FreqStep;
use avfs_chip::presets;
use avfs_chip::topology::{CoreId, CoreSet};
use avfs_chip::Chip;
use avfs_core::daemon::Daemon;
use avfs_sched::driver::{Action, Driver, ProcessView, SysEvent, SystemView};
use avfs_sched::governor::GovernorMode;
use avfs_sched::process::{Pid, ProcessState};
use avfs_sim::time::SimTime;
use avfs_workloads::classify::IntensityClass;

/// Everything the planner may read about a process.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shape {
    state: ProcessState,
    threads: usize,
    cores: CoreSet,
    class: IntensityClass,
}

/// An action with its pid replaced by the pinned process's shape.
#[derive(Debug, PartialEq)]
enum Normalized {
    Pin(Shape, CoreSet),
    Other(Action),
}

fn running(cores: &[u16], class: IntensityClass) -> Shape {
    Shape {
        state: ProcessState::Running,
        threads: cores.len(),
        cores: cores.iter().map(|&c| CoreId::new(c)).collect(),
        class,
    }
}

fn waiting(threads: usize, class: IntensityClass) -> Shape {
    Shape {
        state: ProcessState::Waiting,
        threads,
        cores: CoreSet::EMPTY,
        class,
    }
}

/// A view listing `shapes` under pids 1.. in order (views are always
/// pid-ascending, so permuting the shapes reassigns pids).
fn view(chip: &Chip, shapes: &[Shape]) -> SystemView {
    let processes = shapes
        .iter()
        .zip(1u64..)
        .map(|(s, pid)| ProcessView {
            pid: Pid(pid),
            threads: s.threads,
            state: s.state,
            assigned: s.cores,
            l3c_per_mcycle: Some(match s.class {
                IntensityClass::CpuIntensive => 200.0,
                IntensityClass::MemoryIntensive => 15_000.0,
            }),
            class: Some(s.class),
            arrived_at: SimTime::ZERO,
            stalled_until: None,
        })
        .collect();
    SystemView {
        now: SimTime::from_secs(1),
        spec: chip.spec().clone(),
        voltage: chip.voltage(),
        pmd_steps: vec![FreqStep::MAX; chip.spec().pmds() as usize],
        governor: GovernorMode::Userspace,
        droop_alert: false,
        processes,
    }
}

/// Replans `shapes` on a clone of `daemon` and renames every pin's pid
/// to the shape it was listed with.
fn plan(daemon: &Daemon, chip: &Chip, shapes: &[Shape]) -> Vec<Normalized> {
    let view = view(chip, shapes);
    let mut daemon = daemon.clone();
    daemon
        .on_event(&view, &SysEvent::ProcessArrived(Pid(1)))
        .into_iter()
        .map(|a| match a {
            Action::PinProcess(pid, cores) => Normalized::Pin(shapes[pid.0 as usize - 1], cores),
            other => Normalized::Other(other),
        })
        .collect()
}

/// Deterministic Fisher-Yates shuffle driven by a 64-bit LCG.
fn shuffled(shapes: &[Shape], seed: u64) -> Vec<Shape> {
    let mut out = shapes.to_vec();
    let mut x = seed;
    for i in (1..out.len()).rev() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        out.swap(i, (x >> 33) as usize % (i + 1));
    }
    out
}

#[test]
fn permuting_the_view_does_not_change_the_plan_on_both_presets() {
    use IntensityClass::{CpuIntensive as Cpu, MemoryIntensive as Mem};
    let cases = [
        (
            presets::xgene2().build(),
            vec![
                running(&[5], Cpu),
                running(&[0], Mem),
                waiting(2, Cpu),
                waiting(1, Cpu),
                waiting(1, Mem),
            ],
        ),
        (
            presets::xgene3().build(),
            vec![
                running(&[10, 11], Cpu),
                running(&[3], Mem),
                running(&[20], Cpu),
                waiting(4, Cpu),
                waiting(1, Cpu),
                waiting(3, Cpu),
                waiting(2, Mem),
                waiting(1, Mem),
            ],
        ),
    ];
    for (chip, shapes) in cases {
        let mut daemon = Daemon::optimal(&chip);
        let _ = daemon.on_event(&view(&chip, &[]), &SysEvent::MonitorTick);
        let reference = plan(&daemon, &chip, &shapes);
        assert!(
            reference.iter().any(|a| matches!(a, Normalized::Pin(..))),
            "{}: the plan pins nothing, so the test is vacuous",
            chip.spec().name
        );
        for seed in 0..16 {
            let permuted = shuffled(&shapes, seed);
            assert_eq!(
                plan(&daemon, &chip, &permuted),
                reference,
                "{}: plan changed under permutation {seed}",
                chip.spec().name
            );
        }
    }
}
