//! A subscription's bound is free until events arrive. Alone in its
//! binary: a sibling test running in the same process would allocate
//! during the measurement.

#![cfg(target_os = "linux")]

use infera_obs::EventBus;

/// `VmRSS` of this process, in kB.
fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn a_million_event_bound_on_an_idle_bus_costs_under_1_mb() {
    let bus = EventBus::new();
    let before = resident_kb();
    let sub = bus.subscribe(1 << 20);
    let grown_kb = resident_kb().saturating_sub(before);
    // A ring of 2^20 event slots would be 104 MB, written at subscribe time.
    assert!(grown_kb < 1024, "subscribe(1 << 20) grew VmRSS by {grown_kb} kB");
    assert_eq!(sub.dropped(), 0);
}
