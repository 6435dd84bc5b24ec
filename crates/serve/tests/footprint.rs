//! What serving set-up costs in resident memory: a scheduler, a bound
//! server and eight connected clients. A count, not a timing, so it holds
//! on any host. Alone in its binary: a sibling test running in the same
//! process would allocate during the measurement.

#![cfg(target_os = "linux")]

use infera_core::InferA;
use infera_hacc::EnsembleSpec;
use infera_serve::net::{Client, ClientConfig, NetServer, NetServerConfig};
use infera_serve::{Scheduler, ServeConfig};
use std::sync::Arc;

/// `VmRSS` of this process, in kB.
fn resident_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn serving_set_up_with_eight_connections_stays_under_32_mb() {
    let base = std::env::temp_dir().join("infera_serve_footprint");
    std::fs::remove_dir_all(&base).ok();
    let manifest = infera_hacc::generate(&EnsembleSpec::tiny(97), &base.join("ens")).unwrap();
    let session = InferA::from_manifest(manifest)
        .work_dir(base.join("work"))
        .build()
        .unwrap();

    let before = resident_kb();
    let scheduler = Arc::new(Scheduler::new(Arc::new(session), ServeConfig::default()));
    let server = NetServer::bind(scheduler, "127.0.0.1:0", NetServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let mut clients: Vec<Client> = (0..8)
        .map(|_| Client::connect(&addr, &ClientConfig::default()).unwrap())
        .collect();
    let grown_kb = resident_kb().saturating_sub(before);

    // Channels allocate as they carry; a preallocated million-slot ring per
    // channel made this 115 MB for the scheduler plus 620 MB a connection.
    assert!(grown_kb < 32 * 1024, "serving set-up grew VmRSS by {grown_kb} kB");
    assert!(clients.iter_mut().all(Client::ping));
    for client in clients {
        client.bye();
    }
    server.shutdown();
}
