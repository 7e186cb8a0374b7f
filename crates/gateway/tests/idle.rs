//! An idle engine must cost no CPU: both halves of the ring park on a
//! condition variable, so a stream that is fed nothing burns nothing. Kept
//! in its own single-test binary because the measurement is the whole
//! process's `utime + stime` — any neighbouring test would be counted too.
#![cfg(target_os = "linux")]

use netscatter_gateway::{GatewayConfig, StreamEngine};
use netscatter_phy::params::PhyProfile;
use std::time::Duration;

/// This process's `utime + stime` so far, in milliseconds.
fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th overall, in clock ticks (USER_HZ = 100 on Linux).
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|field| field.parse::<u64>().expect("tick count"))
        .sum();
    ticks as f64 * 10.0
}

#[test]
fn an_engine_fed_nothing_burns_no_cpu() {
    let cfg = GatewayConfig::new(PhyProfile::default(), vec![0], 4);
    let engine = StreamEngine::spawn(&cfg, 500e3).expect("engine spawns");
    std::thread::sleep(Duration::from_millis(50)); // let the threads park
    let before = process_cpu_ms();
    std::thread::sleep(Duration::from_millis(300));
    let burned = process_cpu_ms() - before;
    engine.shutdown().expect("clean shutdown");
    assert!(
        burned < 50.0,
        "an idle engine burned {burned} ms of CPU in 300 ms — is a thread spinning?"
    );
}
