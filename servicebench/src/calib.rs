//! Host-speed calibration.
//!
//! The benchmark's host is a share of a machine whose speed moves by up
//! to ~1.7x from one minute to the next, for all code alike. To report
//! times that move with the program and not with the host, every
//! operation of the loop is preceded by one slice of a fixed kernel,
//! independent of the program under test, and every end-to-end time is
//! scaled by `REFERENCE_MS / median slice`: it reads as the time the
//! same run would have taken on a host where one slice takes
//! `REFERENCE_MS`. The kernel mimics the program's mix (text formatting
//! and parsing, string hashing, sorting, allocation), and the process
//! runs pinned to one CPU so kernel and server share a core.

use std::collections::HashMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// What one slice takes on a quiet moment of the 2-vCPU virtual machine
/// the benchmark was written on; scaled times are relative to it.
pub const REFERENCE_MS: f64 = 10.0;

/// Records formatted, parsed, hashed and sorted per slice.
const RECORDS: usize = 30_000;

/// Run one slice of the kernel (the same work every time) and return
/// its wall time in milliseconds.
pub fn slice() -> f64 {
    let started = Instant::now();
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut text = String::new();
    for _ in 0..RECORDS {
        let v = xorshift(&mut state);
        let _ = write!(
            text,
            "{{\"k\":\"v{}\",\"x\":{}}},",
            v % 5000,
            (v >> 20) as f64 / 7.0
        );
    }
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut names = Vec::with_capacity(RECORDS);
    let mut sum = 0.0;
    for record in text.split(',').filter(|r| !r.is_empty()) {
        if let Some((key, x)) = record.split_once("\",\"x\":") {
            let name = &key[6..];
            *counts.entry(name.to_owned()).or_default() += 1;
            names.push(name);
            sum += x.trim_end_matches('}').parse::<f64>().unwrap_or(0.0);
        }
    }
    names.sort_unstable();
    black_box((counts.len(), sum, names.len()));
    started.elapsed().as_secs_f64() * 1e3
}

/// The factor that turns a run's wall times into reference-host times,
/// from the run's slices.
pub fn factor(slices: &[f64]) -> f64 {
    REFERENCE_MS / crate::stats::median(slices)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
