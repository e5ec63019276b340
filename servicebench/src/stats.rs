//! Order statistics over latency samples, and the process's peak RSS.

/// The median (mean of the two middle values for an even count); 0 for
/// no samples.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The tail: the highest percentile that still has at least ten samples
/// beyond it, i.e. the sample of rank `n - 10`. Returns the value and
/// the percentile it sits at. Below twenty samples that rank falls under
/// the median, which then stands in, reported as percentile 50.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n < 20 {
        return (median(samples), 50.0);
    }
    let sorted = sorted(samples);
    (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&samples), (30.0, 75.0));
        assert_eq!(median(&samples), 20.5);
        assert_eq!(tail(&samples[..19]), (10.0, 50.0));
        assert_eq!(tail(&samples[..20]), (10.0, 50.0));
    }
}
