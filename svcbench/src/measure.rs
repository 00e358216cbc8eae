//! Clocks, memory readers and order statistics.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two nearest order statistics (the "type 7" definition
/// numpy and `statistics.quantiles(method="inclusive")` use). `None`
/// for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The smallest of `values` (infinite when empty).
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time consumed so far by every thread of this process. The
/// process clock, not the thread clock: shard and pool threads do most
/// of the service's work.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

extern "C" {
    /// glibc: returns the allocator's free pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resident set size of this process in KiB, from `/proc/self/status`,
/// after the allocator has returned its free pages, so the figure counts
/// live memory and not what earlier set-ups and sessions freed.
pub fn vm_rss_kib() -> u64 {
    // SAFETY: `malloc_trim` only releases free heap pages; it takes no
    // pointer and touches no live allocation.
    unsafe { malloc_trim(0) };
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_rss_kib(&status).expect("VmRSS line in /proc/self/status")
}

/// Extracts the `VmRSS:` value (KiB) from `/proc/<pid>/status` text.
pub fn parse_vm_rss_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// SplitMix64: derives independent, reproducible values from the
/// workload seed.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fixed pure-compute work unit for the host calibration.
fn spin(units: u64) -> u64 {
    let mut acc = 0x1234_5678_u64;
    for i in 0..units {
        acc = splitmix64(acc ^ i);
    }
    std::hint::black_box(acc)
}

/// Effective parallelism of two threads on this host: the rate of two
/// threads each running the same fixed work, over the rate of one. An
/// idle two-core machine gives about 2.0; a shared or throttled one
/// less.
pub fn calibrate_parallelism(units: u64) -> f64 {
    spin(units / 4); // wake both the core and the clock
    let timed = |threads: usize| {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| spin(units));
            }
        });
        start.elapsed().as_secs_f64()
    };
    let one = timed(1);
    let two = timed(2);
    2.0 * one / two
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(5.0));
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.25), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 0.5), Some(1.5));
        // 0.95 of 1..=21 sits exactly on the 20th value.
        let ramp: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&ramp, 0.95), Some(20.0));
        assert!((percentile(&ramp, 0.96).unwrap() - 20.2).abs() < 1e-12);
        assert_eq!(percentile(&[7.5], 0.95), Some(7.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn process_clock_counts_work_on_other_threads() {
        let before = process_cpu();
        std::thread::spawn(|| spin(20_000_000)).join().unwrap();
        let used = process_cpu() - before;
        assert!(used > Duration::from_millis(1), "cpu {used:?}");
    }

    #[test]
    fn rss_reader_parses_status_and_sees_growth() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmRSS:\t    1234 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_rss_kib(status), Some(1234));
        assert_eq!(parse_vm_rss_kib("Name:\tx\n"), None);
        let before = vm_rss_kib();
        let block = vec![1u8; 64 << 20];
        let after = vm_rss_kib();
        assert!(after >= before + (32 << 10), "{before} -> {after} KiB");
        drop(std::hint::black_box(block));
    }
}
