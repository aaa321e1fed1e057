//! What the process can learn about itself from `/proc`.

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds. `/proc/self/stat` counts in clock ticks, 100 per second on
/// Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_its_own_counters() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.5));
        let before = cpu_seconds().expect("stat is readable");
        let mut x = 0u64;
        while cpu_seconds().expect("stat is readable") < before + 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
    }
}
