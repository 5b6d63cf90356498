//! A zero-dependency peak-RSS probe.
//!
//! It reads `VmHWM` from `/proc/self/status` — the
//! kernel-maintained resident-set high-water mark — so it needs no
//! allocator hooks and costs one small file read. On platforms without
//! procfs it degrades to `None` rather than guessing.

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable. The
/// value is a process-lifetime high-water mark: it never decreases.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` document into
/// bytes. Factored out of [`peak_rss_bytes`] so the parsing is
/// testable on every platform.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    // Format: `VmHWM:	   123456 kB`.
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .strip_suffix("kB")
        .map(str::trim)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_the_procfs_format() {
        let doc = "Name:\ttaco\nVmPeak:\t  999 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(doc), Some(4321 * 1024));
        assert_eq!(parse_vm_hwm("Name:\ttaco\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_nonzero_and_nondecreasing_after_allocation() {
        let before = peak_rss_bytes().expect("procfs available on linux");
        assert!(before > 0, "VmHWM reported zero");
        // Touch 64 MiB so the high-water mark must move past any
        // plausible prior footprint of this small test binary.
        let mut big = vec![0u8; 64 << 20];
        for (i, b) in big.iter_mut().enumerate().step_by(4096) {
            *b = i as u8;
        }
        let after = peak_rss_bytes().expect("procfs available on linux");
        assert!(
            after >= before,
            "peak RSS decreased: {before} -> {after} bytes"
        );
        assert!(
            after >= 32 << 20,
            "peak RSS {after} bytes did not register a 64 MiB allocation"
        );
        // No post-free assertion: some sandboxed kernels report a
        // VmHWM that tracks the current RSS back down, so only the
        // while-allocated reading is portable.
    }
}
