//! What the harness reads about the machine it runs on: process CPU time
//! and peak memory from `/proc`, and the host fingerprint every result
//! carries.

use plssvm_core::simd::{Isa, FORCE_ISA_ENV};
use plssvm_core::trace::json_str;

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks of
/// `sysconf(_SC_CLK_TCK)`, which is 100 on every mainstream architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds consumed so far by every thread of this
/// process (`/proc/self/stat` fields 14 and 15; 10 ms resolution).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name in field 2 may contain spaces: split after its ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so fields 14/15 are indices 11/12
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process for
/// `None`, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident size, so a later
/// [`peak_rss_mib`] measures only what happens after this call.
///
/// glibc raises its mmap threshold each time a large mapped buffer is
/// freed, after which large buffers come from (and stay in) the heap; in a
/// process that has already trained a few models, whether a buffer of the
/// measured call counts as new memory then depends on that history. The
/// first call therefore pins the threshold at glibc's initial 128 KiB,
/// where a freshly started `svm-train` allocates its large buffers, and
/// every call returns freed heap memory to the system before the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
        static PIN_THRESHOLD: std::sync::Once = std::sync::Once::new();
        PIN_THRESHOLD.call_once(|| {
            // SAFETY: mallopt takes no pointers, has no preconditions and
            // is thread-safe; it only changes when the allocator maps.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 128 * 1024);
            }
        });
        // SAFETY: malloc_trim takes no pointers, has no preconditions and
        // is thread-safe; it only releases memory the allocator holds free.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn cache_size_kib(level: u32) -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let is_level = read("level").is_some_and(|l| l.trim() == level.to_string());
        let is_data = read("type").is_some_and(|t| t.trim() != "Instruction");
        if is_level && is_data {
            let size = read("size")?;
            let size = size.trim();
            return match size.strip_suffix('K') {
                Some(k) => k.parse().ok(),
                None => size
                    .strip_suffix('M')
                    .and_then(|m| m.parse::<u64>().ok())
                    .map(|m| m * 1024),
            };
        }
    }
    None
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

/// The commit the harness runs on: `git rev-parse HEAD` when the working
/// directory is a git checkout, `unknown` otherwise (a plain source
/// export has no history to ask).
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint as a JSON object: CPU model, core count, cache
/// sizes, worker threads, the dispatched SIMD tier and how it was chosen,
/// the compile-time target features, the build profile, seed and commit.
pub fn fingerprint_json(seed: u64) -> String {
    let (isa, forced) = Isa::select_with_provenance();
    let opt_str = |v: Option<String>| v.map_or("null".to_owned(), |s| json_str(&s));
    let opt_num = |v: Option<u64>| v.map_or("null".to_owned(), |n| n.to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let fields = [
        ("cpu_model", opt_str(cpu_model())),
        ("nproc", nproc.to_string()),
        ("l2_kib", opt_num(cache_size_kib(2))),
        ("l3_kib", opt_num(cache_size_kib(3))),
        ("rayon_threads", rayon::current_num_threads().to_string()),
        ("isa", json_str(isa.name())),
        ("isa_forced", forced.to_string()),
        (
            "plssvm_force_isa",
            opt_str(std::env::var(FORCE_ISA_ENV).ok()),
        ),
        (
            "target_feature_fma",
            cfg!(target_feature = "fma").to_string(),
        ),
        (
            "target_feature_avx2",
            cfg!(target_feature = "avx2").to_string(),
        ),
        (
            "target_feature_avx512f",
            cfg!(target_feature = "avx512f").to_string(),
        ),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", seed.to_string()),
        ("git_rev", json_str(&git_rev())),
    ];
    let body = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let cpu = process_cpu_s().expect("/proc/self/stat");
        assert!(cpu >= 0.0);
        assert!(reset_peak_rss());
        let rss = peak_rss_mib(None).expect("VmHWM");
        assert!(rss > 0.0);
        let own = peak_rss_mib(Some(std::process::id())).expect("VmHWM by pid");
        assert!(own > 0.0);
    }

    #[test]
    fn fingerprint_names_every_field() {
        let fp = fingerprint_json(7);
        for key in [
            "cpu_model",
            "nproc",
            "l2_kib",
            "l3_kib",
            "rayon_threads",
            "isa",
            "isa_forced",
            "plssvm_force_isa",
            "target_feature_fma",
            "target_feature_avx2",
            "target_feature_avx512f",
            "profile",
            "\"seed\": 7",
            "git_rev",
        ] {
            assert!(fp.contains(key), "{key} missing from {fp}");
        }
    }
}
