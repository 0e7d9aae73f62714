//! What the benchmark reads from the operating system: process CPU time
//! and peak memory, the machine fingerprint, the environment knobs it
//! clears, and the scratch directory its run files live in.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Environment knobs that steer the program under test. Cleared before
/// anything starts, so the benchmark measures the shipping defaults.
pub const ENV_KNOBS: [&str; 4] = [
    "ACCELVIZ_SERVE_BACKEND",
    "ACCELVIZ_TRACE",
    "ACCELVIZ_LOD_BUDGET",
    "RAYON_NUM_THREADS",
];

/// Clears [`ENV_KNOBS`]; returns the ones that had been set. Must run
/// before any thread is spawned.
pub fn clear_env_knobs() -> Vec<&'static str> {
    let set: Vec<&str> = ENV_KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    for k in ENV_KNOBS {
        std::env::remove_var(k);
    }
    set
}

/// Kernel clock ticks per second of the `utime`/`stime` fields — `USER_HZ`,
/// fixed at 100 on Linux whatever the kernel's own tick rate.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used, from
/// `/proc/self/stat`. `None` off Linux.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, after which `state` is field 3.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set of this process in MiB (`VmHWM`). `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Threads the machine runs at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine and build a result set was measured on, as JSON object
/// members (without the braces). Unknown items read `"unknown"`.
pub fn fingerprint_json(seed: u64, reps: usize, seconds: f64) -> String {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| unknown());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(unknown);
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"rustc\": {}, \"commit\": {}, \
         \"profile\": \"{profile}\", \"seed\": {seed}, \"reps\": {reps}, \"seconds\": {seconds}",
        nproc(),
        crate::json::string(&cpu),
        crate::json::string(&kernel),
        crate::json::string(&rustc),
        crate::json::string(&commit),
    )
}

/// A unique directory for the run files a workload writes, removed when
/// dropped. It sits beside the executable — inside the build directory,
/// so a run reads and writes nothing outside the tree it was built in.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<exe dir>/pipeline-scratch-<pid>`, falling back to the
    /// system temporary directory when the executable's own is read-only.
    pub fn create() -> std::io::Result<Scratch> {
        let name = format!("pipeline-scratch-{}", std::process::id());
        let beside_exe = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join(&name)));
        if let Some(dir) = beside_exe {
            if std::fs::create_dir_all(&dir).is_ok() {
                return Ok(Scratch(dir));
            }
        }
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_rss_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_seconds().expect("stat parses") >= 0.0);
            assert!(peak_rss_mib().expect("status parses") > 0.0);
        }
    }

    #[test]
    fn scratch_is_unique_and_removed() {
        let dir = {
            let s = Scratch::create().expect("scratch");
            assert!(s.path().is_dir());
            s.path().to_path_buf()
        };
        assert!(!dir.exists());
    }
}
