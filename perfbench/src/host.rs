//! The host block every artifact carries: CPU model, physical and
//! logical cores, compiler, build profile and source commit.

use std::collections::BTreeSet;
use std::process::Command;

/// Where and how the numbers were measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Distinct (package, core) pairs.
    pub physical_cores: usize,
    /// Logical CPUs available to this process.
    pub logical_cores: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile plus the settings the benchmark's manifest pins.
    pub profile: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Reads the host block.
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |line: &str| line.split_once(':').map(|(_, v)| v.trim().to_string());
        let cpu = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(field)
            .unwrap_or_else(|| "unknown".to_string());
        let mut cores = BTreeSet::new();
        let mut package = String::new();
        for line in cpuinfo.lines() {
            if line.starts_with("physical id") {
                package = field(line).unwrap_or_default();
            } else if line.starts_with("core id") {
                cores.insert((package.clone(), field(line).unwrap_or_default()));
            }
        }
        let logical_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Self {
            cpu,
            physical_cores: if cores.is_empty() {
                logical_cores
            } else {
                cores.len()
            },
            logical_cores,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: format!(
                "{} (lto = true, codegen-units = 1)",
                env!("PERFBENCH_PROFILE")
            ),
            commit,
        }
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":{},\"physical_cores\":{},\"logical_cores\":{},\"rustc\":{},\"profile\":{},\"commit\":{}}}",
            json_str(&self.cpu),
            self.physical_cores,
            self.logical_cores,
            json_str(self.rustc),
            json_str(&self.profile),
            json_str(&self.commit)
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
