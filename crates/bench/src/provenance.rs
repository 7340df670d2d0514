//! What produced a bench artifact: the commit, the SIMD tier the kernels
//! dispatched to, and the CPU they ran on — vendor, family and model as
//! `cpuid` reports them, a microarchitecture label looked up from family
//! and model, and how many CPUs the process could use — so two timing
//! files can be told apart without asking who ran them where.

use std::path::Path;
use std::process::Command;

/// The provenance record a bench artifact carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the checkout, with `-dirty` when tracked
    /// files differ from it; `"unknown"` outside a git checkout.
    pub git_sha: String,
    /// The `SPEC_SIMD` tier dispatched kernels ran at.
    pub simd_tier: &'static str,
    /// The CPU vendor string (`GenuineIntel`, `AuthenticAMD`, …), or
    /// `"unknown"` where `cpuid` does not exist.
    pub cpu_vendor: String,
    /// The display family (base family plus extended family).
    pub cpu_family: u32,
    /// The display model (extended model folded in where the vendor does).
    pub cpu_model: u32,
    /// The codename table's label for the three above, or `"unknown"`.
    pub microarch: &'static str,
    /// [`std::thread::available_parallelism`]: the CPUs the affinity mask
    /// and cgroup quota leave the process (1 if unknown). A split that
    /// hands half its work to `spec_parallel::join`'s helper can pay only
    /// where this is at least 2.
    pub cpus: usize,
}

impl Provenance {
    /// The running process's provenance, the commit read from the
    /// checkout at `repo_root`.
    pub fn current(repo_root: &Path) -> Self {
        let (cpu_vendor, cpu_family, cpu_model) = cpu_signature();
        let microarch = microarch(&cpu_vendor, cpu_family, cpu_model).unwrap_or("unknown");
        Self {
            git_sha: git_sha(repo_root).unwrap_or_else(|| "unknown".into()),
            simd_tier: spec_tensor::dispatch::active_tier().name(),
            cpu_vendor,
            cpu_family,
            cpu_model,
            microarch,
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_sha\": \"{}\", \"simd_tier\": \"{}\", \"cpu_vendor\": \"{}\", \"cpu_family\": {}, \"cpu_model\": {}, \"microarch\": \"{}\", \"cpus\": {}}}",
            self.git_sha, self.simd_tier, self.cpu_vendor, self.cpu_family, self.cpu_model, self.microarch, self.cpus
        )
    }
}

fn git_sha(repo_root: &Path) -> Option<String> {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(repo_root)
            .output()
            .ok()
            .filter(|out| out.status.success())
    };
    let head = git(&["rev-parse", "HEAD"])?;
    let sha = String::from_utf8(head.stdout).ok()?.trim().to_string();
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|out| !out.stdout.is_empty());
    Some(if dirty { format!("{sha}-dirty") } else { sha })
}

/// Vendor string, display family and display model from `cpuid` leaves 0
/// and 1.
#[cfg(target_arch = "x86_64")]
fn cpu_signature() -> (String, u32, u32) {
    use std::arch::x86_64::__cpuid;
    let (leaf0, leaf1) = (__cpuid(0), __cpuid(1));
    let vendor: Vec<u8> = [leaf0.ebx, leaf0.edx, leaf0.ecx]
        .iter()
        .flat_map(|r| r.to_le_bytes())
        .collect();
    let eax = leaf1.eax;
    let (base_family, base_model) = ((eax >> 8) & 0xF, (eax >> 4) & 0xF);
    let (ext_family, ext_model) = ((eax >> 20) & 0xFF, (eax >> 16) & 0xF);
    let vendor = String::from_utf8_lossy(&vendor).into_owned();
    let family = if base_family == 0xF {
        base_family + ext_family
    } else {
        base_family
    };
    // Intel folds the extended model in for families 6 and 15, AMD for
    // family 15 and up.
    let folds = base_family == 0xF || (base_family == 6 && vendor == "GenuineIntel");
    let model = if folds {
        (ext_model << 4) | base_model
    } else {
        base_model
    };
    (vendor, family, model)
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_signature() -> (String, u32, u32) {
    ("unknown".into(), 0, 0)
}

/// The microarchitecture of a CPU by vendor, display family and display
/// model, for the server and desktop parts a bench is likely to meet;
/// `None` for a part not listed.
fn microarch(vendor: &str, family: u32, model: u32) -> Option<&'static str> {
    match (vendor, family) {
        ("GenuineIntel", 6) => intel_fam06h(model),
        ("AuthenticAMD", 0x17) => Some(match model {
            0x00..=0x2F => "Zen/Zen+",
            0x30..=0x7F => "Zen 2",
            _ => return None,
        }),
        ("AuthenticAMD", 0x19) => Some(match model {
            0x00..=0x0F | 0x20..=0x5F => "Zen 3",
            0x10..=0x1F | 0x60..=0x7F | 0xA0..=0xAF => "Zen 4",
            _ => return None,
        }),
        ("AuthenticAMD", 0x1A) => Some("Zen 5"),
        _ => None,
    }
}

fn intel_fam06h(model: u32) -> Option<&'static str> {
    Some(match model {
        0x3C | 0x3F | 0x45 | 0x46 => "Haswell",
        0x3D | 0x47 | 0x4F | 0x56 => "Broadwell",
        0x4E | 0x5E => "Skylake",
        0x55 => "Skylake-SP/Cascade Lake",
        0x8E | 0x9E => "Kaby Lake/Coffee Lake",
        0x6A | 0x6C => "Ice Lake-SP",
        0x7D | 0x7E => "Ice Lake",
        0x8C | 0x8D => "Tiger Lake",
        0x97 | 0x9A => "Alder Lake",
        0xB7 | 0xBA | 0xBF => "Raptor Lake",
        0x8F => "Sapphire Rapids",
        0xCF => "Emerald Rapids",
        0xAD | 0xAE => "Granite Rapids",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codename_table_reads_family_and_model() {
        assert_eq!(microarch("GenuineIntel", 6, 143), Some("Sapphire Rapids"));
        assert_eq!(
            microarch("GenuineIntel", 6, 0x55),
            Some("Skylake-SP/Cascade Lake")
        );
        assert_eq!(microarch("AuthenticAMD", 0x19, 0x11), Some("Zen 4"));
        assert_eq!(microarch("AuthenticAMD", 0x17, 0x31), Some("Zen 2"));
        assert_eq!(microarch("GenuineIntel", 6, 0x01), None);
        assert_eq!(microarch("unknown", 0, 0), None);
    }

    #[test]
    fn the_record_is_json_with_every_field() {
        let p = Provenance::current(Path::new(env!("CARGO_MANIFEST_DIR")));
        let doc: serde::Value = serde_json::from_str(&p.to_json()).expect("valid JSON");
        for key in [
            "git_sha",
            "simd_tier",
            "cpu_vendor",
            "cpu_family",
            "cpu_model",
            "microarch",
            "cpus",
        ] {
            assert!(doc.get_field(key).is_ok(), "missing {key}");
        }
        assert!(!p.git_sha.is_empty());
        assert!(p.cpus >= 1);
    }
}
