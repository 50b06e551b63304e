//! MIC binaries and their dependency closures.
//!
//! micnativeloadex ships not just the executable but every `.so` in its
//! MIC-side dependency closure — for an MKL dgemm that is >100 MB, and
//! that bulk is what makes the launch phase sensitive to transport
//! throughput (Figs. 6–8).

use crate::workload::Workload;

/// One shared library shipped with a binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Library {
    pub name: &'static str,
    pub bytes: u64,
}

/// A k1om (MIC) executable.
#[derive(Debug, Clone, PartialEq)]
pub struct MicBinary {
    pub name: String,
    pub image_bytes: u64,
    pub libraries: Vec<Library>,
    pub workload: Workload,
}

/// The MIC-side MKL closure an MKL-linked sample drags in (sizes match
/// the MPSS 3.x `lib/mic` shipment to the order the model cares about).
fn mkl_closure() -> Vec<Library> {
    vec![
        Library { name: "libmkl_core.so", bytes: 59 << 20 },
        Library { name: "libmkl_intel_lp64.so", bytes: 28 << 20 },
        Library { name: "libmkl_intel_thread.so", bytes: 43 << 20 },
        Library { name: "libiomp5.so", bytes: 2 << 20 },
        Library { name: "libimf.so", bytes: 3 << 20 },
        Library { name: "libsvml.so", bytes: 5 << 20 },
        Library { name: "libintlc.so.5", bytes: 1 << 20 },
    ]
}

/// A minimal runtime closure (no MKL).
fn minimal_closure() -> Vec<Library> {
    vec![
        Library { name: "libiomp5.so", bytes: 2 << 20 },
        Library { name: "libimf.so", bytes: 3 << 20 },
    ]
}

impl MicBinary {
    /// The paper's application binary: the MKL `cblas_dgemm` sample.
    pub fn dgemm_sample(n: u64) -> Self {
        MicBinary {
            name: "dgemm_mic".to_string(),
            image_bytes: 1 << 20,
            libraries: mkl_closure(),
            workload: Workload::Dgemm { n },
        }
    }

    /// A STREAM binary (minimal closure).
    pub fn stream(elems: u64, iters: u64) -> Self {
        MicBinary {
            name: "stream_mic".to_string(),
            image_bytes: 256 << 10,
            libraries: minimal_closure(),
            workload: Workload::Stream { elems, iters },
        }
    }

    /// An n-body binary (minimal closure).
    pub fn nbody(bodies: u64, steps: u64) -> Self {
        MicBinary {
            name: "nbody_mic".to_string(),
            image_bytes: 512 << 10,
            libraries: minimal_closure(),
            workload: Workload::NBody { bodies, steps },
        }
    }

    /// Bytes of shipped libraries.
    pub fn lib_bytes(&self) -> u64 {
        self.libraries.iter().map(|l| l.bytes).sum()
    }

    /// Total shipped bytes (image + closure).
    pub fn total_transfer_bytes(&self) -> u64 {
        self.image_bytes + self.lib_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkl_closure_is_realistically_heavy() {
        let b = MicBinary::dgemm_sample(4096);
        // The MKL closure dominates: well north of 100 MB.
        assert!(b.lib_bytes() > 100 << 20, "lib closure = {} bytes", b.lib_bytes());
        assert!(b.total_transfer_bytes() > b.image_bytes);
        assert_eq!(b.workload, Workload::Dgemm { n: 4096 });
    }

    #[test]
    fn minimal_closure_is_light() {
        let b = MicBinary::stream(1 << 20, 10);
        assert!(b.lib_bytes() < 10 << 20);
        assert_eq!(b.name, "stream_mic");
    }

    #[test]
    fn closures_name_their_libraries() {
        let names: Vec<&str> = mkl_closure().iter().map(|l| l.name).collect();
        assert!(names.contains(&"libmkl_core.so"));
        assert!(names.contains(&"libiomp5.so"));
    }
}
