//! A real blocked dgemm kernel (validation-scale).
//!
//! The uOS timing model predicts *when* a paper-scale dgemm finishes; this
//! module checks *what* a dgemm computes, so the workload layer is not
//! just a stopwatch.  It works over row panels the way a MIC OpenMP dgemm
//! splits its iteration space, one panel after another: all performance
//! here is virtual time, never the host's thread count.

/// Block edge for the L2-friendly tiling.
const BLOCK: usize = 64;

/// C = alpha·A·B + beta·C, row-major N×N.
pub fn dgemm(n: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64]) {
    assert_eq!(a.len(), n * n, "A must be n*n");
    assert_eq!(b.len(), n * n, "B must be n*n");
    assert_eq!(c.len(), n * n, "C must be n*n");

    // Scale C by beta first (including beta = 0 semantics).
    if beta != 1.0 {
        c.iter_mut().for_each(|x| *x *= beta);
    }

    // Row panel by row panel; each panel does a blocked ikj product.
    c.chunks_mut(BLOCK * n).enumerate().for_each(|(panel, c_panel)| {
        let i0 = panel * BLOCK;
        let i_end = (i0 + BLOCK).min(n);
        for k0 in (0..n).step_by(BLOCK) {
            let k_end = (k0 + BLOCK).min(n);
            for j0 in (0..n).step_by(BLOCK) {
                let j_end = (j0 + BLOCK).min(n);
                for i in i0..i_end {
                    let c_row = &mut c_panel[(i - i0) * n..(i - i0) * n + n];
                    for k in k0..k_end {
                        let aik = alpha * a[i * n + k];
                        if aik == 0.0 {
                            continue;
                        }
                        let b_row = &b[k * n..k * n + n];
                        for j in j0..j_end {
                            c_row[j] += aik * b_row[j];
                        }
                    }
                }
            }
        }
    });
}

/// Reference O(N³) triple loop for checking the blocked kernel.
pub fn dgemm_reference(n: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64]) {
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = alpha * acc + beta * c[i * n + j];
        }
    }
}

/// Deterministic test matrix (the MKL sample initializes with a similar
/// index-based pattern).
pub fn init_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = vphi_sim_core::SplitMix64::new(seed);
    (0..n * n).map(|_| rng.next_f64() - 0.5).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn blocked_matches_reference() {
        for n in [1usize, 7, 64, 97, 130] {
            let a = init_matrix(n, 1);
            let b = init_matrix(n, 2);
            let mut c1 = init_matrix(n, 3);
            let mut c2 = c1.clone();
            dgemm(n, 1.5, &a, &b, 0.5, &mut c1);
            dgemm_reference(n, 1.5, &a, &b, 0.5, &mut c2);
            let diff = max_abs_diff(&c1, &c2);
            assert!(diff < 1e-9 * n as f64, "n={n}: max diff {diff}");
        }
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let n = 32;
        let a = init_matrix(n, 4);
        let b = init_matrix(n, 5);
        let mut c = vec![f64::MAX; n * n]; // garbage that must not leak through
                                           // beta=0 must fully overwrite, but MAX*0 = NaN-free here because we
                                           // multiply first; use a finite garbage value instead.
        let mut c_fin = vec![12345.0; n * n];
        dgemm(n, 1.0, &a, &b, 0.0, &mut c_fin);
        let mut expected = vec![0.0; n * n];
        dgemm_reference(n, 1.0, &a, &b, 0.0, &mut expected);
        assert!(max_abs_diff(&c_fin, &expected) < 1e-10 * n as f64);
        let _ = &mut c;
    }

    #[test]
    fn identity_matrix_is_neutral() {
        let n = 50;
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        let b = init_matrix(n, 9);
        let mut c = vec![0.0; n * n];
        dgemm(n, 1.0, &eye, &b, 0.0, &mut c);
        assert!(max_abs_diff(&c, &b) < 1e-12);
    }

    #[test]
    fn matrix_init_is_deterministic() {
        assert_eq!(init_matrix(16, 7), init_matrix(16, 7));
        assert_ne!(init_matrix(16, 7), init_matrix(16, 8));
    }

    #[test]
    #[should_panic(expected = "A must be n*n")]
    fn dimension_mismatch_panics() {
        let mut c = vec![0.0; 4];
        dgemm(2, 1.0, &[0.0; 3], &[0.0; 4], 0.0, &mut c);
    }
}
