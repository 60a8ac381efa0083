//! Small dense linear algebra used by the chain solvers.
//!
//! Chains in this workspace are exact constructions over at most a few
//! thousand states, so a dense row-major matrix with Gaussian
//! elimination (partial pivoting) is both simple and fast enough. No
//! external linear-algebra dependency is needed.

use std::fmt;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Errors produced by the linear solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The coefficient matrix is singular (or numerically so).
    Singular,
    /// Operand shapes do not match the operation.
    ShapeMismatch {
        /// What the operation expected, e.g. `"square matrix"`.
        expected: String,
        /// What was found, e.g. `"3x4"`.
        found: String,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Computes the vector-matrix product `v * self` (row vector times
    /// matrix), the natural operation for distributions over states.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length must equal row count");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (j, &pij) in self.row(i).iter().enumerate() {
                out[j] += vi * pij;
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

/// Solves the linear system `a · x = b` by Gaussian elimination with
/// partial pivoting, destroying neither operand.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] if `a` is not square or `b`
/// has the wrong length, and [`LinalgError::Singular`] if a pivot
/// smaller than `1e-12` in magnitude is encountered.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: "square matrix".into(),
            found: format!("{}x{}", a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: format!("rhs of length {n}"),
            found: format!("length {}", b.len()),
        });
    }

    // Augmented working copy.
    let mut m = a.clone();
    let mut rhs = b.to_vec();

    for col in 0..n {
        // Partial pivot: pick the largest magnitude entry in this column.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| {
                m[(r1, col)]
                    .abs()
                    .partial_cmp(&m[(r2, col)].abs())
                    .expect("matrix entries must not be NaN")
            })
            .expect("non-empty pivot range");
        if m[(pivot_row, col)].abs() < 1e-12 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            for j in 0..n {
                let tmp = m[(col, j)];
                m[(col, j)] = m[(pivot_row, j)];
                m[(pivot_row, j)] = tmp;
            }
            rhs.swap(col, pivot_row);
        }

        let pivot = m[(col, col)];
        for row in col + 1..n {
            let factor = m[(row, col)] / pivot;
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = m[(col, j)];
                m[(row, j)] -= factor * v;
            }
            rhs[row] -= factor * rhs[col];
        }
    }

    // Back substitution.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = rhs[col];
        for j in col + 1..n {
            acc -= m[(col, j)] * x[j];
        }
        x[col] = acc / m[(col, col)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for (k, &v) in data.iter().enumerate() {
            m[(k / cols, k % cols)] = v;
        }
        m
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = from_rows(3, 3, &[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let b = vec![1.0, -2.0, 3.5];
        let x = solve(&a, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solves_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let a = from_rows(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let b = vec![5.0, 10.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let b = vec![1.0, 2.0];
        assert_eq!(solve(&a, &b), Err(LinalgError::Singular));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            solve(&a, &[1.0, 2.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let sq = from_rows(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert!(matches!(
            solve(&sq, &[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading zero forces a row swap.
        let a = from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]);
        let b = vec![2.0, 3.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_of_exact_solution_is_tiny() {
        let a = from_rows(3, 3, &[4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0]);
        let b = vec![1.0, 2.0, 3.0];
        let x = solve(&a, &b).unwrap();
        for (i, bi) in b.iter().enumerate() {
            let ax: f64 = (0..3).map(|j| a[(i, j)] * x[j]).sum();
            assert!((ax - bi).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}
