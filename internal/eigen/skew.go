package eigen

import (
	"fmt"
	"math"
)

// SkewSpectrum returns the magnitudes σ of the eigenvalues {±iσ} of the
// skew-symmetric matrix m, sorted descending. The input must satisfy
// m[i][j] == -m[j][i]; this is checked and an error is returned otherwise.
//
// The magnitudes are computed as the square roots of the eigenvalues of
// the symmetric positive-semidefinite matrix MᵀM. Tiny negative rounding
// residues are clamped to zero.
func SkewSpectrum(m [][]float64) ([]float64, error) {
	n := len(m)
	if n == 0 {
		return nil, nil
	}
	for i := range m {
		if len(m[i]) != n {
			return nil, fmt.Errorf("eigen: row %d has %d columns, want %d", i, len(m[i]), n)
		}
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if m[i][j] != -m[j][i] {
				return nil, fmt.Errorf("eigen: matrix is not skew-symmetric at (%d,%d)", i, j)
			}
		}
	}
	// S = MᵀM is symmetric PSD; its eigenvalues are σ².
	s := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range s {
		s[i] = flat[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += m[k][i] * m[k][j]
			}
			s[i][j] = sum
			s[j][i] = sum
		}
	}
	vals, err := SymEigenvalues(s)
	if err != nil {
		return nil, err
	}
	// vals ascending; convert to descending σ.
	out := make([]float64, n)
	for i, v := range vals {
		if v < 0 {
			v = 0
		}
		out[n-1-i] = math.Sqrt(v)
	}
	return out, nil
}

// SkewMax returns σmax of the skew-symmetric matrix m, the FIX key: the
// spectrum is {±iσ}, so the paper's indexed range (λmin, λmax), taken as
// real magnitudes under its |λ| convention (§3.3), is (−σmax, σmax). An
// empty matrix has σmax 0.
func SkewMax(m [][]float64) (float64, error) {
	sigma, err := SkewSpectrum(m)
	if err != nil || len(sigma) == 0 {
		return 0, err
	}
	return sigma[0], nil
}
