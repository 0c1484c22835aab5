// Package eigen implements dense eigenvalue computation for the matrices
// FIX derives from twig patterns. The paper (§3.3) computes the spectrum
// of an anti-symmetric (skew-symmetric) matrix M through the Hermitian
// matrix iM; its eigenvalues are pure imaginary and come in ±iσ pairs. We
// obtain the magnitudes σ as the singular values of M, i.e. the square
// roots of the eigenvalues of the symmetric positive-semidefinite matrix
// MᵀM, which needs only a real symmetric eigensolver and is numerically
// robust.
//
// Every solver in the package is a pure function over its arguments (the
// iterative paths use deterministic seeded start vectors, no global
// state), so all of them are safe to call from concurrent goroutines;
// the parallel index build relies on this.
//
// The symmetric solver is the classic Householder tridiagonalization
// followed by the implicit-shift QL iteration (Numerical Recipes, the
// paper's reference [22]); a Jacobi rotation solver is provided as an
// independent cross-check used by the tests.
package eigen

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoConvergence is returned when the QL iteration fails to converge,
// which for well-formed symmetric input practically never happens.
var ErrNoConvergence = errors.New("eigen: QL iteration did not converge")

// SymEigenvalues returns the eigenvalues of the dense symmetric matrix a
// in ascending order. The input is not modified. It returns an error if a
// is not square or the iteration fails to converge.
func SymEigenvalues(a [][]float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, nil
	}
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("eigen: row %d has %d columns, want %d", i, len(a[i]), n)
		}
	}
	// Work on a copy; tridiagonalization destroys its input.
	w := make([][]float64, n)
	flat := make([]float64, n*n)
	for i := range w {
		w[i] = flat[i*n : (i+1)*n]
		copy(w[i], a[i])
	}
	d := make([]float64, n)
	e := make([]float64, n)
	tridiagonalize(w, d, e)
	if err := qlImplicit(d, e); err != nil {
		return nil, err
	}
	sort.Float64s(d)
	return d, nil
}

// tridiagonalize reduces the symmetric matrix a (destroyed) to tridiagonal
// form with diagonal d and subdiagonal e (e[0] unused), using Householder
// reflections. Eigenvectors are not accumulated.
func tridiagonalize(a [][]float64, d, e []float64) {
	n := len(a)
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		h, scale := 0.0, 0.0
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a[i][k])
			}
			if scale == 0 {
				e[i] = a[i][l]
			} else {
				for k := 0; k <= l; k++ {
					a[i][k] /= scale
					h += a[i][k] * a[i][k]
				}
				f := a[i][l]
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= f * g
				a[i][l] = f - g
				f = 0
				for j := 0; j <= l; j++ {
					g = 0
					for k := 0; k <= j; k++ {
						g += a[j][k] * a[i][k]
					}
					for k := j + 1; k <= l; k++ {
						g += a[k][j] * a[i][k]
					}
					e[j] = g / h
					f += e[j] * a[i][j]
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a[i][j]
					g = e[j] - hh*f
					e[j] = g
					for k := 0; k <= j; k++ {
						a[j][k] -= f*e[k] + g*a[i][k]
					}
				}
			}
		} else {
			e[i] = a[i][l]
		}
	}
	e[0] = 0
	for i := 0; i < n; i++ {
		d[i] = a[i][i]
	}
}

// qlImplicit runs the implicit-shift QL iteration on a tridiagonal matrix
// given by diagonal d and subdiagonal e (e[0] unused on input). On return
// d holds the eigenvalues in arbitrary order.
func qlImplicit(d, e []float64) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		iter := 0
		for {
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= machEps*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter++; iter > 64 {
				return ErrNoConvergence
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			underflow := false
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := c * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					// Recover from underflow by deflating.
					d[i+1] -= p
					e[m] = 0
					underflow = true
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if underflow {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

const machEps = 2.220446049250313e-16
