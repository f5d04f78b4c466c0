package lp

import "math"

// luFactor holds the basis matrix B (column j: the column of the variable
// basic at position j) as B = B₀·E₁⋯E_k: sparse LU factors of B₀, the basis
// at the last refactorization, and a product-form eta file, one E per pivot
// since.
//
// The factors are the pivot sequence of a Gaussian elimination of B₀: pivot
// k eliminated row prow[k] with position pcol[k] and pivot entry piv[k]; L
// column k holds the multipliers of the rows it eliminated, U row k the rest
// of the pivot row (entries at positions pivoted later). Column singletons
// go first, row singletons next — TE bases are mostly logicals and short
// tunnel columns, and neither pass fills in — then a threshold-pivoted
// Markowitz elimination of the dense nucleus left over.
type luFactor struct {
	m          int
	prow, pcol []int32
	piv        []float64
	lPtr, uPtr []int32
	lIdx, uIdx []int32 // rows in L, positions in U
	lVal, uVal []float64

	// Eta e replaced position etaPos[e] with a column whose ftran through the
	// factors before it was w: w's entry there is etaPiv[e], the rest is
	// etaW[e·m:(e+1)·m] (zero at etaPos[e]) with its nonzeros listed in
	// etaIdx[etaPtr[e]:etaPtr[e+1]]; btran walks those or its own pattern.
	etaPos         []int32
	etaPiv, etaW   []float64
	etaPtr, etaIdx []int32

	// Workspace kept across calls: B by columns and by rows, line counts, a
	// queue, the nucleus (dense, its rows nr and positions nc), and btran's
	// pattern S of c, marked in done.
	cPtr, cIdx, rPtr, rIdx, cnt, queue, loc, nr, nc, S []int32
	cVal, rVal, nuc                                    []float64
	done                                               []bool
}

// factorize computes the LU factors of the basis and empties the eta file.
// On ErrSingularBasis the factors are incomplete and must not be used.
func (f *luFactor) factorize(basis []int, n int, colPtr []int, colIdx []int32, colVal []float64) error {
	m := len(basis)
	f.m, f.prow, f.pcol, f.piv = m, f.prow[:0], f.pcol[:0], f.piv[:0]
	f.lPtr, f.lIdx, f.lVal = append(f.lPtr[:0], 0), f.lIdx[:0], f.lVal[:0]
	f.uPtr, f.uIdx, f.uVal = append(f.uPtr[:0], 0), f.uIdx[:0], f.uVal[:0]
	f.etaPos, f.etaPiv, f.etaW = f.etaPos[:0], f.etaPiv[:0], f.etaW[:0]
	f.etaPtr, f.etaIdx = append(f.etaPtr[:0], 0), f.etaIdx[:0]

	// B by columns, exact zeros dropped, then by rows.
	f.cPtr, f.cIdx, f.cVal = append(f.cPtr[:0], 0), f.cIdx[:0], f.cVal[:0]
	f.rPtr, f.cnt = resize(f.rPtr, m+1), resize(f.cnt, m)
	clear(f.rPtr)
	for _, v := range basis {
		if v >= n {
			f.cIdx, f.cVal = append(f.cIdx, int32(v-n)), append(f.cVal, -1)
		} else {
			for k := colPtr[v]; k < colPtr[v+1]; k++ {
				if colVal[k] != 0 {
					f.cIdx, f.cVal = append(f.cIdx, colIdx[k]), append(f.cVal, colVal[k])
				}
			}
		}
		f.cPtr = append(f.cPtr, int32(len(f.cIdx)))
	}
	for _, i := range f.cIdx {
		f.rPtr[i+1]++
	}
	for i := 0; i < m; i++ {
		f.rPtr[i+1] += f.rPtr[i]
	}
	copy(f.cnt, f.rPtr) // next free slot per row
	f.rIdx, f.rVal = resize(f.rIdx, len(f.cIdx)), resize(f.rVal, len(f.cIdx))
	for j := 0; j < m; j++ {
		for k := f.cPtr[j]; k < f.cPtr[j+1]; k++ {
			i := f.cIdx[k]
			f.rIdx[f.cnt[i]], f.rVal[f.cnt[i]] = int32(j), f.cVal[k]
			f.cnt[i]++
		}
	}
	f.done = resize(f.done, 2*m)
	clear(f.done)
	if err := f.singletons(true); err != nil {
		return err
	}
	if err := f.singletons(false); err != nil {
		return err
	}
	return f.nucleus(f.done[:m], f.done[m:])
}

// singletons pivots on active columns (byCol) or rows with one active entry
// until none is left. A column singleton's pivot row becomes its U row
// whole, a row singleton's pivot column its L column: neither fills in.
func (f *luFactor) singletons(byCol bool) error {
	m := f.m
	ptr, idx, val, xptr, xidx, xval := f.rPtr, f.rIdx, f.rVal, f.cPtr, f.cIdx, f.cVal
	done, xdone := f.done[:m], f.done[m:]
	if byCol {
		ptr, idx, val, xptr, xidx, xval = xptr, xidx, xval, ptr, idx, val
		done, xdone = xdone, done
	}
	f.queue = f.queue[:0]
	for j := 0; j < m; j++ {
		f.cnt[j] = 0
		for k := ptr[j]; k < ptr[j+1] && !done[j]; k++ {
			f.cnt[j] += b2i(!xdone[idx[k]])
		}
		if !done[j] && f.cnt[j] <= 1 {
			f.queue = append(f.queue, int32(j))
		}
	}
	for len(f.queue) > 0 {
		j := f.queue[len(f.queue)-1]
		f.queue = f.queue[:len(f.queue)-1]
		i, pv := int32(-1), 0.0
		for k := ptr[j]; k < ptr[j+1]; k++ {
			if !xdone[idx[k]] {
				i, pv = idx[k], val[k]
			}
		}
		if math.Abs(pv) < singularTol { // an emptied line too: pv = 0
			return ErrSingularBasis
		}
		done[j], xdone[i] = true, true
		for k := xptr[i]; k < xptr[i+1]; k++ {
			if p := xidx[k]; !done[p] {
				if byCol {
					f.uIdx, f.uVal = append(f.uIdx, p), append(f.uVal, xval[k])
				} else {
					f.lIdx, f.lVal = append(f.lIdx, p), append(f.lVal, xval[k]/pv)
				}
				if f.cnt[p]--; f.cnt[p] == 1 {
					f.queue = append(f.queue, p)
				}
			}
		}
		if byCol {
			i, j = j, i
		}
		f.endPivot(j, i, pv)
	}
	return nil
}

// nucleus eliminates what the singleton passes left — lines of two or more
// entries, still holding B's own values — as a dense matrix: each step takes
// the active column with the fewest nonzeros and, among its entries within
// stabilityTol of the largest, the row with the fewest.
func (f *luFactor) nucleus(rowDone, colDone []bool) error {
	k := f.m - len(f.prow)
	f.nr, f.nc, f.loc = f.nr[:0], f.nc[:0], resize(f.loc, f.m)
	for i, d := range rowDone {
		if !d {
			f.loc[i], f.nr = int32(len(f.nr)), append(f.nr, int32(i))
		}
	}
	f.nuc, f.cnt, f.queue = resize(f.nuc, k*k), resize(f.cnt, 2*k), resize(f.queue, 2*k)
	a, rn, cn := f.nuc[:k*k], f.cnt[:k], f.cnt[k:] // rn, cn: nonzeros per row, column
	clear(a)
	clear(f.cnt)
	for j, d := range colDone {
		for e := f.cPtr[j]; e < f.cPtr[j+1] && !d; e++ {
			if i := f.cIdx[e]; !rowDone[i] {
				a[int(f.loc[i])*k+len(f.nc)] = f.cVal[e]
				rn[f.loc[i]]++
				cn[len(f.nc)]++
			}
		}
		if !d {
			f.nc = append(f.nc, int32(j))
		}
	}
	// rows and cols list the active local lines; us the pivot row's nonzeros.
	rows, cols, us := f.queue[:k], f.queue[k:], f.loc[:0]
	for i := range rows {
		rows[i], cols[i] = int32(i), int32(i)
	}
	for len(cols) > 0 {
		c, big, p := 0, 0.0, -1
		for x, lj := range cols {
			if cn[lj] < cn[cols[c]] {
				c = x
			}
		}
		lc := int(cols[c])
		for _, li := range rows {
			big = math.Max(big, math.Abs(a[int(li)*k+lc]))
		}
		if big < singularTol {
			return ErrSingularBasis
		}
		for x, li := range rows {
			if math.Abs(a[int(li)*k+lc]) >= stabilityTol*big && (p < 0 || rn[li] < rn[rows[p]]) {
				p = x
			}
		}
		lp := rows[p]
		prow := a[int(lp)*k : int(lp)*k+k]
		pv := prow[lc]
		cols[c], cols, rows[p], rows = cols[len(cols)-1], cols[:len(cols)-1], rows[len(rows)-1], rows[:len(rows)-1]
		us = us[:0]
		for _, lj := range cols {
			if u := prow[lj]; u != 0 {
				f.uIdx, f.uVal, us = append(f.uIdx, f.nc[lj]), append(f.uVal, u), append(us, lj)
				cn[lj]--
			}
		}
		for _, li := range rows {
			if row := a[int(li)*k : int(li)*k+k]; row[lc] != 0 {
				l := row[lc] / pv
				f.lIdx, f.lVal = append(f.lIdx, f.nr[li]), append(f.lVal, l)
				rn[li]--
				for _, lj := range us {
					old := row[lj]
					row[lj] -= l * prow[lj]
					d := b2i(row[lj] != 0) - b2i(old != 0) // fill-in or cancellation
					rn[li], cn[lj] = rn[li]+d, cn[lj]+d
				}
			}
		}
		f.endPivot(f.nr[lp], f.nc[lc], pv)
	}
	return nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// resize returns s with length n, reusing its storage when it is big enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// endPivot closes a pivot on row r, position j and entry pv over the L and
// U entries appended since the one before.
func (f *luFactor) endPivot(r, j int32, pv float64) {
	f.prow, f.pcol, f.piv = append(f.prow, r), append(f.pcol, j), append(f.piv, pv)
	f.lPtr, f.uPtr = append(f.lPtr, int32(len(f.lIdx))), append(f.uPtr, int32(len(f.uIdx)))
}

// push appends the eta of a pivot at position r whose entering column has
// ftran w; the first one sizes the file for etas.
func (f *luFactor) push(r int, w []float64, etas int) {
	if len(f.etaW) == 0 && cap(f.etaW) < f.m*etas {
		f.etaW = make([]float64, 0, f.m*etas)
	}
	f.etaPos, f.etaPiv, f.etaW = append(f.etaPos, int32(r)), append(f.etaPiv, w[r]), append(f.etaW, w...)
	f.etaW[len(f.etaW)-f.m+r] = 0
	for i, x := range w {
		if x != 0 && i != r {
			f.etaIdx = append(f.etaIdx, int32(i))
		}
	}
	f.etaPtr = append(f.etaPtr, int32(len(f.etaIdx)))
}

// ftran solves B·x = a: a is indexed by row and left zero, x by position.
func (f *luFactor) ftran(a, x []float64) {
	for k, r := range f.prow {
		for e := f.lPtr[k]; e < f.lPtr[k+1] && a[r] != 0; e++ {
			a[f.lIdx[e]] -= f.lVal[e] * a[r]
		}
	}
	for k := len(f.prow) - 1; k >= 0; k-- {
		r := f.prow[k]
		t := a[r]
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			t -= f.uVal[e] * x[f.uIdx[e]]
		}
		if a[r] = 0; t != 0 {
			t /= f.piv[k]
		}
		x[f.pcol[k]] = t
	}
	for e, p := range f.etaPos {
		if x[p] != 0 {
			t := x[p] / f.etaPiv[e]
			x[p] = t
			w := f.etaW[e*f.m : (e+1)*f.m]
			for _, i := range f.etaIdx[f.etaPtr[e]:f.etaPtr[e+1]] {
				x[i] -= w[i] * t
			}
		}
	}
}

// btran solves yᵀ·B = cᵀ: c is indexed by position and left zero, y by row.
// Through the eta file it tracks the pattern of c, which on the right-hand
// sides updateD gathers starts at a few positions and grows by at most one
// per eta.
func (f *luFactor) btran(c, y []float64) {
	f.done, f.S = resize(f.done, f.m), f.S[:0]
	for i, x := range c {
		if f.done[i] = x != 0; x != 0 {
			f.S = append(f.S, int32(i))
		}
	}
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		p, idx := f.etaPos[e], f.etaIdx[f.etaPtr[e]:f.etaPtr[e+1]]
		t, w := c[p], f.etaW[e*f.m:(e+1)*f.m]
		if len(f.S) < len(idx) {
			idx = f.S
		}
		for _, i := range idx {
			t -= w[i] * c[i]
		}
		if c[p] = t / f.etaPiv[e]; t != 0 && !f.done[p] {
			f.done[p], f.S = true, append(f.S, p)
		}
	}
	for k, p := range f.pcol {
		t := c[p]
		if t != 0 {
			t /= f.piv[k]
			for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
				c[f.uIdx[e]] -= f.uVal[e] * t
			}
		}
		c[p], y[f.prow[k]] = 0, t
	}
	for k := len(f.prow) - 1; k >= 0; k-- {
		t := y[f.prow[k]]
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			t -= f.lVal[e] * y[f.lIdx[e]]
		}
		y[f.prow[k]] = t
	}
}

// nnz is the number of stored nonzeros: pivots, L, U and the eta file.
func (f *luFactor) nnz() int {
	return len(f.piv) + len(f.lIdx) + len(f.uIdx) + len(f.etaPiv) + len(f.etaIdx)
}
