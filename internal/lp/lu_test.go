package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// The LU battery: luFactor's solves against the dense explicit inverse
// (refGaussJordan) on bases built here, away from any simplex run — random
// sparse ones whose elimination leaves a nucleus, and TE-shaped ones made of
// logicals and tunnel columns with an optional dense column like the
// max-concurrent-flow z.

// luFixture is a basis over structural columns held in compressed form.
type luFixture struct {
	m, n   int
	colPtr []int
	colIdx []int32
	colVal []float64
	basis  []int
}

func newFixture(m int) *luFixture { return &luFixture{m: m, colPtr: []int{0}} }

// addCol appends a structural column and returns its variable index.
func (x *luFixture) addCol(rows []int, vals []float64) int {
	for k, i := range rows {
		x.colIdx, x.colVal = append(x.colIdx, int32(i)), append(x.colVal, vals[k])
	}
	x.colPtr = append(x.colPtr, len(x.colIdx))
	x.n++
	return x.n - 1
}

// logical is the variable index of row i's logical, valid once every
// structural column has been added.
func (x *luFixture) logical(i int) int { return x.n + i }

func (x *luFixture) factor() (*luFactor, error) {
	f := new(luFactor)
	return f, f.factorize(x.basis, x.n, x.colPtr, x.colIdx, x.colVal)
}

// inverse is the dense B⁻¹ (rows by position, columns by row), or nil when
// the reference finds B singular.
func (x *luFixture) inverse() []float64 {
	inv, err := refGaussJordan(&simplex{n: x.n, m: x.m, colPtr: x.colPtr, colIdx: x.colIdx, colVal: x.colVal, basis: x.basis})
	if err != nil {
		return nil
	}
	return inv
}

// column is F_v by rows: a structural column, or −e_i for row i's logical.
func (x *luFixture) column(v int) []float64 {
	a := make([]float64, x.m)
	if v >= x.n {
		a[v-x.n] = -1
		return a
	}
	for k := x.colPtr[v]; k < x.colPtr[v+1]; k++ {
		a[x.colIdx[k]] = x.colVal[k]
	}
	return a
}

// randomSparseBasis is m structural columns, each a permuted diagonal entry
// plus about two off-diagonal ones.
func randomSparseBasis(rng *rand.Rand, m int) *luFixture {
	x := newFixture(m)
	perm := rng.Perm(m)
	for j := 0; j < m; j++ {
		rows, vals := []int{perm[j]}, []float64{(1 + 2*rng.Float64()) * float64(1-2*rng.Intn(2))}
		for i := 0; i < m; i++ {
			if i != perm[j] && rng.Float64() < 2/float64(m) {
				rows, vals = append(rows, i), append(vals, 4*rng.Float64()-2)
			}
		}
		x.basis = append(x.basis, x.addCol(rows, vals))
	}
	return x
}

// teBasis has one demand row per flow and one capacity row per link. Every
// flow has three tunnel columns (1 on its demand row and on two to four
// links); with z a last column carries −demand on every demand row. The
// basis takes one tunnel per flow and the logicals of the links, then swaps
// some of those logicals for second tunnels that cross the link (and, with
// z, one for z itself).
func teBasis(rng *rand.Rand, flows, links int, z bool) *luFixture {
	x := newFixture(flows + links)
	tunnels := make([][]int, flows)
	crossing := make([][]int, links) // the second tunnels over each link
	for f := range tunnels {
		for t := 0; t < 3; t++ {
			rows, vals := []int{f}, []float64{1}
			for _, l := range rng.Perm(links)[:2+rng.Intn(3)] {
				rows, vals = append(rows, flows+l), append(vals, 1)
				if t > 0 {
					crossing[l] = append(crossing[l], x.n)
				}
			}
			tunnels[f] = append(tunnels[f], x.addCol(rows, vals))
		}
	}
	zc := -1
	if z {
		var rows []int
		var vals []float64
		for f := 0; f < flows; f++ {
			rows, vals = append(rows, f), append(vals, -(0.5+rng.Float64()))
		}
		zc = x.addCol(rows, vals)
	}
	for f := range tunnels {
		x.basis = append(x.basis, tunnels[f][0])
	}
	for l := 0; l < links; l++ {
		x.basis = append(x.basis, x.logical(l+flows))
	}
	used := map[int]bool{}
	for l, cs := range crossing {
		if len(cs) > 0 && rng.Intn(3) == 0 {
			if c := cs[rng.Intn(len(cs))]; !used[c] {
				x.basis[flows+l], used[c] = c, true
			}
		}
	}
	if z {
		x.basis[flows+rng.Intn(links)] = zc
	}
	return x
}

// solvesMatch checks ftran and btran of a few random right-hand sides against
// the dense inverse, entry by entry within 1e-9·(1+|x|); false means the
// reference found B singular and nothing was checked.
func solvesMatch(t *testing.T, rng *rand.Rand, x *luFixture, f *luFactor, where string) bool {
	t.Helper()
	inv := x.inverse()
	if inv == nil {
		return false
	}
	m := x.m
	for trial := 0; trial < 3; trial++ {
		a, c := make([]float64, m), make([]float64, m)
		for i := range a {
			if rng.Intn(3) == 0 {
				a[i], c[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
			}
		}
		a[rng.Intn(m)], c[rng.Intn(m)] = 1, 1
		wantX, wantY := make([]float64, m), make([]float64, m)
		for i := 0; i < m; i++ {
			for k := 0; k < m; k++ {
				wantX[i] += inv[i*m+k] * a[k]
				wantY[k] += c[i] * inv[i*m+k]
			}
		}
		gotX, gotY := make([]float64, m), make([]float64, m)
		f.ftran(append([]float64(nil), a...), gotX)
		f.btran(append([]float64(nil), c...), gotY)
		for i := 0; i < m; i++ {
			if math.Abs(gotX[i]-wantX[i]) > 1e-9*(1+math.Abs(wantX[i])) {
				t.Fatalf("%s: ftran x[%d] = %v, dense %v", where, i, gotX[i], wantX[i])
			}
			if math.Abs(gotY[i]-wantY[i]) > 1e-9*(1+math.Abs(wantY[i])) {
				t.Fatalf("%s: btran y[%d] = %v, dense %v", where, i, gotY[i], wantY[i])
			}
		}
	}
	return true
}

func TestLUSolvesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked, nucleus := 0, 0
	for trial := 0; trial < 120; trial++ {
		var x *luFixture
		switch trial % 3 {
		case 0:
			x = randomSparseBasis(rng, 5+rng.Intn(60))
		default:
			x = teBasis(rng, 4+rng.Intn(30), 4+rng.Intn(30), trial%3 == 2)
		}
		f, err := x.factor()
		if err != nil {
			if x.inverse() != nil {
				t.Fatalf("trial %d: factorize: %v, yet the dense reference inverts B", trial, err)
			}
			continue
		}
		if solvesMatch(t, rng, x, f, "fresh factors") {
			checked++
			nucleus = max(nucleus, len(f.nr))
		}
	}
	t.Logf("%d of 120 bases nonsingular and checked, largest nucleus %d", checked, nucleus)
	if checked < 80 || nucleus < 5 {
		t.Fatalf("%d bases checked, largest nucleus %d: the battery missed its cases", checked, nucleus)
	}
}

func TestLUSingular(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := map[string]func() *luFixture{
		"duplicate column": func() *luFixture {
			x := randomSparseBasis(rng, 12)
			x.basis[7] = x.basis[2]
			return x
		},
		"empty column": func() *luFixture {
			x := randomSparseBasis(rng, 12)
			x.basis[5] = x.addCol(nil, nil)
			return x
		},
		"explicit zeros only": func() *luFixture {
			x := randomSparseBasis(rng, 12)
			x.basis[5] = x.addCol([]int{0, 3}, []float64{0, 0})
			return x
		},
		"logical twice": func() *luFixture {
			x := teBasis(rng, 6, 8, false)
			x.basis[0] = x.basis[len(x.basis)-1]
			return x
		},
		// Columns a, b and a+b in small integers: the sum is exact, so the
		// dependence survives to a zero pivot in the nucleus.
		"numerically dependent": func() *luFixture {
			x := newFixture(4)
			a := []float64{1, 2, 3, 1}
			b := []float64{2, -1, 1, 3}
			all := []int{0, 1, 2, 3}
			x.basis = []int{
				x.addCol(all, a), x.addCol(all, b),
				x.addCol(all, []float64{a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]}),
				x.addCol([]int{1, 2}, []float64{1, 1}),
			}
			return x
		},
		"below singularTol": func() *luFixture {
			x := newFixture(3)
			x.basis = []int{x.addCol([]int{0, 1}, []float64{1, 1}), x.addCol([]int{0, 1}, []float64{1, 1 + 1e-13}), x.addCol([]int{2}, []float64{1})}
			return x
		},
	}
	for name, build := range cases {
		x := build()
		if _, err := x.factor(); !errors.Is(err, ErrSingularBasis) {
			t.Errorf("%s: factorize returned %v, want ErrSingularBasis", name, err)
		}
	}
}

func TestLUEtaUpdatesMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	updates := 0
	for trial := 0; trial < 40; trial++ {
		x := teBasis(rng, 6+rng.Intn(20), 6+rng.Intn(20), trial%2 == 0)
		f, err := x.factor()
		if err != nil {
			continue
		}
		w := make([]float64, x.m)
		for k, steps := 0, 1+rng.Intn(40); k < steps; k++ {
			// Any nonbasic variable may enter; the leaving position is one
			// with a sound pivot, as the ratio test would insist on.
			q := rng.Intn(x.n + x.m)
			if in := func() bool {
				for _, v := range x.basis {
					if v == q {
						return true
					}
				}
				return false
			}(); in {
				continue
			}
			f.ftran(x.column(q), w)
			var sound []int
			for i, wi := range w {
				if math.Abs(wi) >= 1e-3 {
					sound = append(sound, i)
				}
			}
			if len(sound) == 0 {
				continue
			}
			r := sound[rng.Intn(len(sound))]
			f.push(r, w, 8)
			x.basis[r] = q
			updates++
			fresh, err := x.factor()
			if err != nil {
				t.Fatalf("trial %d: the updated basis does not factor afresh: %v", trial, err)
			}
			if !solvesMatch(t, rng, x, f, "after eta updates") {
				t.Fatalf("trial %d: the dense reference finds the updated basis singular", trial)
			}
			// The same answers from the updated factors and fresh ones.
			a := make([]float64, x.m)
			a[rng.Intn(x.m)] = 1
			got, want := make([]float64, x.m), make([]float64, x.m)
			f.ftran(append([]float64(nil), a...), got)
			fresh.ftran(a, want)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("trial %d after %d updates: ftran x[%d] = %v, fresh factors %v", trial, len(f.etaPos), i, got[i], want[i])
				}
			}
		}
	}
	t.Logf("%d eta updates, each checked against fresh factors and the dense inverse", updates)
	if updates < 200 {
		t.Fatalf("only %d eta updates made", updates)
	}
}

// TestLUAdjoint checks yᵀ(B·w) = (yᵀB)·w for w = ftran(a) and y = btran(c):
// B·w = a and yᵀB = cᵀ, so y·a must equal c·w — through fresh factors and
// through an eta file.
func TestLUAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		x := randomSparseBasis(rng, 5+rng.Intn(50))
		f, err := x.factor()
		if err != nil {
			continue
		}
		for k := 0; k < trial%20; k++ {
			w := make([]float64, x.m)
			q := x.addCol([]int{rng.Intn(x.m), rng.Intn(x.m)}, []float64{1, -1 + rng.Float64()})
			f.ftran(x.column(q), w)
			if r := rng.Intn(x.m); math.Abs(w[r]) > 1e-3 {
				f.push(r, w, 8)
				x.basis[r] = q
			}
		}
		a, c := make([]float64, x.m), make([]float64, x.m)
		for i := range a {
			a[i], c[i] = 2*rng.Float64()-1, 2*rng.Float64()-1
		}
		w, y := make([]float64, x.m), make([]float64, x.m)
		f.ftran(append([]float64(nil), a...), w)
		f.btran(append([]float64(nil), c...), y)
		ya, cw, norm := 0.0, 0.0, 0.0
		for i := range a {
			ya += y[i] * a[i]
			cw += c[i] * w[i]
			norm += math.Abs(y[i]*a[i]) + math.Abs(c[i]*w[i])
		}
		if math.Abs(ya-cw) > 1e-10*(1+norm) {
			t.Fatalf("trial %d (%d etas): y·a = %v, c·w = %v", trial, len(f.etaPos), ya, cw)
		}
	}
}
