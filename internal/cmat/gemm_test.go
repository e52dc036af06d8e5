package cmat

import (
	"math"
	"testing"
)

// randSparse returns a rows×cols matrix where roughly half the entries are
// exactly zero, exercising the kernels' zero-skip branches. A few entries
// are negative zero so the tests catch any skip-vs-add divergence (adding
// 0·b to -0 flips its sign; skipping preserves it).
func randSparse(rows, cols int, seed int64) *Matrix {
	r := rng(seed)
	m := New(rows, cols)
	for i := range m.Data {
		switch r.Intn(4) {
		case 0:
			m.Data[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
		case 1:
			m.Data[i] = complex(2*r.Float64()-1, 0)
		case 2:
			m.Data[i] = 0
		case 3:
			m.Data[i] = complex(math.Copysign(0, -1), 0)
		}
	}
	return m
}

// bitEqual reports whether two matrices are identical at the bit level,
// distinguishing +0 from -0 (Equal uses ==, which conflates them).
func bitEqual(x, y *Matrix) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	for i := range x.Data {
		a, b := x.Data[i], y.Data[i]
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
			math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
			return false
		}
	}
	return true
}

// TestMulIntoTiledBitIdentical pins the tiled dim ≥ 8 path to the naive
// reference loop, bit for bit, across square, odd, and rectangular shapes
// that exercise every tile tail (odd row, column remainder < 4).
func TestMulIntoTiledBitIdentical(t *testing.T) {
	shapes := []struct{ n, k, p int }{
		{8, 8, 8}, {16, 16, 16}, {32, 32, 32},
		{9, 9, 9}, {11, 7, 13}, {8, 3, 10}, {15, 16, 9},
	}
	for _, s := range shapes {
		for seed := int64(0); seed < 4; seed++ {
			a := randDense(s.n, s.k, seed)
			b := randDense(s.k, s.p, seed+100)
			if seed%2 == 1 {
				a = randSparse(s.n, s.k, seed)
				b = randSparse(s.k, s.p, seed+100)
			}
			got := New(s.n, s.p)
			want := New(s.n, s.p)
			MulInto(got, a, b)
			mulNaive(want, a, b)
			if !bitEqual(got, want) {
				t.Fatalf("MulInto %dx%dx%d seed %d: tiled differs from naive", s.n, s.k, s.p, seed)
			}
		}
	}
}

// TestMulConjIntoTiledBitIdentical does the same for the conj(A)·B path,
// against a naive loop that mirrors MulConjInto's sub-threshold body.
func TestMulConjIntoTiledBitIdentical(t *testing.T) {
	naive := func(dst, a, b *Matrix) {
		n, k, p := a.Rows, a.Cols, b.Cols
		for i := 0; i < n; i++ {
			row := dst.Data[i*p : (i+1)*p]
			for j := range row {
				row[j] = 0
			}
			for l := 0; l < k; l++ {
				v := a.Data[i*k+l]
				if v == 0 {
					continue
				}
				av := complex(real(v), -imag(v))
				brow := b.Data[l*p : (l+1)*p]
				for j, bv := range brow {
					row[j] += av * bv
				}
			}
		}
	}
	for _, s := range []struct{ n, k, p int }{{8, 8, 8}, {16, 16, 16}, {11, 9, 13}} {
		for seed := int64(0); seed < 4; seed++ {
			a := randSparse(s.n, s.k, seed+7)
			b := randDense(s.k, s.p, seed+200)
			got := New(s.n, s.p)
			want := New(s.n, s.p)
			MulConjInto(got, a, b)
			naive(want, a, b)
			if !bitEqual(got, want) {
				t.Fatalf("MulConjInto %dx%dx%d seed %d: tiled differs from naive", s.n, s.k, s.p, seed)
			}
		}
	}
}

// TestMulABtIntoTiledBitIdentical pins the A·Bᵀ path (no zero-skip in
// either arm) to its naive form.
func TestMulABtIntoTiledBitIdentical(t *testing.T) {
	naive := func(dst, a, b *Matrix) {
		k := a.Cols
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Rows; j++ {
				var s complex128
				for l := 0; l < k; l++ {
					s += a.Data[i*k+l] * b.Data[j*k+l]
				}
				dst.Data[i*b.Rows+j] = s
			}
		}
	}
	for _, s := range []struct{ n, k, m int }{{8, 8, 8}, {16, 16, 16}, {9, 12, 11}} {
		for seed := int64(0); seed < 4; seed++ {
			a := randDense(s.n, s.k, seed+13)
			b := randDense(s.m, s.k, seed+300)
			got := New(s.n, s.m)
			want := New(s.n, s.m)
			MulABtInto(got, a, b)
			naive(want, a, b)
			if !bitEqual(got, want) {
				t.Fatalf("MulABtInto %dx%dx%d seed %d: tiled differs from naive", s.n, s.k, s.m, seed)
			}
		}
	}
}

// TestDaggerIntoBlockedMatchesLoop checks the blocked conjugate transpose
// against the plain loop on large and ragged shapes.
func TestDaggerIntoBlockedMatchesLoop(t *testing.T) {
	for _, s := range []struct{ r, c int }{{8, 8}, {16, 16}, {13, 9}, {9, 21}} {
		a := randDense(s.r, s.c, int64(s.r*100+s.c))
		got := New(s.c, s.r)
		want := New(s.c, s.r)
		DaggerInto(got, a)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				v := a.Data[i*a.Cols+j]
				want.Data[j*a.Rows+i] = complex(real(v), -imag(v))
			}
		}
		if !bitEqual(got, want) {
			t.Fatalf("DaggerInto %dx%d: blocked differs from loop", s.r, s.c)
		}
	}
}

// TestMulIntoParallelShapePanics keeps the shape-mismatch cases written for
// the removed pooled MulIntoParallel variant: every dim-8 product now runs
// through MulInto's row-blocked kernel, which must reject the same shapes.
func TestMulIntoParallelShapePanics(t *testing.T) {
	cases := []struct {
		name      string
		dst, a, b *Matrix
	}{
		{"inner", New(8, 8), New(8, 9), New(8, 8)},
		{"dstRows", New(7, 8), New(8, 8), New(8, 8)},
		{"dstCols", New(8, 7), New(8, 8), New(8, 8)},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MulInto did not panic", c.name)
				}
			}()
			MulInto(c.dst, c.a, c.b)
		}()
	}
}

// TestMulIntoDim8ShapePanics makes sure the tiled dispatch still validates
// shapes before touching data.
func TestMulIntoDim8ShapePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MulInto 8x8 dst mismatch did not panic")
			}
		}()
		MulInto(New(8, 9), New(8, 8), New(8, 8))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MulInto 8x8 inner mismatch did not panic")
			}
		}()
		MulInto(New(8, 8), New(8, 7), New(8, 8))
	}()
}

func benchMul(b *testing.B, n int, mul func(dst, a, b *Matrix)) {
	x := randDense(n, n, 1)
	y := randDense(n, n, 2)
	dst := New(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(dst, x, y)
	}
}

func BenchmarkMulInto8(b *testing.B)  { benchMul(b, 8, MulInto) }
func BenchmarkMulInto16(b *testing.B) { benchMul(b, 16, MulInto) }
func BenchmarkMulInto32(b *testing.B) { benchMul(b, 32, MulInto) }

func BenchmarkMulNaive8(b *testing.B)  { benchMul(b, 8, mulNaive) }
func BenchmarkMulNaive16(b *testing.B) { benchMul(b, 16, mulNaive) }
func BenchmarkMulNaive32(b *testing.B) { benchMul(b, 32, mulNaive) }
