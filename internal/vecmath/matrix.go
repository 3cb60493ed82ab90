package vecmath

import "fmt"

// Mat is a dense row-major matrix. The zero value is an empty matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat allocates a zeroed r×c matrix.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic("vecmath: NewMat negative dimension")
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// MatFromRows builds a matrix whose i-th row is rows[i] (copied).
// All rows must have equal length.
func MatFromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return &Mat{}
	}
	c := len(rows[0])
	m := NewMat(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("vecmath: MatFromRows ragged row %d: %d != %d", i, len(r), c))
		}
		copy(m.Row(i), r)
	}
	return m
}

// At returns the (i, j) entry.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a shared (not copied) slice.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatVec computes dst = M·v and returns dst (allocated when nil).
func (m *Mat) MatVec(dst, v []float64) []float64 {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("vecmath: MatVec dim mismatch %d != %d", len(v), m.Cols))
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), v)
	}
	return dst
}

// MatTVec computes dst = Mᵀ·v and returns dst (allocated when nil).
func (m *Mat) MatTVec(dst, v []float64) []float64 {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("vecmath: MatTVec dim mismatch %d != %d", len(v), m.Rows))
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	Zero(dst)
	for i := 0; i < m.Rows; i++ {
		Axpy(v[i], m.Row(i), dst)
	}
	return dst
}
