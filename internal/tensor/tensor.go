// Package tensor implements the dense N-dimensional array substrate the
// compressor is built on. It plays the role PyTorch plays for PyBlaz:
// row-major float64 tensors with element-wise arithmetic, reductions,
// zero-padding, cropping, and the block/unblock reshapes used by
// block-based compression. Bulk kernels fan out over goroutines.
//
// Blocking has one implementation of each direction: BlockCursor (block.go)
// gathers block k out of a dense array, zero-padded, and scatters it back,
// cropped — to the whole array or to a sub-region of it — as runs along the
// last axis moved with copy. The compressors hold a cursor and one block
// buffer per worker; BlockTensor and Unblock, which materialise every block
// at once, are loops over the same cursor.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major N-dimensional array of float64.
// The zero value is an empty 0-dimensional tensor.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
}

// New allocates a zero-filled tensor with the given shape. Every extent
// must be positive.
func New(shape ...int) *Tensor {
	checkShape(shape)
	n := Prod(shape)
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: rowMajorStrides(shape),
		data:    make([]float64, n),
	}
}

// FromSlice wraps data (without copying) as a tensor of the given shape.
// len(data) must equal the shape's volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	checkShape(shape)
	if len(data) != Prod(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)",
			len(data), shape, Prod(shape)))
	}
	return &Tensor{
		shape:   append([]int(nil), shape...),
		strides: rowMajorStrides(shape),
		data:    data,
	}
}

func checkShape(shape []int) {
	if len(shape) == 0 {
		panic("tensor: shape must have at least one dimension")
	}
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: invalid shape %v: extents must be positive", shape))
		}
	}
}

func rowMajorStrides(shape []int) []int {
	strides := make([]int, len(shape))
	acc := 1
	for d := len(shape) - 1; d >= 0; d-- {
		strides[d] = acc
		acc *= shape[d]
	}
	return strides
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice in row-major order. Mutating it mutates
// the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 {
	return t.data[t.Offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.data[t.Offset(idx)] = v
}

// Offset converts a multi-index to a flat row-major offset.
func (t *Tensor) Offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has %d dims, tensor has %d", idx, len(idx), len(t.shape)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= t.shape[d] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += i * t.strides[d]
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	return EqualShape(t.shape, u.shape)
}

// EqualShape reports whether two shapes are identical.
func EqualShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Prod returns the product of the extents (the volume of a shape).
func Prod(shape []int) int {
	p := 1
	for _, s := range shape {
		p *= s
	}
	return p
}

// CeilDiv returns ceil(a/b) element-wise for two shapes of equal length:
// the block-count shape b = ⌈s ⊘ i⌉ of the paper.
func CeilDiv(s, i []int) []int {
	if len(s) != len(i) {
		panic(fmt.Sprintf("tensor: CeilDiv shape mismatch %v vs %v", s, i))
	}
	out := make([]int, len(s))
	for d := range s {
		out[d] = (s[d] + i[d] - 1) / i[d]
	}
	return out
}

// NextIndex advances a multi-index idx through shape in row-major order.
// It returns false when the iteration is exhausted.
func NextIndex(idx, shape []int) bool {
	for d := len(shape) - 1; d >= 0; d-- {
		idx[d]++
		if idx[d] < shape[d] {
			return true
		}
		idx[d] = 0
	}
	return false
}

// --- element-wise arithmetic (all allocate a fresh result) ---

func (t *Tensor) binary(u *Tensor, op func(a, b float64) float64) *Tensor {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, u.shape))
	}
	out := New(t.shape...)
	for i := range t.data {
		out.data[i] = op(t.data[i], u.data[i])
	}
	return out
}

// Add returns t + u element-wise.
func (t *Tensor) Add(u *Tensor) *Tensor {
	return t.binary(u, func(a, b float64) float64 { return a + b })
}

// Sub returns t − u element-wise.
func (t *Tensor) Sub(u *Tensor) *Tensor {
	return t.binary(u, func(a, b float64) float64 { return a - b })
}

// Neg returns −t.
func (t *Tensor) Neg() *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = -v
	}
	return out
}

// Scale returns x·t.
func (t *Tensor) Scale(x float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = x * v
	}
	return out
}

// AddScalar returns t + x element-wise.
func (t *Tensor) AddScalar(x float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = v + x
	}
	return out
}

// Map returns a new tensor with f applied to every element.
func (t *Tensor) Map(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i, v := range t.data {
		out.data[i] = f(v)
	}
	return out
}

// Apply applies f to every element in place and returns t.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// --- reductions ---

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// Min returns the smallest element.
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// AbsMax returns the largest |element| (the L∞ norm).
func (t *Tensor) AbsMax() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dot returns the dot product of t and u flattened.
func (t *Tensor) Dot(u *Tensor) float64 {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, u.shape))
	}
	s := 0.0
	for i := range t.data {
		s += t.data[i] * u.data[i]
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of the flattened tensor.
func (t *Tensor) Norm2() float64 { return math.Sqrt(t.Dot(t)) }

// --- cropping ---

// CropTo returns a copy of t truncated at the high end of each dimension
// to the given shape, which must be at most as large in every dimension.
func (t *Tensor) CropTo(shape []int) *Tensor {
	if len(shape) != len(t.shape) {
		panic(fmt.Sprintf("tensor: CropTo dims mismatch %v vs %v", shape, t.shape))
	}
	for d := range shape {
		if shape[d] > t.shape[d] {
			panic(fmt.Sprintf("tensor: CropTo target %v larger than %v", shape, t.shape))
		}
	}
	out := New(shape...)
	idx := make([]int, len(shape))
	for {
		out.data[out.Offset(idx)] = t.data[t.Offset(idx)]
		if !NextIndex(idx, shape) {
			break
		}
	}
	return out
}

// --- error metrics between tensors ---

// MaxAbsDiff returns the L∞ distance between t and u.
func (t *Tensor) MaxAbsDiff(u *Tensor) float64 {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, u.shape))
	}
	m := 0.0
	for i := range t.data {
		if d := math.Abs(t.data[i] - u.data[i]); d > m {
			m = d
		}
	}
	return m
}

// RMSE returns the root-mean-square error between t and u.
func (t *Tensor) RMSE(u *Tensor) float64 {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", t.shape, u.shape))
	}
	s := 0.0
	for i := range t.data {
		d := t.data[i] - u.data[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(t.data)))
}
