package apps

import (
	"fmt"
	"math"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// ImageRegistration is the Chalermwat (2001) / Fan (2002) workload: find
// the rigid transform (dx, dy, θ) that aligns a target image to a
// reference. The images are synthetic smooth fields; the target is the
// reference under a known ground-truth transform plus noise, so the
// optimum is known. Fitness is the negative sum of squared differences
// (maximised).
type ImageRegistration struct {
	size   int
	ref    []float64
	target []float64
	// truth is the ground-truth transform (dx, dy, theta).
	truth [3]float64
	// MaxShift bounds |dx|, |dy|; MaxAngle bounds |θ| (radians).
	MaxShift, MaxAngle float64
	// Downsample evaluates the SSD on every k-th pixel (the 2-phase
	// low-resolution trick of Chalermwat's first phase); 1 = full
	// resolution.
	Downsample int
}

// NewImageRegistration creates a size×size synthetic registration
// instance with a random ground-truth transform drawn from seed.
func NewImageRegistration(size int, seed uint64) *ImageRegistration {
	r := rng.New(seed)
	ir := &ImageRegistration{
		size:       size,
		MaxShift:   float64(size) / 8,
		MaxAngle:   0.5,
		Downsample: 1,
	}
	// Smooth random field: sum of a few random Gabor-ish blobs.
	type blob struct{ cx, cy, s, a float64 }
	blobs := make([]blob, 12)
	for i := range blobs {
		blobs[i] = blob{
			cx: r.Float64() * float64(size),
			cy: r.Float64() * float64(size),
			s:  float64(size) * (0.05 + 0.1*r.Float64()),
			a:  r.Range(-1, 1),
		}
	}
	field := func(x, y float64) float64 {
		v := 0.0
		for _, b := range blobs {
			dx, dy := x-b.cx, y-b.cy
			v += b.a * math.Exp(-(dx*dx+dy*dy)/(2*b.s*b.s))
		}
		return v
	}
	ir.ref = make([]float64, size*size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			ir.ref[y*size+x] = field(float64(x), float64(y))
		}
	}
	ir.truth = [3]float64{
		r.Range(-ir.MaxShift/2, ir.MaxShift/2),
		r.Range(-ir.MaxShift/2, ir.MaxShift/2),
		r.Range(-ir.MaxAngle/2, ir.MaxAngle/2),
	}
	// Target = reference sampled through the ground-truth transform, plus
	// mild noise.
	ir.target = make([]float64, size*size)
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			sx, sy := ir.apply(ir.truth, float64(x), float64(y))
			ir.target[y*size+x] = field(sx, sy) + 0.01*r.NormFloat64()
		}
	}
	return ir
}

// apply maps target coordinates through transform t into reference space:
// rotate about the image centre by θ then translate by (dx, dy).
func (ir *ImageRegistration) apply(t [3]float64, x, y float64) (float64, float64) {
	c := float64(ir.size) / 2
	cos, sin := math.Cos(t[2]), math.Sin(t[2])
	rx := cos*(x-c) - sin*(y-c) + c + t[0]
	ry := sin*(x-c) + cos*(y-c) + c + t[1]
	return rx, ry
}

// sample reads the reference with bilinear interpolation (0 outside).
func (ir *ImageRegistration) sample(img []float64, x, y float64) float64 {
	if x < 0 || y < 0 || x > float64(ir.size-1) || y > float64(ir.size-1) {
		return 0
	}
	x0, y0 := int(x), int(y)
	x1, y1 := x0+1, y0+1
	if x1 >= ir.size {
		x1 = x0
	}
	if y1 >= ir.size {
		y1 = y0
	}
	fx, fy := x-float64(x0), y-float64(y0)
	v00 := img[y0*ir.size+x0]
	v01 := img[y0*ir.size+x1]
	v10 := img[y1*ir.size+x0]
	v11 := img[y1*ir.size+x1]
	return v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy
}

// Name implements core.Problem.
func (ir *ImageRegistration) Name() string {
	return fmt.Sprintf("imgreg(%dx%d)", ir.size, ir.size)
}

// Direction implements core.Problem.
func (*ImageRegistration) Direction() core.Direction { return core.Maximize }

// NewGenome implements core.Problem: (dx, dy, θ) within bounds.
func (ir *ImageRegistration) NewGenome(r *rng.Source) core.Genome {
	v := genome.NewRealVector(3, 0, 1)
	v.Lo[0], v.Hi[0] = -ir.MaxShift, ir.MaxShift
	v.Lo[1], v.Hi[1] = -ir.MaxShift, ir.MaxShift
	v.Lo[2], v.Hi[2] = -ir.MaxAngle, ir.MaxAngle
	v.Genes[0] = r.Range(v.Lo[0], v.Hi[0])
	v.Genes[1] = r.Range(v.Lo[1], v.Hi[1])
	v.Genes[2] = r.Range(v.Lo[2], v.Hi[2])
	return v
}

// Evaluate implements core.Problem: negative SSD between the target and
// the reference warped by the candidate transform.
func (ir *ImageRegistration) Evaluate(g core.Genome) float64 {
	v := g.(*genome.RealVector)
	t := [3]float64{v.Genes[0], v.Genes[1], v.Genes[2]}
	step := ir.Downsample
	if step < 1 {
		step = 1
	}
	ssd := 0.0
	n := 0
	for y := 0; y < ir.size; y += step {
		for x := 0; x < ir.size; x += step {
			sx, sy := ir.apply(t, float64(x), float64(y))
			d := ir.target[y*ir.size+x] - ir.sample(ir.ref, sx, sy)
			ssd += d * d
			n++
		}
	}
	return -ssd / float64(n)
}
