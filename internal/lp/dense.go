package lp

// denseInverse is the dense backend's basis representation: an explicit
// row-major m×m inverse, updated in Θ(m²) per pivot by applying the eta
// transform to every row. It never needs refactorization (the inverse is
// maintained directly) but pays dimension-proportional cost on every
// operation regardless of sparsity — which is exactly why the sparse
// revised backend exists.
type denseInverse struct {
	m    int
	binv []float64 // row-major m×m
	tmp  []float64 // ftran scratch
}

func (d *denseInverse) reset(m int) {
	d.m = m
	need := m * m
	if cap(d.binv) < need {
		d.binv = make([]float64, need)
	} else {
		d.binv = d.binv[:need]
		for i := range d.binv {
			d.binv[i] = 0
		}
	}
	for i := 0; i < m; i++ {
		d.binv[i*m+i] = 1
	}
	if cap(d.tmp) < m {
		d.tmp = make([]float64, m)
	}
	d.tmp = d.tmp[:m]
}

func (d *denseInverse) ftran(v []float64) {
	m := d.m
	z := d.tmp[:m]
	for i := range z {
		z[i] = 0
	}
	for k := 0; k < m; k++ {
		vk := v[k]
		if vk == 0 {
			continue
		}
		// Column k of B⁻¹ scaled by v[k].
		for i := 0; i < m; i++ {
			z[i] += d.binv[i*m+k] * vk
		}
	}
	copy(v, z)
}

// ftranSparse runs the dense ftran and then collects the rows it made
// nonzero; the Θ(m²) product dwarfs the O(m) scan.
func (d *denseInverse) ftranSparse(v []float64, mark []bool, pat []int32) []int32 {
	d.ftran(v)
	for i, vi := range v {
		if vi != 0 && !mark[i] {
			mark[i] = true
			pat = append(pat, int32(i))
		}
	}
	return pat
}

func (d *denseInverse) btran(y []float64) {
	m := d.m
	z := d.tmp[:m]
	for i := range z {
		z[i] = 0
	}
	for i := 0; i < m; i++ {
		yi := y[i]
		if yi == 0 {
			continue
		}
		row := d.binv[i*m : i*m+m]
		for k, b := range row {
			z[k] += yi * b
		}
	}
	copy(y, z)
}

// update applies the eta transform to every row of the explicit inverse;
// it reads w densely and ignores the pattern.
func (d *denseInverse) update(r int, w []float64, _ []int32) {
	m := d.m
	inv := 1 / w[r]
	prow := d.binv[r*m : r*m+m]
	for k := range prow {
		prow[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		row := d.binv[i*m : i*m+m]
		for k, p := range prow {
			row[k] -= f * p
		}
	}
}

func (d *denseInverse) shouldRefactor() bool { return false }
func (d *denseInverse) markRefactored()      {}
