package ddt

// Normalize rewrites a datatype into an equivalent, simpler one (Träff-style
// datatype normalization, paper Sec. 3.2.3 / [24]): nested constructors that
// describe regular layouts collapse into flat vector or contiguous types,
// which makes more datatypes eligible for the specialized offload handlers.
//
// The rewrite preserves the typemap exactly — same regions, same order, same
// lower bound and extent — which the property tests verify. The input type
// is not modified.
func Normalize(t *Type) *Type {
	for i := 0; i < 16; i++ { // fixpoint with a safety bound
		next := normalizeOnce(t)
		if next == t {
			return t
		}
		t = next
	}
	return t
}

// normalizeOnce applies one bottom-up rewriting pass. It returns the
// original pointer when nothing changed, letting Normalize detect the
// fixpoint.
func normalizeOnce(t *Type) *Type {
	// Normalize children first.
	changed := false
	children := t.children
	for i, c := range t.children {
		nc := normalizeOnce(c)
		if nc != c {
			if !changed {
				children = append([]*Type(nil), t.children...)
				changed = true
			}
			children[i] = nc
		}
	}
	if changed {
		t = t.withChildren(children)
	}

	switch t.kind {
	case KindContiguous:
		c := t.children[0]
		if t.count == 1 {
			return c
		}
		// contiguous(n, contiguous(m, X)) == contiguous(n*m, X)
		if c.kind == KindContiguous {
			return MustContiguous(t.count*c.count, c.children[0])
		}
		// contiguous(n, vector(cnt,bl,s,X)) == vector(n*cnt,bl,s,X) when the
		// vector tiles densely, i.e. its extent equals count*stride.
		if (c.kind == KindVector || c.kind == KindHVector) && c.stride > 0 &&
			c.extent == int64(c.count)*c.stride && c.lb == 0 {
			v, err := newVectorBytes(t.count*c.count, c.blockLen, c.stride, c.children[0], KindHVector)
			if err == nil && v.extent == t.extent && v.lb == t.lb {
				return v
			}
		}

	case KindVector, KindHVector:
		c := t.children[0]
		if t.count == 0 || t.blockLen == 0 {
			return t
		}
		// vector(cnt, bl, s, contiguous(m, X)) == vector(cnt, bl*m, s, X)
		if c.kind == KindContiguous && c.count > 0 {
			v, err := newVectorBytes(t.count, t.blockLen*c.count, t.stride, c.children[0], KindHVector)
			if err == nil && v.extent == t.extent && v.lb == t.lb {
				return v
			}
		}
		// Dense stride: vector(cnt, bl, bl*extent, X) == contiguous(cnt*bl, X)
		if t.stride == int64(t.blockLen)*c.extent {
			ct, err := NewContiguous(t.count*t.blockLen, c)
			if err == nil && ct.extent == t.extent && ct.lb == t.lb {
				return ct
			}
		}
		// Single block: vector(1, bl, s, X) == contiguous(bl, X)
		if t.count == 1 {
			ct, err := NewContiguous(t.blockLen, c)
			if err == nil && ct.extent == t.extent && ct.lb == t.lb {
				return ct
			}
		}

	case KindIndexed, KindHIndexed:
		// All block lengths equal -> indexed_block.
		if t.count > 0 {
			bl := t.blockLens[0]
			same := true
			for _, b := range t.blockLens {
				if b != bl {
					same = false
					break
				}
			}
			if same {
				ib, err := NewHIndexedBlock(bl, t.displs, t.children[0])
				if err == nil && ib.extent == t.extent && ib.lb == t.lb {
					return ib
				}
			}
		}

	case KindIndexedBlock, KindHIndexedBlock:
		// Arithmetic displacements -> hvector.
		if t.count >= 2 {
			d := t.displs[1] - t.displs[0]
			regular := t.displs[0] == 0 && d > 0
			for i := 2; regular && i < t.count; i++ {
				if t.displs[i]-t.displs[i-1] != d {
					regular = false
				}
			}
			if regular {
				v, err := newVectorBytes(t.count, t.blockLen, d, t.children[0], KindHVector)
				if err == nil && v.extent == t.extent && v.lb == t.lb {
					return v
				}
			}
		}
		if t.count == 1 && t.displs[0] == 0 {
			ct, err := NewContiguous(t.blockLen, t.children[0])
			if err == nil && ct.extent == t.extent && ct.lb == t.lb {
				return ct
			}
		}

	case KindResized:
		c := t.children[0]
		// A resize that matches the child's own bounds is a no-op.
		if t.lb == c.lb && t.extent == c.extent {
			return c
		}
	}
	return t
}

// TypemapEqual reports whether two datatypes describe exactly the same
// mapping: identical contiguous regions in identical order, with identical
// lower bounds and extents (so repeated elements also coincide). It is the
// correctness relation Normalize preserves.
func TypemapEqual(a, b *Type) bool {
	if a.Size() != b.Size() || a.Extent() != b.Extent() || a.LB() != b.LB() {
		return false
	}
	ab := a.Flatten(1)
	bb := b.Flatten(1)
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] {
			return false
		}
	}
	return true
}

// withChildren returns a shallow copy of t with the child slice replaced.
// The constructor fields are copied one by one — Type embeds a sync.Once
// and must not be copied as a value — so the copy is uncommitted with no
// cached statistics or lowered plan.
func (t *Type) withChildren(children []*Type) *Type {
	return &Type{
		kind:      t.kind,
		name:      t.name,
		size:      t.size,
		lb:        t.lb,
		extent:    t.extent,
		count:     t.count,
		blockLen:  t.blockLen,
		blockLens: t.blockLens,
		stride:    t.stride,
		displs:    t.displs,
		dims:      t.dims,
		subDims:   t.subDims,
		starts:    t.starts,
		children:  children,
	}
}
