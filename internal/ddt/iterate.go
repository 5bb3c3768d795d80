package ddt

import "spinddt/internal/plan"

// Block is one contiguous region of a typemap: Size bytes at byte Offset
// relative to the element origin (or buffer start when iterating a count of
// elements). It is an alias of plan.Region so a committed type's region
// lists lower into execution plans without copying.
type Block = plan.Region

// merger coalesces adjacent emissions: a block starting exactly where the
// previous one ended extends it, mirroring how MPI implementations build
// iovecs. Blocks are only merged when emitted back-to-back in typemap
// order.
type merger struct {
	off, size int64
	started   bool
	emit      func(off, size int64)
}

func (m *merger) add(off, size int64) {
	if size == 0 {
		return
	}
	if m.started && off == m.off+m.size {
		m.size += size
		return
	}
	m.flush()
	m.off, m.size, m.started = off, size, true
}

func (m *merger) flush() {
	if m.started {
		m.emit(m.off, m.size)
		m.started = false
	}
}

// ForEachBlock calls fn for every merged contiguous region of count
// consecutive elements of the type, in typemap order. Offsets are relative
// to the origin of element 0; element i is displaced i*Extent(). Adjacent
// regions merge across element boundaries, exactly as a contiguous message
// buffer would be described.
//
// ForEachBlock commits the type and replays its plan's region program
// (plan.Plan.ForEach) instead of re-walking the constructor tree. Types
// whose region count exceeds the tiled compilation cap have no plan and
// stream through the recursive walk.
func (t *Type) ForEachBlock(count int, fn func(off, size int64)) {
	if p := t.Plan(); p != nil {
		p.ForEach(count, fn)
		return
	}
	m := &merger{emit: fn}
	for i := 0; i < count; i++ {
		t.forEach(int64(i)*t.extent, m)
	}
	m.flush()
}

// forEach walks the typemap of a single element whose origin is at origin,
// feeding raw (unmerged) regions to m in typemap order.
func (t *Type) forEach(origin int64, m *merger) {
	switch t.kind {
	case KindElementary:
		m.add(origin, t.size)

	case KindContiguous:
		c := t.children[0]
		for i := 0; i < t.count; i++ {
			c.forEach(origin+int64(i)*c.extent, m)
		}

	case KindVector, KindHVector:
		c := t.children[0]
		for i := 0; i < t.count; i++ {
			blockOrigin := origin + int64(i)*t.stride
			for j := 0; j < t.blockLen; j++ {
				c.forEach(blockOrigin+int64(j)*c.extent, m)
			}
		}

	case KindIndexed, KindHIndexed:
		c := t.children[0]
		for i := 0; i < t.count; i++ {
			blockOrigin := origin + t.displs[i]
			for j := 0; j < t.blockLens[i]; j++ {
				c.forEach(blockOrigin+int64(j)*c.extent, m)
			}
		}

	case KindIndexedBlock, KindHIndexedBlock:
		c := t.children[0]
		for i := 0; i < t.count; i++ {
			blockOrigin := origin + t.displs[i]
			for j := 0; j < t.blockLen; j++ {
				c.forEach(blockOrigin+int64(j)*c.extent, m)
			}
		}

	case KindStruct:
		for i := 0; i < t.count; i++ {
			c := t.children[i]
			blockOrigin := origin + t.displs[i]
			for j := 0; j < t.blockLens[i]; j++ {
				c.forEach(blockOrigin+int64(j)*c.extent, m)
			}
		}

	case KindSubarray:
		t.forEachSubarray(origin, m)

	case KindResized:
		t.children[0].forEach(origin, m)
	}
}

// forEachSubarray walks a row-major n-dimensional subarray. The last
// dimension is a run of consecutive base elements; outer dimensions are
// iterated recursively.
func (t *Type) forEachSubarray(origin int64, m *merger) {
	c := t.children[0]
	n := len(t.dims)
	strides := make([]int64, n) // element strides of each dimension
	strides[n-1] = 1
	for d := n - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(t.dims[d+1])
	}
	var walk func(dim int, elemOff int64)
	walk = func(dim int, elemOff int64) {
		if dim == n-1 {
			base := elemOff + int64(t.starts[dim])
			for j := 0; j < t.subDims[dim]; j++ {
				c.forEach(origin+(base+int64(j))*c.extent, m)
			}
			return
		}
		for i := 0; i < t.subDims[dim]; i++ {
			walk(dim+1, elemOff+int64(t.starts[dim]+i)*strides[dim])
		}
	}
	walk(0, 0)
}

// Flatten materializes the merged contiguous regions of count elements, in
// typemap order. For large messages prefer ForEachBlock, which streams.
func (t *Type) Flatten(count int) []Block {
	blocks := make([]Block, 0, t.TotalBlocks(count))
	t.ForEachBlock(count, func(off, size int64) {
		blocks = append(blocks, Block{Offset: off, Size: size})
	})
	if len(blocks) == 0 {
		return nil
	}
	return blocks
}

// TotalBlocks returns the number of merged contiguous regions in count
// consecutive elements of the type. For committed types this is O(1):
// regions only merge pairwise at element boundaries, so the total is
// count*NumBlocks() minus one per fused boundary.
func (t *Type) TotalBlocks(count int) int64 {
	if count <= 0 {
		return 0
	}
	t.Commit()
	if t.numBlocks == 0 {
		return 0
	}
	total := t.numBlocks * int64(count)
	if t.fuse {
		total -= int64(count - 1)
	}
	return total
}

// Gamma returns the paper's γ: the average number of contiguous memory
// regions per network packet when count elements of the type are sent in
// packets of mtu payload bytes.
func (t *Type) Gamma(count int, mtu int64) float64 {
	total := t.size * int64(count)
	if total == 0 || mtu <= 0 {
		return 0
	}
	npkt := (total + mtu - 1) / mtu
	return float64(t.TotalBlocks(count)) / float64(npkt)
}

// Footprint returns the byte span [min, max) touched by count elements of
// the type, relative to the element-0 origin. A receive buffer must cover
// this span. It uses true bounds, so subarray and resized typemaps that
// spill past their declared extent are fully covered.
func (t *Type) Footprint(count int) (lo, hi int64) {
	if count <= 0 {
		return 0, 0
	}
	tlo, thi := t.TrueBounds()
	lo = tlo
	hi = int64(count-1)*t.extent + thi
	if hi < lo {
		hi = lo
	}
	return lo, hi
}
