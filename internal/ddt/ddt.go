// Package ddt implements MPI derived datatypes (DDTs): the recursive type
// constructors of the MPI standard (contiguous, vector, hvector, indexed,
// hindexed, indexed_block, hindexed_block, struct, subarray, resized), their
// typemap algebra (size, extent, lower bound, contiguous-region counts) and
// a reference pack/unpack engine.
//
// A datatype describes a mapping between a non-contiguous memory layout and
// a packed byte stream. This package is the specification substrate: the
// dataloop package compiles these types into the representation that the
// simulated NIC handlers interpret, and every strategy in internal/core is
// validated against the reference Pack/Unpack implemented here.
//
// Commit walks each type's typemap once and lowers the merged regions of
// one element into an execution plan (internal/plan, exposed via
// Type.Plan), mirroring how the paper's offload engine precomputes
// per-datatype state once at MPI_Type_commit and reuses it for every
// message. The plan owns the region program: ForEachBlock and Flatten
// replay it instead of re-walking the constructor tree, and Pack, Unpack
// and PackInto dispatch to its selected kernel — contiguous memmove,
// unrolled fixed-stride loop or general offset loop — whenever the
// caller's buffers cover the footprint, falling back to the streaming walk
// otherwise. Typemaps above the flat compilation cap are handed over in
// bounded tiles (see program.go); only past the tiled cap is there no plan
// and iteration streams the recursive walk.
package ddt

import (
	"fmt"
	"strings"
	"sync"

	"spinddt/internal/plan"
)

// Kind identifies a datatype constructor.
type Kind int

// The datatype constructors supported by this package. They mirror the MPI
// type constructors of the same names.
const (
	KindElementary Kind = iota
	KindContiguous
	KindVector
	KindHVector
	KindIndexed
	KindHIndexed
	KindIndexedBlock
	KindHIndexedBlock
	KindStruct
	KindSubarray
	KindResized
)

func (k Kind) String() string {
	switch k {
	case KindElementary:
		return "elementary"
	case KindContiguous:
		return "contiguous"
	case KindVector:
		return "vector"
	case KindHVector:
		return "hvector"
	case KindIndexed:
		return "indexed"
	case KindHIndexed:
		return "hindexed"
	case KindIndexedBlock:
		return "indexed_block"
	case KindHIndexedBlock:
		return "hindexed_block"
	case KindStruct:
		return "struct"
	case KindSubarray:
		return "subarray"
	case KindResized:
		return "resized"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type is an immutable MPI derived datatype. Types are built with the New*
// constructors and must be Committed before use in communication; commit
// precomputes the typemap statistics that the offload engine needs.
type Type struct {
	kind Kind
	name string

	size   int64 // bytes of data per element of this type
	lb     int64 // lower bound of the typemap, bytes
	extent int64 // ub - lb, bytes

	count     int
	blockLen  int     // vector, indexed_block (in child elements)
	blockLens []int   // indexed, hindexed, struct (in child elements)
	stride    int64   // vector/hvector stride in bytes
	displs    []int64 // indexed family and struct displacements, bytes

	// subarray parameters (row-major / C order)
	dims    []int // full array sizes, in elements
	subDims []int // subarray sizes, in elements
	starts  []int // subarray start coordinates, in elements

	children []*Type // one child except for struct

	commitOnce sync.Once
	committed  bool
	numBlocks  int64 // merged contiguous regions per element, cached by Commit
	maxBlock   int64 // largest merged contiguous region, bytes
	minBlock   int64 // smallest merged contiguous region, bytes
	trueLB     int64 // smallest typemap offset (MPI true lower bound)
	trueUB     int64 // largest typemap offset+size (MPI true upper bound)
	fuse       bool  // last region of element i fuses with first of i+1
	// execPlan is the region program and its kernels, lowered at Commit.
	execPlan *plan.Plan
}

// Kind returns the constructor kind of the type.
func (t *Type) Kind() Kind { return t.kind }

// Name returns the human-readable name of the type.
func (t *Type) Name() string { return t.name }

// Size returns the number of bytes of actual data in one element of the
// type (the packed size).
func (t *Type) Size() int64 { return t.size }

// Extent returns the span from the type's lower bound to its upper bound,
// i.e. the spacing between consecutive elements of this type in a buffer.
func (t *Type) Extent() int64 { return t.extent }

// LB returns the typemap lower bound in bytes. It is negative for types
// whose first displacement precedes the element origin.
func (t *Type) LB() int64 { return t.lb }

// UB returns the typemap upper bound in bytes (LB + Extent).
func (t *Type) UB() int64 { return t.lb + t.extent }

// Count returns the constructor count (number of blocks or repetitions).
func (t *Type) Count() int { return t.count }

// BlockLen returns the per-block element count of vector and indexed_block
// constructors; 0 for other kinds.
func (t *Type) BlockLen() int { return t.blockLen }

// BlockLens returns the per-block element counts of indexed and struct
// constructors; nil for other kinds. The slice must not be modified.
func (t *Type) BlockLens() []int { return t.blockLens }

// StrideBytes returns the vector stride in bytes; 0 for other kinds.
func (t *Type) StrideBytes() int64 { return t.stride }

// Displacements returns the byte displacements of indexed-family and struct
// constructors; nil for other kinds. The slice must not be modified.
func (t *Type) Displacements() []int64 { return t.displs }

// SubarrayDims returns the full-array sizes, subarray sizes and start
// coordinates of a subarray constructor; nil for other kinds.
func (t *Type) SubarrayDims() (sizes, subSizes, starts []int) {
	return t.dims, t.subDims, t.starts
}

// Children returns the base types of the constructor. The slice must not be
// modified.
func (t *Type) Children() []*Type { return t.children }

// Committed reports whether Commit has been called on the type.
func (t *Type) Committed() bool { return t.committed }

// Commit finalizes the datatype: one recursive walk of the typemap caches
// the statistics (contiguous region counts and min/max region sizes) and
// lowers the region program that every subsequent iteration replays. It
// mirrors MPI_Type_commit — an implementation intercepts this call to
// prepare offload data structures. Commit is idempotent and safe for
// concurrent use.
func (t *Type) Commit() *Type {
	t.commitOnce.Do(t.commit)
	return t
}

func (t *Type) commit() {
	var n, maxB int64
	minB := int64(-1)
	var tlo, thi int64
	var firstOff, lastEnd int64
	var blocks []Block
	var tiles [][]Block
	overflow := false
	m := &merger{emit: func(off, size int64) {
		if n == 0 {
			tlo, thi = off, off+size
			firstOff = off
		} else {
			if off < tlo {
				tlo = off
			}
			if off+size > thi {
				thi = off + size
			}
		}
		lastEnd = off + size
		n++
		if size > maxB {
			maxB = size
		}
		if minB < 0 || size < minB {
			minB = size
		}
		if !overflow {
			switch {
			case n > tiledBlockCap:
				// Pathological region count: drop the program and keep
				// streaming; only the statistics are retained.
				overflow = true
				blocks, tiles = nil, nil
			case tiles != nil:
				tiles = appendTiled(tiles, Block{Offset: off, Size: size})
			case n > compiledBlockCap:
				// Spill the flat program into per-checkpoint-interval
				// tiles and keep compiling: pathological types still
				// replay flat loops instead of the recursive walk.
				tiles = appendTiled(splitTiles(blocks), Block{Offset: off, Size: size})
				blocks = nil
			default:
				blocks = append(blocks, Block{Offset: off, Size: size})
			}
		}
	}}
	t.forEach(0, m)
	m.flush()
	if minB < 0 {
		minB = 0
	}
	t.numBlocks, t.maxBlock, t.minBlock = n, maxB, minB
	t.trueLB, t.trueUB = tlo, thi
	// The last region of element i ends at lastEnd + i*extent; element i+1's
	// first region starts at firstOff + (i+1)*extent. They fuse exactly when
	// those coincide, identically at every boundary.
	t.fuse = n > 0 && lastEnd == firstOff+t.extent
	if !overflow {
		if tiles == nil {
			tiles = [][]Block{blocks}
		}
		t.execPlan = plan.Lower(plan.Program{Tiles: tiles, Fuse: t.fuse, Size: t.size, Extent: t.extent})
	}
	t.committed = true
}

// Plan returns the execution plan lowered at Commit: the region program
// ForEachBlock replays and the specialized pack/unpack kernels the hot
// consumers dispatch to. It is nil only for typemaps whose region count
// exceeds the tiled compilation cap (the streaming-walk fallback). Plan
// commits the type.
func (t *Type) Plan() *plan.Plan {
	t.Commit()
	return t.execPlan
}

// TrueBounds returns the smallest typemap offset and the largest typemap
// offset+size of one element (the MPI "true" lower and upper bounds). For
// resized and subarray types the typemap may spill past the declared extent;
// data buffers must be sized from these bounds, not from Extent.
func (t *Type) TrueBounds() (lo, hi int64) {
	t.Commit()
	return t.trueLB, t.trueUB
}

// NumBlocks returns the number of merged contiguous regions in one element
// of the type. It requires a committed type.
func (t *Type) NumBlocks() int64 {
	t.Commit()
	return t.numBlocks
}

// MaxBlock returns the size in bytes of the largest merged contiguous
// region of one element.
func (t *Type) MaxBlock() int64 {
	t.Commit()
	return t.maxBlock
}

// MinBlock returns the size in bytes of the smallest merged contiguous
// region of one element.
func (t *Type) MinBlock() int64 {
	t.Commit()
	return t.minBlock
}

// Contiguous reports whether one element of the type is a single
// contiguous region occupying exactly [0, size) — the typemap {(0, size)}.
// A single-block type whose block is displaced (a subarray or resized
// construction whose typemap spills past the declared bounds, trueLB > 0)
// is NOT contiguous: fast paths that assume data starts at byte zero must
// not take it.
func (t *Type) Contiguous() bool {
	return t.NumBlocks() == 1 && t.size == t.extent && t.lb == 0 && t.trueLB == 0
}

// Describe renders the full constructor tree, one node per line.
func (t *Type) Describe() string {
	var b strings.Builder
	t.describe(&b, 0)
	return b.String()
}

func (t *Type) describe(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	switch t.kind {
	case KindElementary:
		fmt.Fprintf(b, "%s%s (size=%d)\n", indent, t.name, t.size)
	case KindVector, KindHVector:
		fmt.Fprintf(b, "%s%s count=%d blocklen=%d stride=%dB size=%d extent=%d\n",
			indent, t.kind, t.count, t.blockLen, t.stride, t.size, t.extent)
	case KindIndexedBlock, KindHIndexedBlock:
		fmt.Fprintf(b, "%s%s count=%d blocklen=%d size=%d extent=%d\n",
			indent, t.kind, t.count, t.blockLen, t.size, t.extent)
	case KindSubarray:
		fmt.Fprintf(b, "%s%s dims=%v sub=%v starts=%v size=%d extent=%d\n",
			indent, t.kind, t.dims, t.subDims, t.starts, t.size, t.extent)
	default:
		fmt.Fprintf(b, "%s%s count=%d size=%d extent=%d\n",
			indent, t.kind, t.count, t.size, t.extent)
	}
	for _, c := range t.children {
		c.describe(b, depth+1)
	}
}

// Signature returns a canonical string for the constructor tree. Two types
// with equal signatures have identical typemaps.
func (t *Type) Signature() string {
	var b strings.Builder
	t.signature(&b)
	return b.String()
}

func (t *Type) signature(b *strings.Builder) {
	switch t.kind {
	case KindElementary:
		fmt.Fprintf(b, "e%d", t.size)
		return
	case KindVector, KindHVector:
		fmt.Fprintf(b, "v(%d,%d,%d;", t.count, t.blockLen, t.stride)
	case KindContiguous:
		fmt.Fprintf(b, "c(%d;", t.count)
	case KindIndexed, KindHIndexed:
		fmt.Fprintf(b, "i(%v,%v;", t.blockLens, t.displs)
	case KindIndexedBlock, KindHIndexedBlock:
		fmt.Fprintf(b, "ib(%d,%v;", t.blockLen, t.displs)
	case KindStruct:
		fmt.Fprintf(b, "s(%v,%v;", t.blockLens, t.displs)
	case KindSubarray:
		fmt.Fprintf(b, "sa(%v,%v,%v;", t.dims, t.subDims, t.starts)
	case KindResized:
		fmt.Fprintf(b, "r(%d,%d;", t.lb, t.extent)
	}
	for i, c := range t.children {
		if i > 0 {
			b.WriteByte(',')
		}
		c.signature(b)
	}
	b.WriteByte(')')
}
