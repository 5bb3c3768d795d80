// Package plan owns the committed layout of a datatype and lowers it into
// specialized execution plans — the codegen layer of the datatype engine.
// Lowering happens once, at ddt.Commit / Session.Commit. Every consumer of
// the layout reads it from here: ddt.ForEachBlock and Flatten replay the
// plan's region program, ddt.Pack/Unpack/PackInto, MemBackend and
// UDPBackend dispatch to its kernels, and both sPIN handlers run its
// resolver.
//
// # Plan IR
//
// The lowering input is a Program: the merged contiguous Regions of ONE
// element in typemap order (split into bounded tiles for pathological
// region counts; a flat program is a single tile), the cross-element fusion
// bit, and the element's packed size and extent. The Plan keeps that
// region program — ForEach replays it for any element count, fusing the
// last region of element i with the first of element i+1 when the bit is
// set — and Lower selects exactly one of three kernel kinds:
//
//   - Contig: a single region per element fusing across every boundary —
//     the whole message is one run, executed as a single memmove.
//   - Stride: uniform region sizes at arithmetic offsets — executed as an
//     unrolled inner loop, with 8/16-byte wide word moves when the block
//     size is a multiple of 8 bytes.
//   - Offsets: the general fallback — a tight loop over the region list
//     (flat or tiled), one copy per region.
//
// Selection rules at Commit:
//
//   - Contig requires len(regions)==1 && Fuse. The run may start at a
//     nonzero offset (trueLB>0 spill types), which the kernel honors — it
//     does NOT require the ddt.Contiguous predicate.
//   - Stride requires uniform sizes and arithmetic offsets only; the
//     fusion bit is irrelevant because fusion changes region *boundaries*
//     (a timing concern), never the packed byte stream. Plain MPI vectors
//     are fused and still lower to Stride.
//   - Tiled programs always lower to Offsets.
//
// # Kernel contracts
//
// Kernels are count-generic and bounds-free by contract: the caller must
// guarantee that dst/packed holds Size*count bytes and that src/dst covers
// the footprint [trueLB, (count-1)*extent + trueUB) with trueLB >= 0.
// The ddt wrappers gate the fast path on exactly those bounds and fall back
// to the streaming walk (which reproduces the reference error messages)
// otherwise. Every kernel produces the byte stream of the reference
// ddt.Pack/Unpack exactly.
//
// The fused kernels (PackSum, UnpackSum) compute the CRC-32C (Castagnoli,
// the transport frame polynomial) of the packed stream *during* the gather
// or scatter — per copied chunk, in stream order, which equals the whole-
// stream checksum — so the transport path never needs a second pass.
// Equal verifies a wire stream against the source image region by region
// without materializing a reference pack.
//
// Verify is the receive-side check: for a Monotone layout (regions
// ascending without overlap from offset 0 on, decided at Lower) it reports
// whether a receive buffer is exactly the reference unpack of a stream —
// every region equal to its slice of the stream, every other byte zero —
// and can re-zero each region in the same walk, so a pooled receive buffer
// that verifies goes back clean. It runs per kernel kind with no callback
// per region and allocates nothing.
//
// # Resolvers
//
// Gather is the per-packet resolver of a committed message: it maps a
// packet's stream offset to the packet's contiguous host regions
// (contiguous / vector arithmetic in O(1), an offset list with a binary
// search otherwise) and serves both directions of the offload through one
// region walk. Resolve gathers an outgoing packet through a Reader — the
// sender NIC's PtlProcessPut handler — and Scatter stores an arrived
// packet through a Writer — the receiver's specialized handler. Both
// report the regions they touched, which is what the handlers' cost model
// charges. Constructors take the classification explicitly; the core
// layer keeps its Normalize-based selection.
//
// Every plan renders a deterministic Disassemble listing; the snapshot
// goldens in testdata/golden/plans.txt (make plans-golden) pin one
// disassembly per figure datatype so selection cannot drift silently.
package plan
