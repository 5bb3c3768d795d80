package ddt

// Region-program shape.
//
// Commit materializes the merged contiguous regions of ONE element and
// hands them, with the cross-element fusion bit, to plan.Lower: the
// resulting plan.Plan owns the region program. Pack, Unpack, ForEachBlock,
// Flatten, the host-CPU cost model and the offload builders all read it
// from there; this file only decides the shape it is handed over in.
//
//   - Up to compiledBlockCap regions, the element is one flat tile.
//   - Above it, the regions are chunked into tiles of tileBlocks regions
//     (per-checkpoint-interval chunks), so pathological types still run
//     flat loops instead of the recursive walk. plan.Lower executes tiled
//     programs with its Offsets kernels.
//   - Past tiledBlockCap there is no plan: Commit keeps only the
//     statistics, and every consumer streams through the recursive walk,
//     keeping memory bounded.

// compiledBlockCap bounds the per-element regions Commit materializes as a
// single flat tile (16 bytes per region: 32 MiB at the default). Above it
// the program switches to tiled form. It is a variable so tests can force
// the tiled and streaming paths.
var compiledBlockCap = int64(1) << 21

// tileBlocks is the region count of one tile of a tiled program (4 MiB of
// regions at the default) — the per-checkpoint-interval granularity the
// streaming compilation fills.
var tileBlocks = int64(1) << 18

// tiledBlockCap bounds the total regions of a tiled program (128 MiB of
// regions at the default); past it Commit keeps only the statistics and
// every consumer streams through the recursive walk.
var tiledBlockCap = int64(1) << 23

// appendTiled pushes one region onto the tile list, rolling a fresh tile at
// tileBlocks regions.
func appendTiled(tiles [][]Block, b Block) [][]Block {
	last := len(tiles) - 1
	if last < 0 || int64(len(tiles[last])) >= tileBlocks {
		tiles = append(tiles, make([]Block, 0, tileBlocks))
		last++
	}
	tiles[last] = append(tiles[last], b)
	return tiles
}

// splitTiles rechunks a flat region slice into tiles without copying:
// every tile but the last is capacity-capped so later appends to the tail
// tile can never clobber a sibling.
func splitTiles(blocks []Block) [][]Block {
	var tiles [][]Block
	for int64(len(blocks)) > tileBlocks {
		tiles = append(tiles, blocks[:tileBlocks:tileBlocks])
		blocks = blocks[tileBlocks:]
	}
	return append(tiles, blocks)
}
