// Quickstart: offload the unpacking of a strided matrix column to the
// simulated sPIN NIC — first as one-shot runs comparing strategies, then
// through a session: commit the datatype once, post many receives against
// the persistent handle, and flush them in one batched NIC pass.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"spinddt"
)

func main() {
	// A 16-column panel of a 1024x1024 row-major int matrix: 1024 blocks
	// of 64 bytes, 4 KiB apart — the classic non-contiguous transfer.
	column, err := spinddt.Vector(1024, 16, 1024, spinddt.Int)
	if err != nil {
		log.Fatal(err)
	}

	// Receive 16 such panels (a 1 MiB message) with three strategies.
	const count = 16
	fmt.Printf("message: %d KiB, %.0f contiguous regions per packet\n\n",
		column.Size()*count/1024, column.Gamma(count, 2048))

	for _, s := range []spinddt.Strategy{spinddt.Specialized, spinddt.RWCP, spinddt.HostUnpack} {
		res, err := spinddt.Run(spinddt.NewRequest(s, column, count))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12v %10v  %7.1f Gbit/s  verified=%v\n",
			s, res.ProcTime, res.ThroughputGbps(), res.Verified)
	}

	// The session API is what an MPI library would hold: commit the type
	// once — the plan and offload state are built exactly once —
	// then post receives against the handle. The first post pays the host
	// preparation; every later one reports zero (the paper's Fig. 18).
	sess := spinddt.NewSession(spinddt.NewSessionConfig())
	handle, err := sess.Commit(column)
	if err != nil {
		log.Fatal(err)
	}
	ep := sess.Endpoint(spinddt.EndpointConfig{})
	futures := make([]*spinddt.Future, 4)
	for i := range futures {
		if futures[i], err = ep.Post(handle, count, spinddt.PostOpts{Seed: int64(i + 1)}); err != nil {
			log.Fatal(err)
		}
	}
	if err := ep.Flush(); err != nil { // one batched NIC residency pass
		log.Fatal(err)
	}
	fmt.Printf("\nsession: %v handle, %d posts on one endpoint\n", handle.Strategy(), len(futures))
	for i, f := range futures {
		res, err := f.Wait()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  post %d: proc=%-12v host-prep=%-10v verified=%v\n",
			i, res.ProcTime, res.Prep.Total(), res.Verified)
	}

	fmt.Println("\nThe sPIN NIC scatters each packet into the column layout as it",
		"\narrives — zero-copy — while the host baseline first lands the packed",
		"\nstream in memory and then walks it with the CPU. The committed handle",
		"\nis built once: only the first post carries the preparation cost.")
}
