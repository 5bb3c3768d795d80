package core

import (
	"testing"

	"spinddt/internal/ddt"
)

// TestSessionStatsCounters pins the observability contract of the plan
// subsystem: commits count the lowered pack/unpack plan, and sender builds
// count the gather resolver (once per (handle, count)).
func TestSessionStatsCounters(t *testing.T) {
	sess := NewSession(NewSessionConfig())
	defer sess.Close()

	contig := ddt.MustContiguous(32, ddt.Int)
	vector := ddt.MustVector(8, 2, 4, ddt.Int)
	irregular := ddt.MustIndexed([]int{1, 3, 2}, []int{0, 2, 7}, ddt.Int)

	hContig, err := sess.CommitAs(contig, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	hVector, err := sess.CommitAs(vector, Specialized)
	if err != nil {
		t.Fatal(err)
	}
	hIrregular, err := sess.CommitAs(irregular, RWCP)
	if err != nil {
		t.Fatal(err)
	}
	// Committing an already-committed (type, strategy) returns the cached
	// handle and must not double-count.
	if _, err := sess.CommitAs(contig, RWCP); err != nil {
		t.Fatal(err)
	}

	st := sess.Stats()
	if st.PlanContig != 1 || st.PlanStride != 1 || st.PlanOffsets != 1 {
		t.Fatalf("plan counters after commits = %+v, want one of each", st)
	}
	if st.GatherContig+st.GatherVector+st.GatherList != 0 {
		t.Fatalf("gather counters before any send = %+v", st)
	}

	ep := sess.Endpoint(EndpointConfig{})
	for _, h := range []*TypeHandle{hContig, hVector, hIrregular} {
		// Two sends per handle: the gather build happens once.
		for i := 0; i < 2; i++ {
			fut, err := ep.Send(h, 2, SendOpts{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}

	st = sess.Stats()
	if st.GatherContig != 1 || st.GatherVector != 1 || st.GatherList != 1 {
		t.Fatalf("gather counters after sends = %+v, want one of each", st)
	}

	// A fresh session starts from zero.
	if st := NewSession(NewSessionConfig()).Stats(); st != (SessionStats{}) {
		t.Fatalf("fresh session stats = %+v", st)
	}
}
