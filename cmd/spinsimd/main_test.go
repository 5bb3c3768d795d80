package main

import (
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/server"
	"spinddt/internal/server/client"
	"spinddt/internal/transport"
)

func TestParseBackend(t *testing.T) {
	for name, want := range map[string]string{"mem": "mem", "": "mem", "sim": "sim"} {
		b, err := parseBackend(name)
		if err != nil || b.Name() != want {
			t.Errorf("parseBackend(%q) = %v, %v", name, b, err)
		}
	}
	if _, err := parseBackend("gpu"); err == nil {
		t.Error("bogus backend accepted")
	}
}

// TestServeSignalDrain boots the daemon exactly as main does, drives
// one full client session against it, then delivers the stop signal
// and checks the drained service summary.
func TestServeSignalDrain(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	addr := conn.LocalAddr().String()
	stop := make(chan os.Signal, 1)
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- serve(conn, server.Config{
			Transport: transport.Config{RTOMin: time.Millisecond, RTOMax: 50 * time.Millisecond, MaxRetries: 30},
		}, stop, &out)
	}()

	c, err := client.Dial(addr, 1, client.Config{
		Transport: transport.Config{RTOMin: time.Millisecond, RTOMax: 50 * time.Millisecond, MaxRetries: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	h, err := c.Commit(ddt.MustVector(64, 16, 48, ddt.Int), core.RWCP)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post(h, 2, 1); err != nil {
		t.Fatal(err)
	}
	recs, err := c.Flush()
	if err != nil || len(recs) != 1 || !recs[0].Verified {
		t.Fatalf("flush: %+v, %v", recs, err)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "1 sessions served") || !strings.Contains(got, "spinsimd: serving on") ||
		!strings.Contains(got, "spinsimd: caches: types 0 hits, 1 misses, 0 evictions; artifacts ") ||
		!strings.Contains(got, "spinsimd: held post buffers: 0 at shutdown, 0 after the drain") {
		t.Fatalf("summary output:\n%s", got)
	}
}
