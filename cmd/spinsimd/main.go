// Command spinsimd is the session daemon: a long-running server that
// multiplexes many concurrent datatype-engine sessions over one
// reliable UDP socket. Each client claims a wire session id and drives
// the commit/post/flush/close protocol of internal/server; the daemon
// gives every peer its own core.Session with bounded resource
// accounting and reaps sessions that go idle.
//
// Example:
//
//	spinsimd -addr 127.0.0.1:7117 -backend mem -max-sessions 4096
//	spinsim  -send 127.0.0.1:7117 -wiremsgs 4 -block 512 -msg 1048576
//
// SIGINT/SIGTERM drains the daemon and prints a service summary.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spinddt/internal/core"
	"spinddt/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7117", "UDP address to serve on")
	backend := flag.String("backend", "mem", "session backend: mem|sim")
	maxSessions := flag.Int("max-sessions", 4096, "concurrently open sessions")
	maxHandles := flag.Int("max-handles", 64, "committed handles per session")
	budget := flag.Int64("budget", 64<<20, "per-session pending-byte budget")
	idle := flag.Duration("idle", 2*time.Minute, "idle-session reap timeout")
	verbose := flag.Bool("v", false, "log per-request diagnostics")
	flag.Parse()

	cfg := server.Config{
		MaxSessions: *maxSessions,
		MaxHandles:  *maxHandles,
		ByteBudget:  *budget,
		IdleTimeout: *idle,
	}
	var err error
	if cfg.Backend, err = parseBackend(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "spinsimd:", err)
		os.Exit(1)
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	conn, err := net.ListenPacket("udp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spinsimd:", err)
		os.Exit(1)
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := serve(conn, cfg, stop, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spinsimd:", err)
		os.Exit(1)
	}
}

// parseBackend maps the -backend flag to a session backend.
func parseBackend(name string) (core.Backend, error) {
	switch name {
	case "mem", "":
		return core.MemBackend{}, nil
	case "sim":
		return core.SimBackend{}, nil
	}
	return nil, fmt.Errorf("unknown backend %q (want mem or sim)", name)
}

// serve runs the daemon on conn until a stop signal arrives, then
// drains it and prints the service summary.
func serve(conn net.PacketConn, cfg server.Config, stop <-chan os.Signal, out io.Writer) error {
	if cfg.Backend == nil {
		cfg.Backend = core.MemBackend{}
	}
	srv := server.New(conn, cfg)
	fmt.Fprintf(out, "spinsimd: serving on %v (backend %s, max %d sessions, %v idle reap)\n",
		srv.Addr(), cfg.Backend.Name(), cfg.MaxSessions, cfg.IdleTimeout)
	<-stop
	st := srv.Stats()
	srv.Close()
	fmt.Fprintf(out, "spinsimd: %d sessions served (%d still open, %d reaped), %d requests, %d rejections\n",
		st.Opened, st.Open, st.Reaped, st.Requests, st.Rejections)
	fmt.Fprintf(out, "spinsimd: transport %d data frames and %d acks sent; %d write and %d read calls\n",
		st.Transport.DataSent, st.Transport.AcksSent, st.Transport.WriteCalls, st.Transport.ReadCalls)
	ty, ar := st.Caches.Types, st.Caches.Artifacts
	fmt.Fprintf(out, "spinsimd: caches: types %d hits, %d misses, %d evictions; artifacts %d hits, %d misses, %d evictions\n",
		ty.Hits, ty.Misses, ty.Evictions, ar.Hits, ar.Misses, ar.Evictions)
	// Posts read their streams in place from transport buffers; after the
	// drain every one must be back in its pool.
	fmt.Fprintf(out, "spinsimd: held post buffers: %d at shutdown, %d after the drain\n",
		st.HeldPosts, srv.Stats().HeldPosts)
	return nil
}
