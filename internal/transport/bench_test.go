package transport

import (
	"net"
	"testing"
	"time"
)

// BenchmarkTransportThroughput measures the reliable transport's
// steady-state message rate over the in-memory pipe: one 64 KiB message
// per iteration through the full frame/ack/window machinery, no injected
// faults. Part of the BENCH_CORE perf gate.
func BenchmarkTransportThroughput(b *testing.B) {
	sender, receiver := pair(b, Config{}, nil)
	benchSend(b, sender, receiver)
}

// BenchmarkTransportUDP is BenchmarkTransportThroughput over two kernel
// UDP loopback sockets. The pipe makes no syscalls, so only this variant
// sees the wire's syscall cost: on Linux one GSO write per window burst,
// one GRO read per batch and one ack per batch. Part of the BENCH_CORE
// perf gate.
func BenchmarkTransportUDP(b *testing.B) {
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("no UDP loopback: %v", err)
	}
	c, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		a.Close()
		b.Skipf("no UDP loopback: %v", err)
	}
	sender := NewEndpoint(a, c.LocalAddr(), 1, Config{})
	receiver := NewEndpoint(c, a.LocalAddr(), 1, Config{})
	b.Cleanup(func() { sender.Close(); receiver.Close() })
	benchSend(b, sender, receiver)
}

// benchSend sends one 64 KiB message per iteration while a goroutine
// receives and releases them.
func benchSend(b *testing.B, sender, receiver *Endpoint) {
	const size = 64 << 10
	body := make([]byte, size)
	for i := range body {
		body[i] = byte(i)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			msg, err := receiver.Recv(time.Minute)
			if err != nil {
				done <- err
				return
			}
			msg.Release()
		}
		done <- nil
	}()

	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(uint32(i), nil, body); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
