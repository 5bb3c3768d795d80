package transport

import (
	"bytes"
	"net"
	"syscall"
	"testing"
	"time"
)

// TestGSOFallback pins the per-datagram fallback of the batched wire: a
// GSO send the kernel rejects is resent one datagram per call, every
// later burst goes per datagram, and the peer receives the same
// datagrams either way. SO_NO_CHECK makes the kernel reject every GSO
// send with EINVAL.
func TestGSOFallback(t *testing.T) {
	a, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no UDP loopback: %v", err)
	}
	defer a.Close()
	b, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rc, err := a.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil || serr != nil {
		t.Fatalf("SO_NO_CHECK: %v, %v", err, serr)
	}

	w := newUDPWire(a)
	const seg, segs = 100, 5
	buf := make([]byte, segs*seg-40) // the last segment is short
	for i := range buf {
		buf[i] = byte(i/seg + 1)
	}
	got := make([]byte, 2*seg)
	for burst, want := range []int{1 + segs, segs} {
		calls, err := w.writeBurst(buf, seg, b.LocalAddr())
		if err != nil || calls != want || !w.noGSO.Load() {
			t.Fatalf("burst %d: %d calls, err %v, noGSO %v; want %d calls and noGSO",
				burst, calls, err, w.noGSO.Load(), want)
		}
		for i := 0; i < segs; i++ {
			b.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, _, err := b.ReadFrom(got)
			if want := buf[i*seg : min((i+1)*seg, len(buf))]; err != nil || !bytes.Equal(got[:n], want) {
				t.Fatalf("burst %d datagram %d: %d bytes %v, err %v; want %v", burst, i, n, got[:n], err, want)
			}
		}
	}
}
