package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"spinddt/internal/ddt"
	"spinddt/internal/fabric"
	"spinddt/internal/nic"
)

// This file pins the one-shot runners — Session.Run, Session.RunSend and
// Session.RunTransfer — to SHA-256 digests of their full results, printed
// with %#v so every picosecond and every counter counts. No figure golden
// renders RunTransfer, and the goldens that render Run round to
// microseconds; these digests hold a refactor of the paths into the
// backend to the results it had before.
//
// The digests live in testdata/oneshot_digests.txt. Refresh them with
// SPINDDT_WRITE_DIGESTS=1 only for an intentional change to the model.

const oneShotDigestFile = "testdata/oneshot_digests.txt"

// oneShotDigests runs every case on a SimBackend and a MemBackend session
// and returns name→digest:
//   - Run: every strategy on each layout, in order and reordered (the
//     iovec baseline only in order);
//   - RunSend: every send strategy on each layout, SimBackend only;
//   - RunTransfer: every send strategy into every receive strategy but
//     the iovec baseline, which rejects coupled transfers.
func oneShotDigests(t *testing.T) map[string]string {
	t.Helper()
	const count = 8
	layouts := []struct {
		name string
		typ  *ddt.Type
	}{
		{"vector", ddt.MustVector(1024, 6, 10, ddt.Int)},
		{"indexed", ddt.MustIndexed([]int{300, 110, 700, 250, 500, 140}, []int{0, 400, 600, 1400, 1800, 2400}, ddt.Double)},
	}
	got := make(map[string]string)
	put := func(name string, v any) {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", v)))
		got[name] = hex.EncodeToString(sum[:])
	}
	for _, b := range []Backend{SimBackend{}, MemBackend{}} {
		cfg := NewSessionConfig()
		cfg.Backend = b
		sess := NewSession(cfg)
		for _, l := range layouts {
			n := nic.DefaultConfig().Fabric.NumPackets(l.typ.Size() * count)
			order := fabric.ReorderWindow(n, 4, rand.New(rand.NewSource(3)))
			for _, s := range AllStrategies {
				for _, reorder := range []bool{false, true} {
					if reorder && s == PortalsIovec {
						continue
					}
					req := NewRequest(s, l.typ, count)
					name := fmt.Sprintf("run/%s/%s/%v/inorder", b.Name(), l.name, s)
					if reorder {
						req.Order = order
						name = strings.TrimSuffix(name, "inorder") + "reordered"
					}
					res, err := sess.Run(req)
					if err != nil || !res.Verified {
						t.Fatalf("%s: verified=%v err=%v", name, res.Verified, err)
					}
					put(name, res)
				}
			}
			if b.Name() == "sim" {
				for _, s := range AllSendStrategies {
					name := fmt.Sprintf("send/%s/%s/%v", b.Name(), l.name, s)
					res, err := sess.RunSend(NewSendRequest(s, l.typ, count))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					put(name, res)
				}
			}
			for _, snd := range AllSendStrategies {
				for _, rcv := range AllStrategies {
					if rcv == PortalsIovec {
						continue
					}
					name := fmt.Sprintf("transfer/%s/%s/%v/%v", b.Name(), l.name, snd, rcv)
					res, err := sess.RunTransfer(NewTransferRequest(snd, rcv, l.typ, count))
					if err != nil || !res.Verified {
						t.Fatalf("%s: verified=%v err=%v", name, res.Verified, err)
					}
					put(name, res)
				}
			}
		}
		sess.Close()
	}
	return got
}

// TestOneShotDigests compares every one-shot result against the committed
// digests.
func TestOneShotDigests(t *testing.T) {
	got := oneShotDigests(t)
	if os.Getenv("SPINDDT_WRITE_DIGESTS") == "1" {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(oneShotDigestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(oneShotDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", oneShotDigestFile, line)
		}
		want[name] = sum
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, the matrix has %d cases", oneShotDigestFile, len(want), len(got))
	}
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: digest %s, recorded %s", name, sum, want[name])
		}
	}
}
