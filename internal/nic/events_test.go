package nic_test

import (
	"testing"

	"spinddt/internal/core"
	"spinddt/internal/ddt"
	"spinddt/internal/nic"
)

// TestReceiveEventsPerPacket pins the event count of the 1 MiB vector
// receive that BenchmarkSimulationRWCP1MiB and BenchmarkSimulationSpecialized1MiB
// run: per packet one arrival, one HER, one handler end and four DMA chunk
// issues, plus a handful per message. The DMA engine retires its write
// completions without events; one event per completion made it 11.
func TestReceiveEventsPerPacket(t *testing.T) {
	typ := ddt.MustVector(2048, 128, 256, ddt.Int).Commit()
	for _, s := range []core.Strategy{core.RWCP, core.Specialized} {
		req := core.NewRequest(s, typ, 1)
		off, err := core.BuildOffload(s, core.BuildParams{
			Type: typ, Count: 1, NIC: req.NIC, Cost: req.Cost, Host: req.Host, Epsilon: req.Epsilon,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, hi := typ.Footprint(1)
		packed := make([]byte, typ.Size())
		res, err := nic.RunExchange([]nic.ExchangeEndpoint{{Cfg: req.NIC, Recvs: []nic.BatchMessage{{
			PT: off.PT(), Bits: 1, Packed: packed, Host: make([]byte, hi),
		}}}}, 1)
		off.Release()
		if err != nil {
			t.Fatal(err)
		}
		packets := req.NIC.Fabric.NumPackets(typ.Size())
		t.Logf("%v: %d events for %d packets (%.2f per packet)", s, res.Events, packets, float64(res.Events)/float64(packets))
		if limit := uint64(7*packets + 8); res.Events > limit {
			t.Errorf("%v: %d events for %d packets, want at most %d", s, res.Events, packets, limit)
		}
	}
}
